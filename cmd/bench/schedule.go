package main

import "time"

// clock is the harness's view of time, so the scheduler below can be tested
// against a fake one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// pace calls do(i, due) for i = 0, 1, 2, ... until do returns false or, when
// n >= 0, n calls were made. With rate 0 — the closed loop — due is the
// instant the previous call returned. Otherwise — the open loop — due is
// start+i/rate, fixed in advance: pace sleeps until then and never skips a
// slot, so a call that overruns makes the calls behind it start late, and a
// latency measured from due charges them for the wait.
func pace(clk clock, start time.Time, n int, rate float64, do func(i int, due time.Time) bool) {
	for i := 0; n < 0 || i < n; i++ {
		due := clk.Now()
		if rate > 0 {
			due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if wait := due.Sub(clk.Now()); wait > 0 {
				clk.Sleep(wait)
			}
		}
		if !do(i, due) {
			return
		}
	}
}
