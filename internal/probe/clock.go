package probe

import (
	"sort"
	"sync"
	"time"
)

// Clock abstracts time for the scheduler so tests can drive rate limits,
// backoff and TTL refresh deterministically. The real implementation simply
// forwards to the time package.
type Clock interface {
	Now() time.Time
	// After returns a channel that delivers the current time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }    //cryptolint:allow directclock RealClock is the designated wall-clock implementation of the seam
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) } //cryptolint:allow directclock RealClock is the designated wall-clock implementation of the seam

// RealClock is the wall-clock implementation used outside tests.
func RealClock() Clock { return realClock{} }

// FakeClock is a manually advanced clock: Now returns a fixed instant until
// Advance moves it, and timers created by After only fire when an Advance
// carries the clock past their deadline. Safe for concurrent use.
type FakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []fakeTimer
}

type fakeTimer struct {
	at time.Time
	ch chan time.Time
}

// NewFakeClock creates a fake clock pinned at start. Only tests use the fake
// clock, here and in persist.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the fake instant.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After registers a timer that fires when Advance reaches now+d. A
// non-positive d fires immediately.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	at := c.now.Add(d)
	if d <= 0 {
		ch <- at
		return ch
	}
	c.timers = append(c.timers, fakeTimer{at: at, ch: ch})
	return ch
}

// Advance moves the clock forward by d and fires every timer whose deadline
// has been reached, in deadline order. Only tests advance a clock.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due []fakeTimer
	rest := c.timers[:0]
	for _, t := range c.timers {
		if !t.at.After(c.now) {
			due = append(due, t)
		} else {
			rest = append(rest, t)
		}
	}
	c.timers = rest
	c.mu.Unlock()
	sort.Slice(due, func(i, j int) bool { return due[i].at.Before(due[j].at) })
	for _, t := range due {
		t.ch <- t.at
	}
}
