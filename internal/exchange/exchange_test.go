package exchange

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultHistoryCoversStudyPeriod(t *testing.T) {
	h := NewDefaultHistory()
	if h.Len() == 0 {
		t.Fatal("default history is empty")
	}
	first, last := h.points[0].Date, h.points[h.Len()-1].Date
	if first.After(date(2014, 7, 1)) {
		t.Errorf("history should start by mid-2014, starts %v", first)
	}
	if last.Before(date(2019, 4, 1)) {
		t.Errorf("history should extend to April 2019, ends %v", last)
	}
	if h.Len() < 1500 {
		t.Errorf("expected daily points over ~5 years, got %d", h.Len())
	}
}

func TestDefaultHistoryShape(t *testing.T) {
	h := NewDefaultHistory()
	early := h.Rate(date(2015, 6, 1))
	peak := h.Rate(date(2018, 1, 9))
	late := h.Rate(date(2019, 1, 15))
	if early >= 5 {
		t.Errorf("2015 rate = %v, want < 5 USD", early)
	}
	if peak < 300 {
		t.Errorf("Jan 2018 peak = %v, want >= 300 USD", peak)
	}
	if late >= peak/3 {
		t.Errorf("2019 rate %v should be well below peak %v", late, peak)
	}
}

func TestRateFallbackOutsideRange(t *testing.T) {
	h := NewDefaultHistory()
	if got := h.Rate(date(2007, 1, 1)); got != AverageRateUSD {
		t.Errorf("rate before history = %v, want fallback %v", got, AverageRateUSD)
	}
	if got := h.Rate(date(2030, 1, 1)); got != AverageRateUSD {
		t.Errorf("rate after history = %v, want fallback %v", got, AverageRateUSD)
	}
	if got := (&History{}).Rate(date(2018, 1, 1)); got != AverageRateUSD {
		t.Errorf("empty history Rate = %v, want fallback", got)
	}
}

func TestConvert(t *testing.T) {
	h := &History{points: []RatePoint{
		{Date: date(2018, 1, 1), USD: 100},
		{Date: date(2018, 1, 2), USD: 200},
	}}
	if got := h.Convert(2.5, date(2018, 1, 1)); got != 250 {
		t.Errorf("Convert = %v, want 250", got)
	}
	if got := h.Convert(2.5, date(2018, 1, 2)); got != 500 {
		t.Errorf("Convert on second day = %v, want 500", got)
	}
	if got := ConvertAverage(10); got != 540 {
		t.Errorf("ConvertAverage(10) = %v, want 540", got)
	}
}

func TestRateUsesLatestPointNotAfterDate(t *testing.T) {
	h := &History{points: []RatePoint{
		{Date: date(2018, 1, 1), USD: 100},
		{Date: date(2018, 1, 10), USD: 200},
	}}
	// A date between the two points uses the earlier one.
	if got := h.Rate(date(2018, 1, 5)); got != 100 {
		t.Errorf("Rate(between points) = %v, want 100", got)
	}
	// Intraday timestamps truncate to the day.
	if got := h.Rate(time.Date(2018, 1, 10, 23, 59, 0, 0, time.UTC)); got != 200 {
		t.Errorf("Rate(intraday) = %v, want 200", got)
	}
}

func TestInterpolationMonotonicSegments(t *testing.T) {
	h := NewInterpolated([]RatePoint{
		{Date: date(2017, 1, 1), USD: 10},
		{Date: date(2017, 2, 1), USD: 100},
	})
	prev := 0.0
	for d := 0; d < 31; d++ {
		r := h.Rate(date(2017, 1, 1).AddDate(0, 0, d))
		if r < prev {
			t.Fatalf("interpolated rate decreased on rising segment at day %d: %v < %v", d, r, prev)
		}
		prev = r
	}
	if math.Abs(h.Rate(date(2017, 1, 1))-10) > 1e-9 {
		t.Errorf("anchor start rate = %v, want 10", h.Rate(date(2017, 1, 1)))
	}
	if math.Abs(h.Rate(date(2017, 2, 1))-100) > 1e-9 {
		t.Errorf("anchor end rate = %v, want 100", h.Rate(date(2017, 2, 1)))
	}
}

func TestNewInterpolatedDegenerate(t *testing.T) {
	if h := NewInterpolated(nil); h.Len() != 0 {
		t.Error("nil anchors should give empty history")
	}
	if h := NewInterpolated([]RatePoint{{Date: date(2018, 1, 1), USD: 50}}); h.Len() != 0 {
		t.Error("single anchor should give empty history")
	}
	// Duplicate dates are skipped, not fatal.
	h := NewInterpolated([]RatePoint{
		{Date: date(2018, 1, 1), USD: 50},
		{Date: date(2018, 1, 1), USD: 60},
		{Date: date(2018, 1, 3), USD: 70},
	})
	if h.Len() == 0 {
		t.Error("history with duplicate anchor dates should still interpolate")
	}
}

func TestRatePositiveProperty(t *testing.T) {
	h := NewDefaultHistory()
	f := func(dayOffset uint16) bool {
		d := date(2014, 1, 1).AddDate(0, 0, int(dayOffset)%2200)
		return h.Rate(d) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConvertLinearProperty(t *testing.T) {
	h := NewDefaultHistory()
	d := date(2018, 6, 1)
	f := func(ai, bi uint32) bool {
		// Constrain inputs to realistic XMR amounts (fractions of a coin up
		// to ~4M coins) so floating-point cancellation is not a factor.
		a := float64(ai%4_000_000) / 256
		b := float64(bi%4_000_000) / 256
		lhs := h.Convert(a, d) + h.Convert(b, d)
		rhs := h.Convert(a+b, d)
		return math.Abs(lhs-rhs) <= 1e-6*math.Max(1, math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRateLookup(b *testing.B) {
	h := NewDefaultHistory()
	d := date(2018, 3, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Rate(d)
	}
}
