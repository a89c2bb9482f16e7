// Package exchange provides XMR/USD exchange-rate history and conversion.
//
// The paper converts pool payments to USD using the exchange rate at the date
// of each payment, falling back to an average of 54 USD/XMR when historical
// data is unavailable (§III-D). The real market history is replaced here by a
// synthetic daily curve with the same coarse shape as 2014–2019 Monero prices:
// sub-dollar launches, a steep bubble peaking in January 2018, and a decline
// during 2018–2019. Absolute values are approximations; the conversion logic
// is identical to what would run against real market data.
package exchange

import (
	"math"
	"sort"
	"time"
)

// AverageRateUSD is the fallback rate the paper uses when no historical rate
// is available for a payment date.
const AverageRateUSD = 54.0

// RatePoint is the USD value of 1 XMR on a given day.
type RatePoint struct {
	Date time.Time
	USD  float64
}

// History is a daily exchange-rate series, sorted by date.
type History struct {
	points []RatePoint
}

// anchor points approximating the 2014–2019 XMR/USD trajectory. Daily points
// are interpolated between anchors on a log scale so that the bubble and the
// decline have realistic convexity.
var defaultAnchors = []RatePoint{
	{Date: date(2014, 6, 1), USD: 2.5},
	{Date: date(2014, 12, 1), USD: 0.5},
	{Date: date(2015, 6, 1), USD: 0.55},
	{Date: date(2016, 1, 1), USD: 0.5},
	{Date: date(2016, 9, 1), USD: 10},
	{Date: date(2017, 1, 1), USD: 14},
	{Date: date(2017, 6, 1), USD: 45},
	{Date: date(2017, 9, 1), USD: 100},
	{Date: date(2017, 12, 15), USD: 300},
	{Date: date(2018, 1, 9), USD: 450},
	{Date: date(2018, 3, 1), USD: 280},
	{Date: date(2018, 6, 1), USD: 160},
	{Date: date(2018, 10, 1), USD: 110},
	{Date: date(2019, 1, 1), USD: 48},
	{Date: date(2019, 4, 30), USD: 65},
}

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// NewDefaultHistory builds the synthetic daily XMR/USD history covering
// June 2014 through April 2019.
func NewDefaultHistory() *History {
	return NewInterpolated(defaultAnchors)
}

// NewInterpolated builds a daily history by log-linear interpolation between
// the given anchor points. Anchors are sorted by date; at least two are
// required, otherwise an empty history is returned.
func NewInterpolated(anchors []RatePoint) *History {
	if len(anchors) < 2 {
		return &History{}
	}
	as := append([]RatePoint(nil), anchors...)
	sort.Slice(as, func(i, j int) bool { return as[i].Date.Before(as[j].Date) })
	var pts []RatePoint
	for i := 0; i < len(as)-1; i++ {
		a, b := as[i], as[i+1]
		days := int(b.Date.Sub(a.Date).Hours() / 24)
		if days <= 0 {
			continue
		}
		la, lb := math.Log(a.USD), math.Log(b.USD)
		for d := 0; d < days; d++ {
			frac := float64(d) / float64(days)
			pts = append(pts, RatePoint{
				Date: a.Date.AddDate(0, 0, d),
				USD:  math.Exp(la + (lb-la)*frac),
			})
		}
	}
	pts = append(pts, as[len(as)-1])
	return &History{points: pts}
}

// Len returns the number of daily points in the history.
func (h *History) Len() int { return len(h.points) }

// Rate returns the USD value of 1 XMR on the given date. Dates before the
// first point or after the last point return the fallback AverageRateUSD, as
// the paper does when historical data is unavailable. An empty history always
// returns the fallback.
func (h *History) Rate(t time.Time) float64 {
	if len(h.points) == 0 {
		return AverageRateUSD
	}
	day := t.UTC().Truncate(24 * time.Hour)
	first, last := h.points[0].Date, h.points[len(h.points)-1].Date
	if day.Before(first) || day.After(last) {
		return AverageRateUSD
	}
	// Binary search for the latest point not after day.
	idx := sort.Search(len(h.points), func(i int) bool { return h.points[i].Date.After(day) })
	if idx == 0 {
		return h.points[0].USD
	}
	return h.points[idx-1].USD
}

// Convert converts an XMR amount to USD at the rate of the given date,
// falling back to AverageRateUSD outside the covered range.
func (h *History) Convert(xmr float64, t time.Time) float64 {
	return xmr * h.Rate(t)
}

// ConvertAverage converts an XMR amount with the fallback average rate.
func ConvertAverage(xmr float64) float64 { return xmr * AverageRateUSD }
