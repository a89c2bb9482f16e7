package main

import (
	"bufio"
	"math"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value (the mean of the two middle values for an
// even count); 0 for no values.
func median(vals []float64) float64 {
	return quantile(vals, 50)
}

// quantile returns the p-th percentile (0..100) by linear interpolation
// between closest ranks; 0 for no values.
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the percentiles a timing may be reported at, lowest
// first.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// supportedPercentile is the reporting rule for tails: the highest percentile
// with at least ten samples beyond it. Below 100 samples only the median is
// supported.
func supportedPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles[1:] {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // the epsilon absorbs 100-99.9
			best = p
		}
	}
	return best
}

// tail returns the want-th percentile of vals, lowered to the highest
// percentile the sample count supports, and the percentile actually used.
func tail(vals []float64, want float64) (value, used float64) {
	used = math.Min(want, supportedPercentile(len(vals)))
	return quantile(vals, used), used
}

// promSamples is one parsed Prometheus text exposition: series (name plus
// label set, exactly as rendered) to value.
type promSamples map[string]float64

// parseProm reads the text exposition format. Comment lines and lines that
// do not end in a number are skipped.
func parseProm(text string) promSamples {
	out := promSamples{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// total sums every series of the family whose label set holds all the given
// `name="value"` fragments; a histogram's sum and count are the families
// name_sum and name_count.
func (p promSamples) total(family string, labels ...string) float64 {
	t := 0.0
series:
	for key, v := range p {
		name, rest, _ := strings.Cut(key, "{")
		if name != family {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue series
			}
		}
		t += v
	}
	return t
}

// delta is after.total − before.total for one family and label selection.
func promDelta(before, after promSamples, family string, labels ...string) float64 {
	return after.total(family, labels...) - before.total(family, labels...)
}
