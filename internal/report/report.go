// Package report renders the tables, CDF series and time series the
// evaluation reproduces, as aligned plain-text output. The benchmark harness
// and the cmd tools use it so that every table and figure of the paper has a
// textual equivalent that can be diffed across runs.
package report

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells are padded with "".
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is a named sequence of (label, value) pairs, used for figures
// rendered as text (CDFs, histograms, yearly trends).
type Series struct {
	Name   string
	Points []SeriesPoint
}

// SeriesPoint is one (label, value) pair.
type SeriesPoint struct {
	Label string
	Value float64
}

// Add appends a point.
func (s *Series) Add(label string, value float64) {
	s.Points = append(s.Points, SeriesPoint{Label: label, Value: value})
}

// String renders the series as "label value" lines with a tiny ASCII bar.
func (s *Series) String() string {
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "%s\n", s.Name)
	}
	maxVal := 0.0
	maxLabel := 0
	for _, p := range s.Points {
		if p.Value > maxVal {
			maxVal = p.Value
		}
		if len(p.Label) > maxLabel {
			maxLabel = len(p.Label)
		}
	}
	for _, p := range s.Points {
		bar := ""
		if maxVal > 0 {
			n := int(30 * p.Value / maxVal)
			bar = strings.Repeat("#", n)
		}
		fmt.Fprintf(&b, "%s  %12.4f  %s\n", pad(p.Label, maxLabel), p.Value, bar)
	}
	return b.String()
}

// YearBuckets counts occurrences per calendar year, for the Table IV-style
// per-year breakdowns.
type YearBuckets struct {
	counts map[int]int
}

// NewYearBuckets returns an empty per-year counter.
func NewYearBuckets() *YearBuckets {
	return &YearBuckets{counts: map[int]int{}}
}

// Add increments the bucket of the year of t (zero times are ignored).
func (y *YearBuckets) Add(t time.Time) {
	if t.IsZero() {
		return
	}
	y.counts[t.Year()]++
}

// AddN increments the bucket of a year directly.
func (y *YearBuckets) AddN(year, n int) {
	y.counts[year] += n
}

// Count returns the count for a year.
func (y *YearBuckets) Count(year int) int { return y.counts[year] }

// Years returns the covered years, sorted.
func (y *YearBuckets) Years() []int {
	out := make([]int, 0, len(y.counts))
	for yr := range y.counts {
		out = append(out, yr)
	}
	sort.Ints(out)
	return out
}

// Total returns the sum over all years.
func (y *YearBuckets) Total() int {
	total := 0
	for _, c := range y.counts {
		total += c
	}
	return total
}

// YearlyEvolution renders the paper-style per-year evolution table from
// parallel YearBuckets columns: one row per calendar year covered by any
// column (sorted), one column per name, plus a totals row. Used by the
// streaming daemon to render the longitudinal breakdown served at
// /api/v1/timeseries as diffable text.
func YearlyEvolution(title string, names []string, cols []*YearBuckets) *Table {
	t := NewTable(title, append([]string{"Year"}, names...)...)
	yearSet := map[int]bool{}
	for _, c := range cols {
		for _, y := range c.Years() {
			yearSet[y] = true
		}
	}
	years := make([]int, 0, len(yearSet))
	for y := range yearSet {
		years = append(years, y)
	}
	sort.Ints(years)
	for _, y := range years {
		cells := []string{strconv.Itoa(y)}
		for _, c := range cols {
			cells = append(cells, strconv.Itoa(c.Count(y)))
		}
		t.AddRow(cells...)
	}
	cells := []string{"total"}
	for _, c := range cols {
		cells = append(cells, strconv.Itoa(c.Total()))
	}
	t.AddRow(cells...)
	return t
}

// Counter is a string-keyed counter with sorted output, used for the
// "top domains", "packers", "emails per pool" style tables.
type Counter struct {
	counts map[string]int
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return &Counter{counts: map[string]int{}} }

// Add increments a key by one.
func (c *Counter) Add(key string) { c.AddN(key, 1) }

// AddN increments a key by n.
func (c *Counter) AddN(key string, n int) {
	if key == "" {
		return
	}
	c.counts[key] += n
}

// Count returns the count for a key. Only tests read it; the tables use Top.
func (c *Counter) Count(key string) int { return c.counts[key] }

// Len returns the number of distinct keys.
func (c *Counter) Len() int { return len(c.counts) }

// Entry is a (key, count) pair.
type Entry struct {
	Key   string
	Count int
}

// Top returns the n highest-count entries (all of them when n <= 0), ordered
// by count descending then key ascending.
func (c *Counter) Top(n int) []Entry {
	out := make([]Entry, 0, len(c.counts))
	for k, v := range c.counts {
		out = append(out, Entry{Key: k, Count: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Percent formats a ratio as a percentage with one decimal.
func Percent(part, whole float64) string {
	if whole == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*part/whole)
}
