// Package timeseries is the longitudinal metrics store of the streaming
// engine: multi-resolution windowed aggregates maintained incrementally as
// events land, held in fixed-memory ring buffers with cascaded downsampling.
//
// Every metric is a Series: a stack of resolution levels (e.g. 1s, 1m, 1h,
// 1d). A recorded point lands in the finest level's open bucket; when time
// crosses a bucket boundary the sealed bucket is pushed onto that level's
// ring and folded ("cascaded") into the next coarser level's open bucket, so
// the hot path touches exactly one bucket and coarser levels are maintained
// for free. Each ring holds a fixed number of sealed buckets, so memory is
// bounded by the retention configuration regardless of run length: old fine-
// grained buckets fall off their ring while their contribution lives on in
// the coarser levels.
//
// A Bucket carries enough aggregates for both counter-style metrics (Count,
// Sum: arrivals, deltas) and gauge-style metrics (Last, Min, Max: partition
// size, running totals), and merging two buckets is exact for all of them —
// which is what makes the cascade lossless for the supported read shapes.
//
// The Store groups named ecosystem-wide series, per-campaign timelines
// (keyed by the campaign partition's stable component keys, mergeable when
// campaigns merge), and per-calendar-year data-time counters for the
// paper-style yearly-evolution breakdowns. Everything serializes to a
// canonical State — same contents, same bytes — so series survive
// checkpoint/crash recovery bit-identically.
//
// The Store carries its own internal RWMutex: writes arrive from the
// streaming engine's collector (which additionally serializes them under its
// own mutex), while reads come straight from API handlers without touching
// the collector — so a long collector hold can never block a timeseries
// read, only an individual in-flight bucket write can (briefly). Individual
// Series values are NOT self-locking; they are only reachable through the
// Store.
package timeseries

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ParseDuration is time.ParseDuration plus a whole-day unit ("7d"), the
// syntax of the API's resolution and window query parameters.
func ParseDuration(raw string) (time.Duration, error) {
	if strings.HasSuffix(raw, "d") {
		days, err := strconv.Atoi(strings.TrimSuffix(raw, "d"))
		if err != nil {
			return 0, fmt.Errorf("invalid duration %q", raw)
		}
		return time.Duration(days) * 24 * time.Hour, nil
	}
	return time.ParseDuration(raw)
}

// KnownEcosystemMetric reports whether name is a metric the engine records
// (possibly not yet): one of the fixed ecosystem series, or a per-pool
// share. Series are created lazily on first record, so metric validation
// must accept a known name before any data exists instead of flipping from
// 400 to 200 mid-run.
func KnownEcosystemMetric(name string) bool {
	switch name {
	case SeriesSamples, SeriesKept, SeriesCampaigns, SeriesXMR:
		return true
	}
	return strings.HasPrefix(name, PoolSeriesPrefix) && len(name) > len(PoolSeriesPrefix)
}

// Bucket is one aggregation window of a series level. Start is the window's
// begin time (Unix seconds, aligned to the level's resolution); the remaining
// fields aggregate every value recorded in the window.
type Bucket struct {
	// Start is the bucket's aligned begin time (Unix seconds).
	Start int64
	// Count is the number of recorded values.
	Count int64
	// Sum is the total of the recorded values (the windowed delta for
	// counter-style metrics).
	Sum float64
	// Min / Max / Last track the recorded value range; Last is the newest
	// value (the windowed reading for gauge-style metrics).
	Min  float64
	Max  float64
	Last float64
}

// observe folds one recorded value into the bucket.
func (b *Bucket) observe(v float64) {
	if b.Count == 0 || v < b.Min {
		b.Min = v
	}
	if b.Count == 0 || v > b.Max {
		b.Max = v
	}
	b.Count++
	b.Sum += v
	b.Last = v
}

// absorb folds a complete (finer or peer) bucket into b. The argument must
// cover a time range at or after everything already absorbed, which the
// cascade guarantees — so taking its Last is correct.
func (b *Bucket) absorb(o Bucket) {
	if o.Count == 0 {
		return
	}
	if b.Count == 0 || o.Min < b.Min {
		b.Min = o.Min
	}
	if b.Count == 0 || o.Max > b.Max {
		b.Max = o.Max
	}
	b.Count += o.Count
	b.Sum += o.Sum
	b.Last = o.Last
}

// LevelSpec configures one resolution level of a series.
type LevelSpec struct {
	// Resolution is the bucket width.
	Resolution time.Duration
	// Buckets is the number of sealed buckets the level retains.
	Buckets int
}

// DefaultLevels is the standard retention ladder: two minutes of seconds,
// three hours of minutes, a week of hours, a decade of days — the paper's
// longitudinal horizon at bounded memory (~4k buckets per series).
func DefaultLevels() []LevelSpec {
	return []LevelSpec{
		{Resolution: time.Second, Buckets: 120},
		{Resolution: time.Minute, Buckets: 180},
		{Resolution: time.Hour, Buckets: 168},
		{Resolution: 24 * time.Hour, Buckets: 3650},
	}
}

// ValidateLevels checks a retention ladder: at least one level, positive
// resolutions and capacities, strictly coarsening, and each resolution an
// exact multiple of the previous (so sealed buckets cascade into exactly one
// coarser bucket).
func ValidateLevels(levels []LevelSpec) error {
	if len(levels) == 0 {
		return fmt.Errorf("timeseries: no retention levels")
	}
	for i, l := range levels {
		if l.Resolution < time.Second {
			return fmt.Errorf("timeseries: level %d resolution %v: must be at least 1s", i, l.Resolution)
		}
		if l.Resolution%time.Second != 0 {
			return fmt.Errorf("timeseries: level %d resolution %v: must be a whole number of seconds", i, l.Resolution)
		}
		if l.Buckets <= 0 {
			return fmt.Errorf("timeseries: level %d retains %d buckets: must be positive", i, l.Buckets)
		}
		if i > 0 {
			prev := levels[i-1].Resolution
			if l.Resolution <= prev {
				return fmt.Errorf("timeseries: level %d resolution %v: must be coarser than %v", i, l.Resolution, prev)
			}
			if l.Resolution%prev != 0 {
				return fmt.Errorf("timeseries: level %d resolution %v: must be a multiple of %v", i, l.Resolution, prev)
			}
		}
	}
	return nil
}

// level is one resolution of a series: a ring of sealed buckets plus the
// open (current) bucket.
type level struct {
	res    int64 // bucket width in seconds
	cap    int   // sealed buckets retained
	sealed []Bucket
	head   int // ring start index in sealed
	cur    *Bucket
}

// push appends a sealed bucket, evicting the oldest when the ring is full.
func (l *level) push(b Bucket) {
	if len(l.sealed) < l.cap {
		l.sealed = append(l.sealed, b)
		return
	}
	l.sealed[l.head] = b
	l.head = (l.head + 1) % l.cap
}

// popNewest removes and returns the newest sealed bucket iff its window is
// start. Used by the cascade to reopen a merge-carried bucket instead of
// creating a duplicate-start twin; rare, so the O(cap) ring rebuild is fine.
func (l *level) popNewest(start int64) (*Bucket, bool) {
	n := len(l.sealed)
	if n == 0 {
		return nil, false
	}
	newest := l.sealed[(l.head+n-1)%n]
	if newest.Start != start {
		return nil, false
	}
	all := l.chronological()
	l.sealed = all[:n-1]
	l.head = 0
	return &newest, true
}

// chronological returns the sealed buckets oldest-first.
func (l *level) chronological() []Bucket {
	out := make([]Bucket, 0, len(l.sealed))
	for i := 0; i < len(l.sealed); i++ {
		out = append(out, l.sealed[(l.head+i)%len(l.sealed)])
	}
	return out
}

// align returns the bucket start covering t at this level's resolution.
func (l *level) align(unix int64) int64 {
	a := unix - unix%l.res
	if unix < 0 && unix%l.res != 0 {
		a -= l.res
	}
	return a
}

// Series is one metric at every configured resolution.
type Series struct {
	levels []*level
}

// newSeries builds an empty series over the given (validated) ladder.
func newSeries(specs []LevelSpec) *Series {
	s := &Series{}
	for _, sp := range specs {
		s.levels = append(s.levels, &level{res: int64(sp.Resolution / time.Second), cap: sp.Buckets})
	}
	return s
}

// Record folds one value into the series at time t. Points are expected in
// roughly arrival order; a point older than the open finest bucket is clamped
// into it rather than rewriting sealed history (the recorder's clock is the
// authority, and sealed buckets are immutable by design).
func (s *Series) Record(t time.Time, v float64) {
	lv := s.levels[0]
	start := lv.align(t.Unix())
	switch {
	case lv.cur == nil:
		lv.cur = &Bucket{Start: start}
	case start > lv.cur.Start:
		s.seal(0)
		lv.cur = &Bucket{Start: start}
	}
	lv.cur.observe(v)
}

// seal pushes level li's open bucket onto its ring and cascades it into the
// next coarser level.
func (s *Series) seal(li int) {
	lv := s.levels[li]
	b := *lv.cur
	lv.cur = nil
	lv.push(b)
	if li+1 < len(s.levels) {
		s.cascade(li+1, b)
	}
}

// cascade folds one sealed finer bucket into level li's open bucket, sealing
// it first when the finer bucket starts a new coarse window.
func (s *Series) cascade(li int, fine Bucket) {
	lv := s.levels[li]
	start := lv.align(fine.Start)
	switch {
	case lv.cur == nil:
		// A timeline merge may have sealed a carried bucket for this very
		// window; reopen it instead of opening a twin, so bucket starts
		// stay unique per level.
		if b, ok := lv.popNewest(start); ok {
			lv.cur = b
		} else {
			lv.cur = &Bucket{Start: start}
		}
	case start > lv.cur.Start:
		s.seal(li)
		lv.cur = &Bucket{Start: start}
	}
	lv.cur.absorb(fine)
}

// Buckets returns the retained buckets at the given resolution (sealed plus
// the open one), oldest first, filtered to start times in [from, to); zero
// bounds are open. The second result is false when the series has no level at
// that resolution.
//
// Coarser levels lag the finest by design: values still in a finer level's
// open bucket have not cascaded up yet. Readers wanting the exact tail read
// the finest resolution.
func (s *Series) Buckets(res time.Duration, from, to int64) ([]Bucket, bool) {
	sec := int64(res / time.Second)
	for _, lv := range s.levels {
		if lv.res != sec {
			continue
		}
		all := lv.chronological()
		if lv.cur != nil {
			all = append(all, *lv.cur)
		}
		out := make([]Bucket, 0, len(all))
		for _, b := range all {
			if from != 0 && b.Start < from {
				continue
			}
			if to != 0 && b.Start >= to {
				continue
			}
			out = append(out, b)
		}
		return out, true
	}
	return nil, false
}

// merge folds other's buckets into s, level by level: the union of both
// bucket sets, buckets with equal start times combined. Used when two
// campaign timelines merge; both series must share the same ladder. The
// result is trimmed to each level's capacity (newest buckets win).
//
// The subtlety is open buckets: an open bucket's content has not been
// cascaded into the next coarser level yet, and at most one bucket per level
// can stay open after the merge (the newest, so recording continues
// seamlessly). Every bucket that loses its openness is therefore *carried*:
// its content is folded into the next coarser level explicitly, and keeps
// carrying upward until it lands in a bucket that is still open (from which
// the normal cascade takes over) or falls off the ladder. That keeps the
// merged series exactly the union of both histories at every resolution —
// nothing sealed-without-cascade, nothing counted twice.
func (s *Series) merge(other *Series) {
	// carry holds content not yet reflected at the current level: buckets
	// that were open one level below and did not remain open.
	var carry []Bucket
	for li, lv := range s.levels {
		ol := other.levels[li]
		sealed := mergeBuckets(lv.chronological(), ol.chronological())

		newestSealed := int64(-1)
		if len(sealed) > 0 {
			newestSealed = sealed[len(sealed)-1].Start
		}
		// The merged open bucket is the newer of the two inputs' open
		// buckets — unless a sealed bucket is newer still, in which case
		// openness is stale and every formerly-open bucket carries up.
		openStart := int64(-1)
		if lv.cur != nil {
			openStart = lv.cur.Start
		}
		if ol.cur != nil && ol.cur.Start > openStart {
			openStart = ol.cur.Start
		}
		if openStart <= newestSealed {
			openStart = -1
		}

		var nextCarry []Bucket
		var open *Bucket
		for _, in := range []*Bucket{lv.cur, ol.cur} {
			switch {
			case in == nil:
			case in.Start == openStart:
				if open == nil {
					b := *in
					open = &b
				} else {
					open.absorb(*in)
				}
			default:
				// Loses openness: seal it here and carry its (uncascaded)
				// content into the next coarser level.
				sealed = mergeBuckets(sealed, []Bucket{*in})
				nextCarry = append(nextCarry, *in)
			}
		}

		// Fold the content carried up from the level below. A carry landing
		// in the open bucket cascades normally from here on; one landing
		// sealed is still unreflected one level up and carries on. Carries
		// newer than the open window clamp into it (mirroring how Record
		// clamps time regressions) so their content keeps cascading.
		for _, c := range carry {
			b := c
			b.Start = lv.align(c.Start)
			if openStart >= 0 && b.Start >= openStart {
				open.absorb(b)
				continue
			}
			sealed = mergeBuckets(sealed, []Bucket{b})
			nextCarry = append(nextCarry, c)
		}
		carry = nextCarry

		lv.sealed = lv.sealed[:0]
		lv.head = 0
		lv.cur = open
		for _, b := range sealed {
			lv.push(b)
		}
	}
}

// mergeBuckets merges two chronological bucket lists, combining equal starts
// (b absorbed into a, so a's history counts as earlier on ties).
func mergeBuckets(a, b []Bucket) []Bucket {
	out := make([]Bucket, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].Start < b[j].Start):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j].Start < a[i].Start:
			out = append(out, b[j])
			j++
		default:
			c := a[i]
			c.absorb(b[j])
			out = append(out, c)
			i++
			j++
		}
	}
	return out
}

// Ecosystem series names maintained by the streaming engine. Per-pool share
// series are named PoolSeriesPrefix + the normalized pool name.
const (
	// SeriesSamples counts analyzed (distinct) sample arrivals.
	SeriesSamples = "samples"
	// SeriesKept counts dataset-membership arrivals; per-bucket
	// kept.Count / samples.Count is the windowed kept-rate.
	SeriesKept = "kept"
	// SeriesCampaigns gauges the live campaign-partition size.
	SeriesCampaigns = "campaigns"
	// SeriesXMR gauges the running priced-XMR total.
	SeriesXMR = "xmr"
	// PoolSeriesPrefix prefixes the per-pool kept-sample share counters.
	PoolSeriesPrefix = "pool:"
)

// Per-campaign timeline metric names.
const (
	// TimelineSamples counts the campaign's sample arrivals.
	TimelineSamples = "samples"
	// TimelineWallets counts first sightings of the campaign's wallets
	// (Sum over the retained window = distinct wallets observed).
	TimelineWallets = "wallets"
	// TimelineXMR sums priced-XMR deltas from completed wallet probes.
	TimelineXMR = "xmr"
)

// Store is the engine's set of longitudinal series: named ecosystem metrics,
// per-campaign timelines, and data-time yearly counters. Safe for concurrent
// use: reads take a shared lock and may run while the engine's collector is
// busy elsewhere; writes (recording, merging, restore) take the exclusive
// lock. The lock order relative to the engine is strictly engine-mutex →
// store-mutex; nothing here calls back into the engine.
type Store struct {
	mu sync.RWMutex
	// specs is set once by NewStore and immutable after (resolveTSQuery
	// reads it lock-free), so it is deliberately not annotated mu-guarded.
	specs     []LevelSpec
	series    map[string]*Series            //cryptolint:guardedby mu
	timelines map[string]map[string]*Series //cryptolint:guardedby mu
	years     map[int]int64                 //cryptolint:guardedby mu
}

// NewStore builds an empty store over the given retention ladder (nil =
// DefaultLevels). The ladder must satisfy ValidateLevels.
func NewStore(levels []LevelSpec) (*Store, error) {
	if levels == nil {
		levels = DefaultLevels()
	}
	if err := ValidateLevels(levels); err != nil {
		return nil, err
	}
	specs := make([]LevelSpec, len(levels))
	copy(specs, levels)
	return &Store{
		specs:     specs,
		series:    map[string]*Series{},
		timelines: map[string]map[string]*Series{},
		years:     map[int]int64{},
	}, nil
}

// Levels returns the store's retention ladder.
func (st *Store) Levels() []LevelSpec {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]LevelSpec, len(st.specs))
	copy(out, st.specs)
	return out
}

// HasResolution reports whether the ladder has a level at resolution d.
func (st *Store) HasResolution(d time.Duration) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, sp := range st.specs {
		if sp.Resolution == d {
			return true
		}
	}
	return false
}

// FinestResolution returns the ladder's finest bucket width.
func (st *Store) FinestResolution() time.Duration { return st.specs[0].Resolution }

// Record folds one value into the named ecosystem series, creating it on
// first use.
func (st *Store) Record(name string, t time.Time, v float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.series[name]
	if !ok {
		s = newSeries(st.specs)
		st.series[name] = s
	}
	s.Record(t, v)
}

// SeriesNames lists the ecosystem series, sorted.
func (st *Store) SeriesNames() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]string, 0, len(st.series))
	for name := range st.series {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Buckets reads one ecosystem series (see Series.Buckets). The second result
// is false when the series or the resolution does not exist.
func (st *Store) Buckets(name string, res time.Duration, from, to int64) ([]Bucket, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s, ok := st.series[name]
	if !ok {
		return nil, false
	}
	return s.Buckets(res, from, to)
}

// RecordTimeline folds one value into a campaign timeline metric, creating
// the timeline and the metric on first use. key is the campaign partition's
// stable component key.
func (st *Store) RecordTimeline(key, metric string, t time.Time, v float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	tl, ok := st.timelines[key]
	if !ok {
		tl = map[string]*Series{}
		st.timelines[key] = tl
	}
	s, ok := tl[metric]
	if !ok {
		s = newSeries(st.specs)
		tl[metric] = s
	}
	s.Record(t, v)
}

// MergeTimeline folds the timeline at src into the one at dst and removes
// src, used when two campaigns merge into one. Missing src is a no-op;
// missing dst is a plain rename.
func (st *Store) MergeTimeline(dst, src string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if dst == src {
		return
	}
	from, ok := st.timelines[src]
	if !ok {
		return
	}
	delete(st.timelines, src)
	to, ok := st.timelines[dst]
	if !ok {
		st.timelines[dst] = from
		return
	}
	for _, metric := range sortedKeys(from) {
		s, ok := to[metric]
		if !ok {
			to[metric] = from[metric]
			continue
		}
		s.merge(from[metric])
	}
}

// TimelineBuckets reads one campaign timeline metric.
func (st *Store) TimelineBuckets(key, metric string, res time.Duration, from, to int64) ([]Bucket, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	tl, ok := st.timelines[key]
	if !ok {
		return nil, false
	}
	s, ok := tl[metric]
	if !ok {
		return nil, false
	}
	return s.Buckets(res, from, to)
}

// RecordYear counts one kept sample under its data-time (first seen)
// calendar year; zero times are skipped, mirroring report.YearBuckets.
func (st *Store) RecordYear(t time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if t.IsZero() {
		return
	}
	st.years[t.Year()]++
}

// YearCount is one data-time calendar-year total.
type YearCount struct {
	Year    int
	Samples int64
}

// Years returns the per-calendar-year kept-sample counts, sorted by year.
func (st *Store) Years() []YearCount {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.yearsLocked()
}

// yearsLocked is Years for callers that already hold st.mu.
func (st *Store) yearsLocked() []YearCount {
	out := make([]YearCount, 0, len(st.years))
	for y, n := range st.years {
		out = append(out, YearCount{Year: y, Samples: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Year < out[j].Year })
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
