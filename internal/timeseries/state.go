package timeseries

import (
	"fmt"
	"time"
)

// State is the canonical serializable form of a Store. Every map is
// flattened into a sorted slice and every ring is unrolled chronologically,
// so the same contents always serialize to the same bytes — the property the
// engine's checkpoint/recovery path depends on for bit-identical resumes.
type State struct {
	// Levels is the retention ladder the series were recorded under.
	Levels []LevelSpecState
	// Series are the ecosystem series, sorted by name.
	Series []NamedSeriesState
	// Timelines are the per-campaign timelines, sorted by component key
	// (metrics sorted within each).
	Timelines []TimelineState
	// Years are the data-time yearly counters, sorted by year.
	Years []YearCount
}

// LevelSpecState is the serializable form of one LevelSpec.
type LevelSpecState struct {
	ResolutionSeconds int64
	Buckets           int
}

// NamedSeriesState is one serialized series.
type NamedSeriesState struct {
	Name string
	// Levels parallel the ladder; each holds the retained buckets oldest
	// first, with HasOpen marking whether the newest bucket was still open.
	Levels []LevelState
}

// LevelState is one serialized series level.
type LevelState struct {
	Buckets []Bucket
	HasOpen bool
}

// TimelineState is one serialized campaign timeline.
type TimelineState struct {
	Key     string
	Metrics []NamedSeriesState
}

// Export snapshots the store into its canonical state.
func (st *Store) Export() *State {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := &State{}
	for _, sp := range st.specs {
		out.Levels = append(out.Levels, LevelSpecState{
			ResolutionSeconds: int64(sp.Resolution / time.Second),
			Buckets:           sp.Buckets,
		})
	}
	for _, name := range sortedKeys(st.series) {
		out.Series = append(out.Series, exportSeries(name, st.series[name]))
	}
	for _, key := range sortedKeys(st.timelines) {
		tl := st.timelines[key]
		ts := TimelineState{Key: key}
		for _, metric := range sortedKeys(tl) {
			ts.Metrics = append(ts.Metrics, exportSeries(metric, tl[metric]))
		}
		out.Timelines = append(out.Timelines, ts)
	}
	out.Years = st.yearsLocked()
	return out
}

func exportSeries(name string, s *Series) NamedSeriesState {
	ns := NamedSeriesState{Name: name}
	for _, lv := range s.levels {
		ls := LevelState{Buckets: lv.chronological()}
		if lv.cur != nil {
			ls.Buckets = append(ls.Buckets, *lv.cur)
			ls.HasOpen = true
		}
		ns.Levels = append(ns.Levels, ls)
	}
	return ns
}

// Restore loads a previously exported state into an empty store. The state's
// retention ladder must match the store's configuration: recorded history
// cannot be re-bucketed, so resuming a state recorded under a different
// ladder is an explicit error rather than a silent reshape. A nil state
// restores nothing.
func (st *Store) Restore(state *State) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if state == nil {
		return nil
	}
	if len(st.series) != 0 || len(st.timelines) != 0 || len(st.years) != 0 {
		return fmt.Errorf("timeseries: restore into a non-empty store")
	}
	if len(state.Levels) != len(st.specs) {
		return fmt.Errorf("timeseries: state has %d retention levels, store configured with %d",
			len(state.Levels), len(st.specs))
	}
	for i, ls := range state.Levels {
		sp := st.specs[i]
		if ls.ResolutionSeconds != int64(sp.Resolution/time.Second) || ls.Buckets != sp.Buckets {
			return fmt.Errorf("timeseries: state level %d is %ds x %d, store configured with %v x %d",
				i, ls.ResolutionSeconds, ls.Buckets, sp.Resolution, sp.Buckets)
		}
	}
	for _, ns := range state.Series {
		s, err := st.restoreSeries(ns)
		if err != nil {
			return err
		}
		st.series[ns.Name] = s
	}
	for _, ts := range state.Timelines {
		tl := map[string]*Series{}
		for _, ns := range ts.Metrics {
			s, err := st.restoreSeries(ns)
			if err != nil {
				return err
			}
			tl[ns.Name] = s
		}
		st.timelines[ts.Key] = tl
	}
	for _, yc := range state.Years {
		st.years[yc.Year] = yc.Samples
	}
	return nil
}

func (st *Store) restoreSeries(ns NamedSeriesState) (*Series, error) {
	if len(ns.Levels) != len(st.specs) {
		return nil, fmt.Errorf("timeseries: series %q has %d levels, want %d", ns.Name, len(ns.Levels), len(st.specs))
	}
	s := newSeries(st.specs)
	for i, ls := range ns.Levels {
		lv := s.levels[i]
		if len(ls.Buckets) > lv.cap+1 {
			return nil, fmt.Errorf("timeseries: series %q level %d holds %d buckets, cap %d",
				ns.Name, i, len(ls.Buckets), lv.cap)
		}
		buckets := ls.Buckets
		if ls.HasOpen && len(buckets) > 0 {
			b := buckets[len(buckets)-1]
			lv.cur = &b
			buckets = buckets[:len(buckets)-1]
		}
		for _, b := range buckets {
			lv.push(b)
		}
	}
	return s, nil
}
