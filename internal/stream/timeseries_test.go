package stream_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cryptomining/internal/core"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/stream"
	"cryptomining/internal/timeseries"
)

// logicalClock hands out a strictly increasing second per reading, making
// the recorded series a pure function of the collector's event order.
type logicalClock struct{ c atomic.Int64 }

func (l *logicalClock) now() time.Time { return time.Unix(l.c.Add(1), 0).UTC() }

// frozenClock pins every reading to one instant, so a whole run lands in a
// single finest-level bucket (no ring eviction, whatever the corpus size).
func frozenClock() time.Time { return time.Unix(1_500_000_000, 0).UTC() }

// TestTimeseriesCrashRecoveryBitIdentical is the timeseries recovery
// criterion: a run interrupted by a state export/restore ("crash") must end
// with series byte-identical to an uninterrupted run's — same buckets, same
// timelines, same yearly breakdown. A deterministic clock and one shard make
// the two runs comparable event for event.
func TestTimeseriesCrashRecoveryBitIdentical(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	hashes := u.Corpus.Hashes()
	ctx := context.Background()
	mkCfg := func(clock func() time.Time) stream.Config {
		cfg := core.NewFromUniverse(u).StreamConfig()
		cfg.Shards = 1
		cfg.Clock = clock
		return cfg
	}
	feed := func(eng *stream.Engine, hs []string) {
		for _, h := range hs {
			s, _ := u.Corpus.Get(h)
			if err := eng.Submit(ctx, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	tsState := func(eng *stream.Engine) []byte {
		st := eng.ExportState()
		if st.Timeseries == nil {
			t.Fatal("no timeseries state exported")
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st.Timeseries); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Uninterrupted reference run.
	refClock := &logicalClock{}
	ref := stream.New(mkCfg(refClock.now))
	ref.Start(ctx)
	feed(ref, hashes)
	waitProcessed(t, ref, int64(len(hashes)))
	want := tsState(ref)

	// Crash run: half the feed, export ("checkpoint"), restore into a fresh
	// engine whose clock continues, feed the rest.
	crashClock := &logicalClock{}
	cut := len(hashes) / 2
	first := stream.New(mkCfg(crashClock.now))
	first.Start(ctx)
	feed(first, hashes[:cut])
	waitProcessed(t, first, int64(cut))

	st := first.ExportState()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var decoded stream.EngineState
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	second := stream.New(mkCfg(crashClock.now))
	if err := second.RestoreState(&decoded); err != nil {
		t.Fatal(err)
	}
	second.Start(ctx)
	feed(second, hashes[cut:])
	waitProcessed(t, second, int64(len(hashes)))

	if got := tsState(second); !bytes.Equal(got, want) {
		t.Fatal("crash/restore run's timeseries state differs from the uninterrupted run's")
	}

	// The query surface agrees too, at every configured resolution.
	for _, res := range []time.Duration{0, time.Minute, time.Hour} {
		a, err := ref.Timeseries(stream.TimeseriesQuery{Resolution: res})
		if err != nil {
			t.Fatal(err)
		}
		b, err := second.Timeseries(stream.TimeseriesQuery{Resolution: res})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("resolution %v: timeseries snapshots differ", res)
		}
	}
}

// TestTimeseriesAccounting checks the live series against the engine's own
// counters and campaign views: arrivals, keeps, the campaign/XMR gauges and
// the per-campaign timelines (which must follow partition merges, so every
// campaign's timeline accounts for all of its constituent samples).
func TestTimeseriesAccounting(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	ctx := context.Background()
	cfg := core.NewFromUniverse(u).StreamConfig()
	cfg.Clock = frozenClock
	eng := stream.New(cfg)
	eng.Start(ctx)
	for _, h := range u.Corpus.Hashes() {
		s, _ := u.Corpus.Get(h)
		if err := eng.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stats := eng.Stats()

	snap, err := eng.Timeseries(stream.TimeseriesQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.ResolutionSeconds != 1 {
		t.Errorf("default resolution = %ds, want 1s", snap.ResolutionSeconds)
	}
	sums := map[string]float64{}
	lasts := map[string]float64{}
	for _, s := range snap.Series {
		for _, b := range s.Buckets {
			sums[s.Name] += b.Sum
			lasts[s.Name] = b.Last
		}
	}
	if int64(sums[timeseries.SeriesSamples]) != stats.Analyzed {
		t.Errorf("samples series sums to %v, analyzed %d", sums[timeseries.SeriesSamples], stats.Analyzed)
	}
	if int64(sums[timeseries.SeriesKept]) != stats.Kept {
		t.Errorf("kept series sums to %v, kept %d", sums[timeseries.SeriesKept], stats.Kept)
	}
	if int(lasts[timeseries.SeriesCampaigns]) != len(res.Campaigns) {
		t.Errorf("campaigns gauge = %v, want %d", lasts[timeseries.SeriesCampaigns], len(res.Campaigns))
	}
	if lasts[timeseries.SeriesXMR] != stats.TotalXMR {
		t.Errorf("xmr gauge = %v, want %v", lasts[timeseries.SeriesXMR], stats.TotalXMR)
	}

	// Per-pool shares: at least one kept miner resolves to a directory pool,
	// and the pool shares never exceed the kept total.
	var poolTotal float64
	for name, sum := range sums {
		if strings.HasPrefix(name, timeseries.PoolSeriesPrefix) {
			poolTotal += sum
		}
	}
	if poolTotal == 0 {
		t.Error("no pool:* share series recorded")
	}
	if poolTotal > sums[timeseries.SeriesKept] {
		t.Errorf("pool shares sum to %v > kept %v", poolTotal, sums[timeseries.SeriesKept])
	}

	// Yearly breakdown: every campaign contributes a start year.
	var newTotal int
	for _, y := range snap.Years {
		newTotal += y.NewCampaigns
		if y.ActiveCampaigns < y.NewCampaigns {
			t.Errorf("year %d: active %d < new %d", y.Year, y.ActiveCampaigns, y.NewCampaigns)
		}
	}
	wantNew := 0
	for _, c := range res.Campaigns {
		if !c.FirstSeen.IsZero() {
			wantNew++
		}
	}
	if newTotal != wantNew {
		t.Errorf("yearly new-campaign total = %d, want %d", newTotal, wantNew)
	}

	// Per-campaign timelines account for every kept record attributed to the
	// campaign, even through partition merges. (Campaign membership lists
	// also carry hashes merely referenced by kept records — those never
	// arrived, so they record no timeline point.)
	wantArrivals := map[int]int64{}
	for _, rec := range res.Records {
		if c, ok := res.Aggregation.BySample[rec.SHA256]; ok {
			wantArrivals[c.ID]++
		}
	}
	for _, c := range res.Campaigns {
		tl, ok, err := eng.CampaignTimeline(c.ID, stream.TimeseriesQuery{})
		if err != nil || !ok {
			t.Fatalf("campaign %d timeline: ok=%v err=%v", c.ID, ok, err)
		}
		var arrivals int64
		for _, s := range tl.Series {
			if s.Name != timeseries.TimelineSamples {
				continue
			}
			for _, b := range s.Buckets {
				arrivals += b.Count
			}
		}
		if want := wantArrivals[c.ID]; arrivals != want {
			t.Errorf("campaign %d timeline records %d arrivals, want %d kept members", c.ID, arrivals, want)
		}
	}

	// Unknown campaign: not found, no error.
	if _, ok, err := eng.CampaignTimeline(999999, stream.TimeseriesQuery{}); ok || err != nil {
		t.Errorf("missing campaign: ok=%v err=%v", ok, err)
	}
}

func TestTimeseriesQueryValidation(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.05))
	cfg := core.NewFromUniverse(u).StreamConfig()
	eng := stream.New(cfg)
	eng.Start(context.Background())

	if _, err := eng.Timeseries(stream.TimeseriesQuery{Resolution: 7 * time.Second}); !errors.Is(err, stream.ErrUnknownResolution) {
		t.Errorf("unknown resolution: err = %v", err)
	}
	if _, err := eng.Timeseries(stream.TimeseriesQuery{Metric: "no-such-metric"}); !errors.Is(err, stream.ErrUnknownMetric) {
		t.Errorf("unknown metric: err = %v", err)
	}
	if _, _, err := eng.CampaignTimeline(1, stream.TimeseriesQuery{Metric: "bogus"}); !errors.Is(err, stream.ErrUnknownMetric) {
		t.Errorf("unknown timeline metric: err = %v", err)
	}

	// Known metrics answer an empty series before any data lands — series
	// materialize lazily, and a valid query must not flip from 400 to 200
	// mid-run.
	for _, metric := range []string{"samples", "kept", "campaigns", "xmr", "pool:minexmr"} {
		snap, err := eng.Timeseries(stream.TimeseriesQuery{Metric: metric})
		if err != nil {
			t.Errorf("known metric %q before data: err = %v", metric, err)
			continue
		}
		if len(snap.Series) != 1 || snap.Series[0].Name != metric {
			t.Errorf("known metric %q before data: series = %+v", metric, snap.Series)
		}
	}
	// A bare pool prefix is not a metric.
	if _, err := eng.Timeseries(stream.TimeseriesQuery{Metric: "pool:"}); !errors.Is(err, stream.ErrUnknownMetric) {
		t.Errorf("bare pool prefix: err = %v", err)
	}
}

// TestTimeseriesWindowUsesEngineClock pins that relative windows resolve
// against the engine's (injectable) recording clock, not the caller's wall
// clock — with a logical clock near the epoch, a wall-clock-based window
// would exclude everything — and that the window start aligns down to the
// bucket boundary so the open bucket holding the newest data is included.
func TestTimeseriesWindowUsesEngineClock(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.05))
	cfg := core.NewFromUniverse(u).StreamConfig()
	clock := &logicalClock{}
	cfg.Clock = clock.now
	eng := stream.New(cfg)
	ctx := context.Background()
	eng.Start(ctx)
	for _, h := range u.Corpus.Hashes() {
		s, _ := u.Corpus.Get(h)
		if err := eng.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	sum := func(q stream.TimeseriesQuery) float64 {
		t.Helper()
		snap, err := eng.Timeseries(q)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, b := range snap.Series[0].Buckets {
			total += b.Sum
		}
		return total
	}
	if total := sum(stream.TimeseriesQuery{Metric: "samples", Window: time.Hour}); total == 0 {
		t.Error("one-hour window on the engine clock excluded the recorded buckets")
	}
	// A window shorter than the elapsed part of the open minute bucket
	// must still include that bucket: From aligns down to its boundary.
	if total := sum(stream.TimeseriesQuery{Metric: "samples", Resolution: time.Minute, Window: time.Second}); total == 0 {
		t.Error("sub-bucket window filtered out the open bucket holding the newest data")
	}
}

// TestRestoreCheckpointWithoutSeries resumes a checkpoint that carries no
// series — what daemons that could run without the timeseries subsystem
// wrote — into a fresh engine. The sealed Results must equal the
// uninterrupted run's, and the series answer, recording from the restore on.
func TestRestoreCheckpointWithoutSeries(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	hashes := u.Corpus.Hashes()
	ctx := context.Background()
	mkEngine := func() *stream.Engine {
		cfg := core.NewFromUniverse(u).StreamConfig()
		cfg.Shards = 1
		cfg.Clock = frozenClock
		return stream.New(cfg)
	}
	feed := func(eng *stream.Engine, hs []string) {
		for _, h := range hs {
			s, _ := u.Corpus.Get(h)
			if err := eng.Submit(ctx, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	sealed := func(eng *stream.Engine) []any {
		r, err := eng.Finish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return []any{r.Outcomes, r.Records, r.Campaigns, r.Profits, r.Identifiers,
			r.TotalXMR, r.TotalUSD, r.CirculationShare, r.CountsBySource, r.CountsByResource}
	}

	ref := mkEngine()
	ref.Start(ctx)
	feed(ref, hashes)
	want := sealed(ref)

	cut := len(hashes) / 2
	first := mkEngine()
	first.Start(ctx)
	feed(first, hashes[:cut])
	waitProcessed(t, first, int64(cut))
	st := first.ExportState()
	// A ladder the engine does not run is refused, not reshaped.
	st.Timeseries.Levels[0].Buckets++
	if err := mkEngine().RestoreState(st); err == nil {
		t.Fatal("restored a checkpoint recorded under a different retention ladder")
	}
	st.Timeseries = nil
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var decoded stream.EngineState
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	second := mkEngine()
	if err := second.RestoreState(&decoded); err != nil {
		t.Fatal(err)
	}
	second.Start(ctx)
	feed(second, hashes[cut:])
	if got := sealed(second); !reflect.DeepEqual(got, want) {
		t.Fatal("sealed Results after restoring a series-less checkpoint differ from the uninterrupted run's")
	}

	snap, err := second.Timeseries(stream.TimeseriesQuery{Metric: timeseries.SeriesSamples})
	if err != nil {
		t.Fatal(err)
	}
	var recorded float64
	for _, b := range snap.Series[0].Buckets {
		recorded += b.Sum
	}
	if recorded != float64(len(hashes)-cut) {
		t.Errorf("samples series sums to %v after the restore, want the %d samples fed since", recorded, len(hashes)-cut)
	}
	if _, ok, err := second.CampaignTimeline(1, stream.TimeseriesQuery{}); err != nil || !ok {
		t.Errorf("CampaignTimeline(1) = ok %v, err %v", ok, err)
	}
}
