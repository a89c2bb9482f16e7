package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"cryptomining/internal/intervention"
	"cryptomining/internal/pow"
	"cryptomining/internal/stream"
	"cryptomining/internal/timeseries"
)

// Totals is one side's ecosystem summary, read from the engine counters.
type Totals struct {
	XMR       float64
	USD       float64
	Campaigns int64
	Wallets   int64
	Kept      int64
}

// BucketDelta is one instant of a baseline-vs-scenario series comparison.
// For gauge series (ecosystem priced XMR) the values are the carried-forward
// gauge readings; for campaign timelines they are cumulative earned XMR.
type BucketDelta struct {
	Start    int64
	Baseline float64
	Scenario float64
	Delta    float64
}

// SeriesDelta is one named series' baseline-vs-scenario comparison. Series
// whose two sides are identical are omitted from results entirely.
type SeriesDelta struct {
	Metric string
	Points []BucketDelta
}

// CampaignDelta compares one campaign's earnings across the two worlds.
type CampaignDelta struct {
	ID          int
	BaselineXMR float64
	ScenarioXMR float64
	DeltaXMR    float64
	BaselineUSD float64
	ScenarioUSD float64
	DeltaUSD    float64
	// Timeline is the cumulative-XMR comparison over the campaign's
	// timeline series (nil when the two sides are identical).
	Timeline []BucketDelta
}

// AppliedIntervention records what one intervention actually did during the
// replay.
type AppliedIntervention struct {
	Kind Kind
	At   time.Time
	// ReplayInstant is the shadow recording-clock instant the intervention's
	// ledger deltas were recorded at.
	ReplayInstant time.Time
	// AffectedWallets lists the wallets whose ledgers changed, sorted.
	AffectedWallets []string
	// RemovedXMR is the total retracted across pools by this intervention.
	RemovedXMR float64
	// Outcomes carries the per-pool report outcomes of a pool_ban.
	Outcomes []intervention.ReportOutcome
	// CeasedCampaigns lists campaigns judged dead by an av_rollout or
	// pow_fork, sorted.
	CeasedCampaigns []int
}

// Result is a completed scenario replay: both worlds' totals, the per-
// campaign and per-series deltas, and the intervention audit trail.
type Result struct {
	Doc Document
	// ForkedAt is the live recording-clock instant the shadow was forked at;
	// replay-side series points land strictly after it.
	ForkedAt time.Time
	Baseline Totals
	Scenario Totals
	// Campaigns lists every baseline campaign whose earnings changed,
	// largest XMR reduction first.
	Campaigns []CampaignDelta
	// Ecosystem compares the ecosystem-wide series (currently the priced-XMR
	// gauge); empty when the two sides are identical.
	Ecosystem []SeriesDelta
	Applied   []AppliedIntervention
}

// replayClock is the shadow's recording clock: it starts at the live
// recording clock's fork instant and is advanced explicitly by the replay,
// one tick per intervention, so every intervention's ledger deltas land in
// their own series buckets on the same wall-epoch grid as the live store.
type replayClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *replayClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *replayClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// runInput is everything a single replay needs, assembled by the Manager.
type runInput struct {
	doc   Document
	base  stream.Config
	state *stream.EngineState
	// forkedAt seeds the replay clock (the live recording clock's reading at
	// fork time).
	forkedAt time.Time
}

// replayTick is the shadow recording-clock step between interventions.
const replayTick = time.Second

// replay builds the shadow engine from the exported state and drives the
// scenario against it. It never touches the live engine.
func replay(in runInput) (*Result, error) {
	if err := in.doc.Validate(); err != nil {
		return nil, err
	}
	if in.base.Pools == nil {
		return nil, fmt.Errorf("scenario: base configuration has no pool directory")
	}
	forked := in.base.Pools.Fork()
	clock := &replayClock{now: in.forkedAt}

	cfg := in.base
	cfg.Pools = forked
	cfg.Prober = nil  // pricing must read the forked ledgers synchronously
	cfg.Metrics = nil // never rebind live instruments to the shadow
	cfg.Logger = nil
	cfg.Clock = clock.Now

	shadow := stream.New(cfg)
	if err := shadow.RestoreState(in.state); err != nil {
		return nil, fmt.Errorf("scenario: restore shadow: %w", err)
	}
	if err := shadow.PrimeScenarioBaselines(); err != nil {
		return nil, fmt.Errorf("scenario: prime baselines: %w", err)
	}

	res := &Result{Doc: in.doc, ForkedAt: in.forkedAt}
	res.Baseline = totalsOf(shadow)
	baseView := shadow.CurrentView()
	baseEco := ecosystemSeries(shadow)
	baseTimelines := campaignTimelines(shadow, baseView)

	for _, iv := range in.doc.ordered() {
		instant := clock.Advance(replayTick)
		applied, err := apply(shadow, forked, baseView, iv)
		if err != nil {
			return nil, err
		}
		applied.ReplayInstant = instant
		if err := shadow.RepriceScenarioWallets(applied.AffectedWallets); err != nil {
			return nil, fmt.Errorf("scenario: reprice after %s: %w", iv.Kind, err)
		}
		res.Applied = append(res.Applied, applied)
	}

	res.Scenario = totalsOf(shadow)
	res.Campaigns = campaignDeltas(baseView, shadow.CurrentView(), baseTimelines, campaignTimelines(shadow, baseView))
	res.Ecosystem = ecosystemDeltas(baseEco, ecosystemSeries(shadow))
	return res, nil
}

func totalsOf(e *stream.Engine) Totals {
	s := e.Stats()
	return Totals{XMR: s.TotalXMR, USD: s.TotalUSD, Campaigns: s.Campaigns, Wallets: s.Wallets, Kept: s.Kept}
}

// ecosystemSeries snapshots the ecosystem priced-XMR gauge (nil before
// anything was priced).
func ecosystemSeries(e *stream.Engine) []timeseries.Bucket {
	snap, err := e.Timeseries(stream.TimeseriesQuery{Metric: timeseries.SeriesXMR})
	if err != nil || len(snap.Series) == 0 {
		return nil
	}
	return snap.Series[0].Buckets
}

// campaignTimelines snapshots every baseline campaign's cumulative-XMR
// timeline, keyed by campaign ID.
func campaignTimelines(e *stream.Engine, v *stream.View) map[int][]timeseries.Bucket {
	out := map[int][]timeseries.Bucket{}
	for _, c := range v.Campaigns {
		snap, ok, err := e.CampaignTimeline(c.ID, stream.TimeseriesQuery{Metric: timeseries.TimelineXMR})
		if err != nil || !ok || len(snap.Series) == 0 {
			continue
		}
		out[c.ID] = snap.Series[0].Buckets
	}
	return out
}

// campaignDeltas joins both worlds' campaign listings by ID and keeps the
// campaigns whose earnings changed, biggest reduction first.
func campaignDeltas(base, scen *stream.View, baseTL, scenTL map[int][]timeseries.Bucket) []CampaignDelta {
	scenByID := map[int]stream.CampaignView{}
	for _, c := range scen.Campaigns {
		scenByID[c.ID] = c
	}
	var out []CampaignDelta
	for _, b := range base.Campaigns {
		s := scenByID[b.ID]
		d := CampaignDelta{
			ID:          b.ID,
			BaselineXMR: b.XMR, ScenarioXMR: s.XMR, DeltaXMR: s.XMR - b.XMR,
			BaselineUSD: b.USD, ScenarioUSD: s.USD, DeltaUSD: s.USD - b.USD,
		}
		d.Timeline = cumulativeDelta(baseTL[b.ID], scenTL[b.ID])
		if d.DeltaXMR == 0 && d.DeltaUSD == 0 && d.Timeline == nil {
			continue
		}
		out = append(out, d)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].DeltaXMR < out[j].DeltaXMR })
	return out
}

func ecosystemDeltas(base, scen []timeseries.Bucket) []SeriesDelta {
	pts := gaugeDelta(base, scen)
	if pts == nil {
		return nil
	}
	return []SeriesDelta{{Metric: timeseries.SeriesXMR, Points: pts}}
}

// gaugeDelta walks the union of both sides' bucket starts, carrying each
// side's last gauge reading forward, so the baseline stays flat after the
// fork while the scenario drops. Returns nil when the sides are identical.
func gaugeDelta(base, scen []timeseries.Bucket) []BucketDelta {
	return diffBuckets(base, scen, func(b timeseries.Bucket) float64 { return b.Last }, true)
}

// cumulativeDelta compares running sums (total XMR earned so far on each
// side). Returns nil when the sides are identical.
func cumulativeDelta(base, scen []timeseries.Bucket) []BucketDelta {
	return diffBuckets(base, scen, func(b timeseries.Bucket) float64 { return b.Sum }, false)
}

// diffBuckets is the union-walk shared by both delta flavours: `value`
// extracts a bucket's reading, and `carry` selects gauge semantics (carry
// the last reading forward) versus accumulation (add readings up).
func diffBuckets(base, scen []timeseries.Bucket, value func(timeseries.Bucket) float64, carry bool) []BucketDelta {
	if len(base) == 0 && len(scen) == 0 {
		return nil
	}
	starts := map[int64]bool{}
	for _, b := range base {
		starts[b.Start] = true
	}
	for _, b := range scen {
		starts[b.Start] = true
	}
	order := make([]int64, 0, len(starts))
	for s := range starts {
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	byStart := func(bs []timeseries.Bucket) map[int64]float64 {
		m := make(map[int64]float64, len(bs))
		for _, b := range bs {
			m[b.Start] = value(b)
		}
		return m
	}
	bm, sm := byStart(base), byStart(scen)

	var out []BucketDelta
	var bCur, sCur float64
	changed := false
	for _, start := range order {
		if v, ok := bm[start]; ok {
			if carry {
				bCur = v
			} else {
				bCur += v
			}
		}
		if v, ok := sm[start]; ok {
			if carry {
				sCur = v
			} else {
				sCur += v
			}
		}
		d := BucketDelta{Start: start, Baseline: bCur, Scenario: sCur, Delta: sCur - bCur}
		if d.Delta != 0 {
			changed = true
		}
		out = append(out, d)
	}
	if !changed {
		return nil
	}
	return out
}

// normalizeFamilies lowercases and trims a family list for matching.
func normalizeFamilies(fams []string) map[string]bool {
	out := make(map[string]bool, len(fams))
	for _, f := range fams {
		f = strings.ToLower(strings.TrimSpace(f))
		if f != "" {
			out[f] = true
		}
	}
	return out
}

// campaignMatchesFamilies reports whether any of the campaign's attributed
// families (PPI botnets, stock tools, known operations) appears in the set.
func campaignMatchesFamilies(d stream.CampaignDetail, fams map[string]bool) bool {
	for _, group := range [][]string{d.PPIBotnets, d.StockTools, d.KnownOperations} {
		for _, f := range group {
			if fams[strings.ToLower(f)] {
				return true
			}
		}
	}
	return false
}

// maintainedAcrossForks reports whether a wallet's payment timestamps before
// the cutoff span more than one PoW epoch — evidence the operator shipped
// updated miners across at least one algorithm change.
func maintainedAcrossForks(epochs []pow.Epoch, payments []time.Time, cutoff time.Time) bool {
	algos := map[string]bool{}
	for _, t := range payments {
		if t.Before(cutoff) {
			algos[pow.AlgorithmAt(epochs, t)] = true
		}
	}
	return len(algos) > 1
}
