package scenario_test

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"cryptomining/internal/dnssim"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/model"
	"cryptomining/internal/scenario"
	"cryptomining/internal/stream"
	"cryptomining/internal/timeseries"
)

// logicalClock hands out a strictly increasing second per reading, making
// recorded series a pure function of event order.
type logicalClock struct{ c atomic.Int64 }

func (l *logicalClock) now() time.Time { return time.Unix(1_500_000_000+l.c.Add(1), 0).UTC() }

// newStreamedEngine ingests n samples from the streamed generator into a
// live engine and waits for quiescence. The generator's pool directory, DNS
// zone and AV ground truth back the engine, as they back cmd/bench's wide
// corpus: the samples are drawn first, so the directory knows every pool
// they mine at.
func newStreamedEngine(t *testing.T, seed int64, n int) (*stream.Engine, stream.Config, *logicalClock) {
	t.Helper()
	gen := ecosim.NewStream(ecosim.StreamConfig{Seed: seed, Ledger: true})
	samples := make([]*model.Sample, n)
	for i := range samples {
		samples[i] = gen.Next().Sample
	}
	clock := &logicalClock{}
	shards := 2
	if n > 10_000 {
		shards = 8
	}
	cfg := stream.Config{
		AV:        gen.AVProvider(),
		Resolver:  dnssim.NewResolver(gen.Zone()),
		Zone:      gen.Zone(),
		Pools:     gen.Pools(),
		Network:   gen.Network(),
		QueryTime: gen.QueryTime(),
		Shards:    shards,
		Clock:     clock.now,
	}
	eng := stream.New(cfg)
	ctx := context.Background()
	eng.Start(ctx)
	for i, s := range samples {
		if err := eng.Submit(ctx, s); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	waitQuiesced(t, eng, int64(n))
	return eng, cfg, clock
}

func waitQuiesced(t *testing.T, eng *stream.Engine, n int64) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for {
		st := eng.Stats()
		if st.Analyzed+st.Duplicates == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine did not quiesce: %d+%d != %d", st.Analyzed, st.Duplicates, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func newManager(t *testing.T, eng *stream.Engine, cfg stream.Config, clock *logicalClock) *scenario.Manager {
	t.Helper()
	m, err := scenario.NewManager(scenario.Config{
		Engine: eng,
		Base:   cfg,
		Now:    clock.now,
	})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func runScenario(t *testing.T, m *scenario.Manager, doc scenario.Document) scenario.Job {
	t.Helper()
	id, err := m.Submit(doc)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Generous budget: the 100k-sample scale replay can take minutes on a
	// loaded single-CPU CI box; a hung replay still fails, just slower.
	job, err := m.Wait(id, 10*time.Minute)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if job.State == scenario.StateFailed {
		t.Fatalf("scenario failed: %s", job.Error)
	}
	if job.State != scenario.StateDone {
		t.Fatalf("scenario did not finish: state=%s", job.State)
	}
	return job
}

func TestDocumentValidation(t *testing.T) {
	at := model.Date(2018, 1, 1)
	cases := []struct {
		name string
		doc  scenario.Document
	}{
		{"empty", scenario.Document{}},
		{"unknown kind", scenario.Document{Interventions: []scenario.Intervention{{Kind: "nuke", At: at}}}},
		{"zero time", scenario.Document{Interventions: []scenario.Intervention{{Kind: scenario.KindPoolBan}}}},
		{"seizure without wallets", scenario.Document{Interventions: []scenario.Intervention{{Kind: scenario.KindWalletSeizure, At: at}}}},
		{"rollout without families", scenario.Document{Interventions: []scenario.Intervention{{Kind: scenario.KindAVRollout, At: at}}}},
		{"blank wallet", scenario.Document{Interventions: []scenario.Intervention{{Kind: scenario.KindPoolBan, At: at, Wallets: []string{" "}}}}},
	}
	for _, tc := range cases {
		if err := tc.doc.Validate(); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
	ok := scenario.Document{Interventions: []scenario.Intervention{{Kind: scenario.KindPowFork, At: at}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid document rejected: %v", err)
	}
}

// liveSnapshot captures everything the isolation contract protects: the
// exported engine state (canonical bytes, wall-clock uptime zeroed), the
// published campaign view and the ecosystem series.
func liveSnapshot(t *testing.T, eng *stream.Engine) (state, view, series []byte, epoch uint64) {
	t.Helper()
	st := eng.ExportState()
	st.Counters.UptimeNanos = 0
	state, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	v := eng.CurrentView()
	view, err = json.Marshal(v.Campaigns)
	if err != nil {
		t.Fatalf("marshal view: %v", err)
	}
	snap, err := eng.Timeseries(stream.TimeseriesQuery{})
	if err != nil {
		t.Fatalf("timeseries: %v", err)
	}
	series, err = json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal series: %v", err)
	}
	return state, view, series, v.Epoch
}

func TestPoolBanScenarioDeltasAndIsolation(t *testing.T) {
	eng, cfg, clock := newStreamedEngine(t, 21, 1500)
	m := newManager(t, eng, cfg, clock)

	beforeState, beforeView, beforeSeries, beforeEpoch := liveSnapshot(t, eng)

	job := runScenario(t, m, scenario.Document{
		Name: "ban-everything",
		Interventions: []scenario.Intervention{{
			Kind:        scenario.KindPoolBan,
			At:          model.Date(2014, 1, 1),
			Cooperation: map[string]scenario.Cooperation{"*": {Cooperative: true, MinIPsToBan: 1}},
		}},
	})
	res := job.Result
	if res == nil {
		t.Fatalf("done job has no result")
	}
	if res.Baseline.XMR <= 0 {
		t.Fatalf("baseline priced no XMR — the streamed ledger never reached the shadow")
	}
	if res.Scenario.XMR >= res.Baseline.XMR {
		t.Fatalf("banning every wallet did not reduce earnings: baseline=%v scenario=%v",
			res.Baseline.XMR, res.Scenario.XMR)
	}
	if len(res.Campaigns) == 0 {
		t.Fatalf("no campaign deltas")
	}
	if res.Campaigns[0].DeltaXMR >= 0 {
		t.Fatalf("campaign deltas not sorted by reduction: first=%+v", res.Campaigns[0])
	}
	if len(res.Applied) != 1 || len(res.Applied[0].Outcomes) == 0 {
		t.Fatalf("pool-ban outcomes missing: %+v", res.Applied)
	}
	if len(res.Ecosystem) == 0 || len(res.Ecosystem[0].Points) == 0 {
		t.Fatalf("no ecosystem series delta")
	}
	last := res.Ecosystem[0].Points[len(res.Ecosystem[0].Points)-1]
	if last.Delta >= 0 {
		t.Fatalf("ecosystem %s delta should end negative, got %+v", timeseries.SeriesXMR, last)
	}

	afterState, afterView, afterSeries, afterEpoch := liveSnapshot(t, eng)
	if string(beforeState) != string(afterState) {
		t.Fatalf("scenario run mutated the live engine state")
	}
	if string(beforeView) != string(afterView) || beforeEpoch != afterEpoch {
		t.Fatalf("scenario run republished or mutated the live view")
	}
	if string(beforeSeries) != string(afterSeries) {
		t.Fatalf("scenario run perturbed the live timeseries")
	}
}

func TestWalletSeizureAndPowFork(t *testing.T) {
	eng, cfg, clock := newStreamedEngine(t, 33, 1200)
	m := newManager(t, eng, cfg, clock)

	// Seize the wallets of the highest-earning campaign.
	v := eng.CurrentView()
	var top *stream.CampaignView
	for i := range v.Campaigns {
		c := &v.Campaigns[i]
		if len(c.Wallets) == 0 {
			continue
		}
		if top == nil || c.XMR > top.XMR {
			top = c
		}
	}
	if top == nil || top.XMR <= 0 {
		t.Fatalf("no earning campaign to seize from")
	}
	job := runScenario(t, m, scenario.Document{
		Name: "seize-top",
		Interventions: []scenario.Intervention{{
			Kind:    scenario.KindWalletSeizure,
			At:      model.Date(2012, 1, 1),
			Wallets: top.Wallets,
		}},
	})
	res := job.Result
	if res.Scenario.XMR >= res.Baseline.XMR {
		t.Fatalf("seizing the top campaign's wallets changed nothing")
	}
	var found bool
	for _, cd := range res.Campaigns {
		if cd.ID == top.ID {
			found = true
			if cd.ScenarioXMR >= cd.BaselineXMR {
				t.Fatalf("seized campaign did not shrink: %+v", cd)
			}
		}
	}
	if !found {
		t.Fatalf("seized campaign %d missing from deltas", top.ID)
	}

	// A PoW fork: unmaintained campaigns (single-epoch payment histories)
	// die; the replay must complete and not increase earnings.
	fork := runScenario(t, m, scenario.Document{
		Name: "fork-2018",
		Interventions: []scenario.Intervention{{
			Kind: scenario.KindPowFork,
			At:   model.Date(2018, 4, 6),
		}},
	})
	fr := fork.Result
	if fr.Scenario.XMR > fr.Baseline.XMR {
		t.Fatalf("a fork increased earnings: %+v vs %+v", fr.Scenario, fr.Baseline)
	}
	if len(fr.Applied) != 1 {
		t.Fatalf("fork applied %d interventions", len(fr.Applied))
	}
}

func TestManagerRetentionEviction(t *testing.T) {
	eng, cfg, clock := newStreamedEngine(t, 5, 300)
	m, err := scenario.NewManager(scenario.Config{
		Engine: eng, Base: cfg, Now: clock.now, MaxRetained: 2,
	})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	doc := scenario.Document{Interventions: []scenario.Intervention{{
		Kind: scenario.KindPowFork, At: model.Date(2018, 4, 6),
	}}}
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := m.Submit(doc)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if _, err := m.Wait(id, time.Minute); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if got := len(m.Jobs()); got > 2 {
		t.Fatalf("retention cap leaked: %d jobs retained", got)
	}
	if _, err := m.Job(ids[0]); err == nil {
		t.Fatalf("oldest job survived eviction")
	}
	if _, err := m.Job("sc-999"); err == nil {
		t.Fatalf("unknown job id resolved")
	}
}
