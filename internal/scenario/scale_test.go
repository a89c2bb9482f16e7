package scenario_test

import (
	"testing"

	"cryptomining/internal/model"
	"cryptomining/internal/scenario"
)

// TestReplayOverStreamedEcosystem replays a pool-ban scenario over a
// 10k-sample streamed ecosystem; the 100k acceptance-scale form of the same
// run is behind the scale build tag (scale_100k_test.go).
func TestReplayOverStreamedEcosystem(t *testing.T) {
	replayOverStreamedEcosystem(t, 10_000)
}

// replayOverStreamedEcosystem flows an n-sample streamed ecosystem into a
// live engine and requires a pool-ban scenario to replay to completion with
// non-empty deltas computed from the shadow timeseries stores, leaving the
// live engine untouched.
func replayOverStreamedEcosystem(t *testing.T, n int) {
	eng, cfg, clock := newStreamedEngine(t, 1234, n)
	m := newManager(t, eng, cfg, clock)

	beforeState, beforeView, beforeSeries, _ := liveSnapshot(t, eng)

	job := runScenario(t, m, scenario.Document{
		Name: "ban-at-scale",
		Interventions: []scenario.Intervention{{
			Kind:        scenario.KindPoolBan,
			At:          model.Date(2014, 1, 1),
			Cooperation: map[string]scenario.Cooperation{"*": {Cooperative: true, MinIPsToBan: 1}},
		}},
	})
	res := job.Result
	if res.Baseline.XMR <= 0 || res.Scenario.XMR >= res.Baseline.XMR {
		t.Fatalf("scale replay produced no reduction: baseline=%v scenario=%v",
			res.Baseline.XMR, res.Scenario.XMR)
	}
	if len(res.Campaigns) == 0 || len(res.Ecosystem) == 0 {
		t.Fatalf("scale replay produced empty deltas: %d campaigns, %d series",
			len(res.Campaigns), len(res.Ecosystem))
	}
	timelines := 0
	for _, cd := range res.Campaigns {
		if len(cd.Timeline) > 0 {
			timelines++
		}
	}
	if timelines == 0 {
		t.Fatalf("no campaign delta carries a timeline from the shadow store")
	}

	afterState, afterView, afterSeries, _ := liveSnapshot(t, eng)
	if string(beforeState) != string(afterState) ||
		string(beforeView) != string(afterView) ||
		string(beforeSeries) != string(afterSeries) {
		t.Fatalf("scale replay leaked into the live engine")
	}
}
