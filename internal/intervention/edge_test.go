package intervention

import (
	"testing"
	"time"

	"cryptomining/internal/model"
	"cryptomining/internal/pool"
)

func edgeDate(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

func TestMeasureForkDieOffsEmptyAndNoPayments(t *testing.T) {
	forks := []time.Time{edgeDate(2018, 4, 6)}
	out := MeasureForkDieOffs(nil, forks, 0)
	if len(out) != 1 || out[0].ActiveBefore != 0 || out[0].CeasedPercent != 0 {
		t.Fatalf("empty campaign set: %+v", out)
	}
	out = MeasureForkDieOffs([]CampaignPayments{{CampaignID: 1}}, forks, 0)
	if out[0].ActiveBefore != 0 || out[0].ActiveAfter != 0 {
		t.Fatalf("campaign with no payments counted as active: %+v", out[0])
	}
}

func TestMeasureForkDieOffsOverlappingWindows(t *testing.T) {
	// Two forks 30 days apart with a 90-day window: the windows overlap, and
	// one payment stream may count as active (or surviving) at both forks.
	f1 := edgeDate(2018, 4, 1)
	f2 := edgeDate(2018, 5, 1)
	window := 90 * 24 * time.Hour

	campaigns := []CampaignPayments{
		// Pays continuously across both forks: survives both.
		{CampaignID: 1, Payments: []time.Time{edgeDate(2018, 3, 15), edgeDate(2018, 4, 15), edgeDate(2018, 5, 15)}},
		// Dies at the first fork: its last payment (Mar 20) is inside both
		// forks' before-windows, so it counts active-before at both and
		// surviving at neither.
		{CampaignID: 2, Payments: []time.Time{edgeDate(2018, 3, 1), edgeDate(2018, 3, 20)}},
		// Starts between the forks: invisible to f1's before-window, active
		// at f2 only through its April payment, survives f2.
		{CampaignID: 3, Payments: []time.Time{edgeDate(2018, 4, 20), edgeDate(2018, 6, 1)}},
	}
	out := MeasureForkDieOffs(campaigns, []time.Time{f1, f2}, window)
	if len(out) != 2 {
		t.Fatalf("expected 2 fork summaries, got %d", len(out))
	}
	if out[0].ActiveBefore != 2 || out[0].ActiveAfter != 1 {
		t.Fatalf("fork 1: active=%d surviving=%d, want 2/1", out[0].ActiveBefore, out[0].ActiveAfter)
	}
	if out[0].CeasedPercent != 50 {
		t.Fatalf("fork 1 ceased%% = %v, want 50", out[0].CeasedPercent)
	}
	if out[1].ActiveBefore != 3 || out[1].ActiveAfter != 2 {
		t.Fatalf("fork 2: active=%d surviving=%d, want 3/2", out[1].ActiveBefore, out[1].ActiveAfter)
	}
}

func TestMeasureForkDieOffsPaymentExactlyAtFork(t *testing.T) {
	fork := edgeDate(2018, 4, 6)
	campaigns := []CampaignPayments{
		// A payment exactly at the fork instant belongs to the surviving
		// window [fork, fork+window), not the before-window.
		{CampaignID: 1, Payments: []time.Time{edgeDate(2018, 3, 1), fork}},
	}
	out := MeasureForkDieOffs(campaigns, []time.Time{fork}, 0)
	if out[0].ActiveBefore != 1 || out[0].ActiveAfter != 1 {
		t.Fatalf("boundary payment misclassified: %+v", out[0])
	}
}

func TestReportWalletsToPerPoolCooperation(t *testing.T) {
	coopPool := pool.New("coop", []string{"coop.example"}, model.CurrencyMonero, pool.DefaultPolicy(), nil)
	deafPool := pool.New("deaf", []string{"deaf.example"}, model.CurrencyMonero, pool.DefaultPolicy(), nil)
	start, end := edgeDate(2018, 1, 1), edgeDate(2018, 6, 1)
	for _, p := range []*pool.Pool{coopPool, deafPool} {
		p.SimulateMining("botnet-wallet", 500, 100000, start, end, 24*time.Hour, nil)
		p.SimulateMining("proxy-wallet", 1, 100000, start, end, 24*time.Hour, nil)
	}

	coopFor := func(name string) PoolCooperation {
		if name == "deaf" {
			return PoolCooperation{Cooperative: false}
		}
		return PoolCooperation{Cooperative: true, MinIPsToBan: 100}
	}
	out := ReportWalletsTo([]*pool.Pool{coopPool, deafPool},
		[]string{"botnet-wallet", "proxy-wallet", "never-seen"}, coopFor, end)

	got := map[string]ReportOutcome{}
	for _, o := range out {
		got[o.Pool+"/"+o.Wallet] = o
	}
	if len(out) != 4 {
		t.Fatalf("expected 4 outcomes (never-seen skipped per pool), got %d: %+v", len(out), out)
	}
	if !got["coop/botnet-wallet"].Banned {
		t.Fatalf("cooperative pool did not ban the botnet wallet: %+v", got["coop/botnet-wallet"])
	}
	if got["coop/proxy-wallet"].Banned {
		t.Fatalf("proxy-fronted wallet banned despite low connection count")
	}
	if got["deaf/botnet-wallet"].Banned {
		t.Fatalf("non-cooperative pool acted on a report")
	}
	if got["deaf/botnet-wallet"].Reason == "" {
		t.Fatalf("non-cooperative decline carries no reason")
	}
}
