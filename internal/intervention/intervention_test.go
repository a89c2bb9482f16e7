package intervention

import (
	"testing"
	"time"

	"cryptomining/internal/pool"
	"cryptomining/internal/pow"
)

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// seededDirectory builds a directory where one wallet mines from many IPs
// (botnet) and another from a single IP (proxy-fronted).
func seededDirectory() *pool.Directory {
	dir := pool.NewDirectory(nil)
	mx, _ := dir.Get("minexmr")
	cp, _ := dir.Get("crypto-pool")
	// Botnet wallet: many IPs, mined at two pools (daily submissions so the
	// pools observe hundreds of distinct source addresses).
	mx.SimulateMining("4BOTNET", 500, 500*pow.TypicalVictimHashrate,
		date(2017, 1, 1), date(2018, 9, 1), 24*time.Hour, nil)
	cp.SimulateMining("4BOTNET", 500, 500*pow.TypicalVictimHashrate,
		date(2017, 1, 1), date(2018, 9, 1), 24*time.Hour, nil)
	// Proxy-fronted wallet: a single source IP.
	mx.SimulateMining("4PROXIED", 1, 500*pow.TypicalVictimHashrate,
		date(2017, 1, 1), date(2018, 9, 1), 24*time.Hour, nil)
	return dir
}

func TestReportWalletsCooperativeBansBotnet(t *testing.T) {
	dir := seededDirectory()
	at := date(2018, 9, 15)
	outcomes := ReportWalletsTo(dir.Pools(), []string{"4BOTNET", "4PROXIED", "4NEVER_SEEN"}, nil, at)

	byKey := map[string]ReportOutcome{}
	for _, o := range outcomes {
		byKey[o.Pool+"/"+o.Wallet] = o
	}
	// The botnet wallet is banned at both pools where it has activity.
	if o := byKey["minexmr/4BOTNET"]; !o.Banned || o.DistinctIPs < 100 {
		t.Errorf("minexmr/4BOTNET outcome = %+v, want banned", o)
	}
	if o := byKey["crypto-pool/4BOTNET"]; !o.Banned {
		t.Errorf("crypto-pool/4BOTNET outcome = %+v, want banned", o)
	}
	// The proxy-fronted wallet is below the connection threshold: declined.
	if o := byKey["minexmr/4PROXIED"]; o.Banned || o.Reason == "" {
		t.Errorf("minexmr/4PROXIED outcome = %+v, want declined with a reason", o)
	}
	// Never-seen wallets produce no outcomes.
	for k := range byKey {
		if k == "minexmr/4NEVER_SEEN" {
			t.Error("never-seen wallet should have no outcome")
		}
	}
	// Bans are effective at the pool.
	mx, _ := dir.Get("minexmr")
	if !mx.IsBanned("4BOTNET") {
		t.Error("4BOTNET should be banned at minexmr")
	}
	if mx.IsBanned("4PROXIED") {
		t.Error("4PROXIED should not be banned")
	}
}

func TestReportWalletsNonCooperative(t *testing.T) {
	dir := seededDirectory()
	never := func(string) PoolCooperation { return PoolCooperation{Cooperative: false} }
	outcomes := ReportWalletsTo(dir.Pools(), []string{"4BOTNET"}, never, date(2018, 9, 15))
	for _, o := range outcomes {
		if o.Banned {
			t.Errorf("non-cooperative pool banned a wallet: %+v", o)
		}
		if o.Reason == "" {
			t.Error("declined report should carry a reason")
		}
	}
	mx, _ := dir.Get("minexmr")
	if mx.IsBanned("4BOTNET") {
		t.Error("non-cooperative pool must not ban")
	}
}

func TestMeasureForkDieOffs(t *testing.T) {
	fork1 := date(2018, 4, 6)
	fork2 := date(2018, 10, 18)
	monthly := func(from, to time.Time) []time.Time {
		var out []time.Time
		for t := from; t.Before(to); t = t.AddDate(0, 1, 0) {
			out = append(out, t)
		}
		return out
	}
	campaigns := []CampaignPayments{
		// Dies at the first fork.
		{CampaignID: 1, Payments: monthly(date(2017, 6, 1), date(2018, 4, 1))},
		// Survives the first fork, dies at the second.
		{CampaignID: 2, Payments: monthly(date(2017, 6, 1), date(2018, 10, 1))},
		// Survives both.
		{CampaignID: 3, Payments: monthly(date(2017, 6, 1), date(2019, 3, 1))},
		// Starts only after the first fork.
		{CampaignID: 4, Payments: monthly(date(2018, 6, 1), date(2019, 1, 1))},
	}
	dieoffs := MeasureForkDieOffs(campaigns, []time.Time{fork1, fork2}, 90*24*time.Hour)
	if len(dieoffs) != 2 {
		t.Fatalf("dieoffs = %d", len(dieoffs))
	}
	d1 := dieoffs[0]
	if d1.ActiveBefore != 3 || d1.ActiveAfter != 2 {
		t.Errorf("fork1 die-off = %+v", d1)
	}
	if d1.CeasedPercent < 30 || d1.CeasedPercent > 40 {
		t.Errorf("fork1 ceased = %v%%", d1.CeasedPercent)
	}
	d2 := dieoffs[1]
	if d2.ActiveBefore != 3 || d2.ActiveAfter != 2 {
		t.Errorf("fork2 die-off = %+v", d2)
	}
	// Default window when zero.
	if got := MeasureForkDieOffs(campaigns, []time.Time{fork1}, 0); len(got) != 1 || got[0].ActiveBefore == 0 {
		t.Errorf("default window die-off = %+v", got)
	}
}

func BenchmarkMeasureForkDieOffs(b *testing.B) {
	var campaigns []CampaignPayments
	for i := 0; i < 1000; i++ {
		var times []time.Time
		for m := 0; m < 24; m++ {
			times = append(times, date(2017, 1, 1).AddDate(0, m, i%28))
		}
		campaigns = append(campaigns, CampaignPayments{CampaignID: i, Payments: times})
	}
	forks := pow.ForkDates(pow.MoneroEpochs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MeasureForkDieOffs(campaigns, forks, 90*24*time.Hour)
	}
}
