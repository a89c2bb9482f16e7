package profit

import (
	"math"
	"testing"
	"time"

	"cryptomining/internal/exchange"
	"cryptomining/internal/model"
	"cryptomining/internal/pool"
	"cryptomining/internal/pow"
)

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// seededDirectory builds a pool directory with mining activity for a few
// wallets spread over several pools.
func seededDirectory() *pool.Directory {
	dir := pool.NewDirectory(nil)
	mine := func(poolName, wallet string, bots int, from, to time.Time) {
		p, _ := dir.Get(poolName)
		p.SimulateMining(wallet, bots, float64(bots)*pow.TypicalVictimHashrate, from, to, 7*24*time.Hour, nil)
	}
	// Big campaign: one wallet in two pools, long-lived.
	mine("crypto-pool", "4BIG_WALLET", 2000, date(2016, 6, 1), date(2018, 4, 1))
	mine("minexmr", "4BIG_WALLET", 2000, date(2016, 6, 1), date(2018, 4, 1))
	// Medium campaign: single pool.
	mine("dwarfpool", "4MEDIUM_WALLET", 300, date(2017, 1, 1), date(2017, 12, 1))
	// Small campaign, still active at query time.
	mine("supportxmr", "4SMALL_WALLET", 20, date(2019, 1, 1), date(2019, 4, 15))
	// Opaque-pool-only wallet (minergate): no public stats.
	mg, _ := dir.Get("minergate")
	mg.SimulateMining("miner@mail.ru", 50, 50*pow.TypicalVictimHashrate, date(2017, 1, 1), date(2017, 6, 1), 7*24*time.Hour, nil)
	return dir
}

func newAnalyzer() (*Analyzer, *pool.Directory) {
	dir := seededDirectory()
	c := NewCollector(dir, exchange.NewDefaultHistory(), date(2019, 4, 30))
	return NewAnalyzer(c), dir
}

func TestCollectWalletAcrossPools(t *testing.T) {
	a, _ := newAnalyzer()
	act := a.Collector.CollectWallet("4BIG_WALLET")
	if len(act.PerPool) != 2 {
		t.Fatalf("pools with activity = %d, want 2", len(act.PerPool))
	}
	if act.TotalXMR <= 0 || act.TotalUSD <= 0 {
		t.Errorf("totals = %v XMR / %v USD", act.TotalXMR, act.TotalUSD)
	}
	if len(act.Payments) == 0 {
		t.Error("payments should be collected")
	}
	for i := 1; i < len(act.Payments); i++ {
		if act.Payments[i].Timestamp.Before(act.Payments[i-1].Timestamp) {
			t.Fatal("payments not sorted by time")
		}
	}
	for _, p := range act.Payments {
		if p.USD <= 0 {
			t.Errorf("payment USD not converted: %+v", p)
		}
	}
	if len(act.Pools) != 2 || act.Pools[0] != "crypto-pool" || act.Pools[1] != "minexmr" {
		t.Errorf("pools = %v", act.Pools)
	}
}

func TestCollectWalletNoActivity(t *testing.T) {
	a, _ := newAnalyzer()
	act := a.Collector.CollectWallet("4NEVER_MINED")
	if len(act.PerPool) != 0 || act.TotalXMR != 0 {
		t.Errorf("unknown wallet activity = %+v", act)
	}
	// Opaque pools are invisible to the collector.
	actOpaque := a.Collector.CollectWallet("miner@mail.ru")
	if len(actOpaque.PerPool) != 0 {
		t.Errorf("minergate activity should be invisible: %+v", actOpaque)
	}
}

func TestCollectWalletsSkipsInactive(t *testing.T) {
	a, _ := newAnalyzer()
	acts := a.Collector.CollectWallets([]string{"4BIG_WALLET", "4NEVER_MINED", "", "4BIG_WALLET"})
	if len(acts) != 1 {
		t.Errorf("CollectWallets = %d entries, want 1", len(acts))
	}
}

func TestAnalyzeCampaignsFillsProfitFields(t *testing.T) {
	a, _ := newAnalyzer()
	campaigns := []*model.Campaign{
		{ID: 1, Wallets: []string{"4BIG_WALLET"}, Pools: []string{"crypto-pool"}},
		{ID: 2, Wallets: []string{"4MEDIUM_WALLET"}},
		{ID: 3, Wallets: []string{"4SMALL_WALLET"}},
		{ID: 4, Wallets: []string{"4NEVER_MINED"}},
	}
	profits := analyzeAll(a, campaigns)
	if len(profits) != 3 {
		t.Fatalf("campaigns with earnings = %d, want 3", len(profits))
	}
	// Sorted by earnings, the big campaign first.
	if profits[0].Campaign.ID != 1 {
		t.Errorf("top campaign = %d, want 1", profits[0].Campaign.ID)
	}
	if profits[0].XMR <= profits[1].XMR {
		t.Error("profits should be sorted descending")
	}
	// Campaign fields updated in place.
	if campaigns[0].XMRMined <= 0 || campaigns[0].USDEarned <= 0 || campaigns[0].PaymentCount == 0 {
		t.Errorf("campaign profit fields = %+v", campaigns[0])
	}
	if campaigns[3].XMRMined != 0 {
		t.Error("no-earnings campaign should have zero XMR")
	}
	// The big campaign used two pools; the medium one used one.
	if profits[0].PoolsUsed != 2 {
		t.Errorf("big campaign pools used = %d, want 2", profits[0].PoolsUsed)
	}
	// Activity: the small campaign mined until mid-April 2019 and the query
	// is 30 April 2019, so it is active; the big one stopped in 2018.
	var small, big *CampaignProfit
	for i := range profits {
		switch profits[i].Campaign.ID {
		case 1:
			big = &profits[i]
		case 3:
			small = &profits[i]
		}
	}
	if !small.ActiveAt {
		t.Error("small campaign should be active at query time")
	}
	if big.ActiveAt {
		t.Error("big campaign should not be active at query time")
	}
	if !campaigns[2].Active || campaigns[0].Active {
		t.Error("Active flags not propagated to campaigns")
	}
}

func TestTopCampaignsAndWallets(t *testing.T) {
	a, _ := newAnalyzer()
	campaigns := []*model.Campaign{
		{ID: 1, Wallets: []string{"4BIG_WALLET"}},
		{ID: 2, Wallets: []string{"4MEDIUM_WALLET"}},
		{ID: 3, Wallets: []string{"4SMALL_WALLET"}},
	}
	profits := analyzeAll(a, campaigns)
	top2 := TopCampaigns(profits, 2)
	if len(top2) != 2 || top2[0].XMR < top2[1].XMR {
		t.Errorf("TopCampaigns = %+v", top2)
	}
	topAll := TopCampaigns(profits, 100)
	if len(topAll) != len(profits) {
		t.Errorf("TopCampaigns(100) = %d", len(topAll))
	}

	wallets := []string{"4BIG_WALLET", "4MEDIUM_WALLET", "4SMALL_WALLET", "4NEVER_MINED"}
	topW := a.TopWallets(wallets, 2)
	if len(topW) != 2 || topW[0].Wallet != "4BIG_WALLET" {
		t.Errorf("TopWallets = %+v", topW)
	}
	if topW[0].XMR <= 0 || topW[0].USD <= 0 {
		t.Errorf("top wallet earnings = %+v", topW[0])
	}

	// Equal earners rank by wallet — both their order and which of them make
	// the cut — whatever order the map yields them in.
	dir := pool.NewDirectory(nil)
	p, _ := dir.Get("minexmr")
	tied := []string{"4TIE_C", "4TIE_A", "4TIE_D", "4TIE_B"}
	for _, w := range tied {
		p.SimulateMining(w, 100, 100*pow.TypicalVictimHashrate, date(2017, 1, 1), date(2017, 6, 1), 7*24*time.Hour, nil)
	}
	ta := NewAnalyzer(NewCollector(dir, exchange.NewDefaultHistory(), date(2019, 4, 30)))
	for range 20 {
		ties := ta.TopWallets(tied, 3)
		if len(ties) != 3 || ties[0].XMR != ties[2].XMR ||
			ties[0].Wallet != "4TIE_A" || ties[1].Wallet != "4TIE_B" || ties[2].Wallet != "4TIE_C" {
			t.Fatalf("TopWallets with ties = %+v", ties)
		}
	}
}

func TestCDF(t *testing.T) {
	cdf := CDF([]float64{1, 1, 2, 5, 10})
	if len(cdf) != 4 {
		t.Fatalf("CDF points = %d, want 4 distinct values", len(cdf))
	}
	if cdf[0].Value != 1 || math.Abs(cdf[0].Fraction-0.4) > 1e-9 {
		t.Errorf("first point = %+v", cdf[0])
	}
	last := cdf[len(cdf)-1]
	if last.Value != 10 || math.Abs(last.Fraction-1.0) > 1e-9 {
		t.Errorf("last point = %+v", last)
	}
	if got := FractionAtOrBelow(cdf, 2); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("FractionAtOrBelow(2) = %v", got)
	}
	if got := FractionAtOrBelow(cdf, 0.5); got != 0 {
		t.Errorf("FractionAtOrBelow(0.5) = %v", got)
	}
	if got := FractionAtOrBelow(cdf, 100); got != 1 {
		t.Errorf("FractionAtOrBelow(100) = %v", got)
	}
	if CDF(nil) != nil {
		t.Error("CDF(nil) should be nil")
	}
}

func TestPoolsPerCampaignHistogram(t *testing.T) {
	profits := []CampaignProfit{
		{XMR: 0.5, PoolsUsed: 1},
		{XMR: 50, PoolsUsed: 1},
		{XMR: 50000, PoolsUsed: 3},
		{XMR: 20000, PoolsUsed: 1},
		{XMR: 500, PoolsUsed: 2},
	}
	h := PoolsPerCampaignHistogram(profits)
	if h[model.BucketUnder1][1] != 1 {
		t.Errorf("<1 bucket = %v", h[model.BucketUnder1])
	}
	if h[model.BucketOver10K][3] != 1 || h[model.BucketOver10K][1] != 1 {
		t.Errorf(">=10k bucket = %v", h[model.BucketOver10K])
	}
	if h[model.Bucket100To1K][2] != 1 {
		t.Errorf("[100-1k) bucket = %v", h[model.Bucket100To1K])
	}
}

func TestCirculationShare(t *testing.T) {
	n := pow.NewMoneroNetwork()
	at := date(2019, 4, 30)
	supply := n.CirculatingSupply(at)
	share := CirculationShare(supply*0.044, n, at)
	if math.Abs(share-0.044) > 1e-9 {
		t.Errorf("share = %v, want 0.044", share)
	}
	if CirculationShare(1000, nil, at) <= 0 {
		t.Error("nil network should default and produce a positive share")
	}
	if CirculationShare(1000, n, date(2013, 1, 1)) != 0 {
		t.Error("share before launch should be 0")
	}
}

func TestMonthlyRate(t *testing.T) {
	profits := []CampaignProfit{
		{
			XMR:          120,
			FirstPayment: date(2018, 1, 1),
			LastPayment:  date(2019, 1, 1),
		},
	}
	rate := MonthlyRate(profits)
	if rate < 9 || rate > 11 {
		t.Errorf("monthly rate = %v, want ~10", rate)
	}
	if MonthlyRate(nil) != 0 {
		t.Error("empty profits should have zero rate")
	}
	if MonthlyRate([]CampaignProfit{{XMR: 10}}) != 0 {
		t.Error("profits without payment dates should have zero rate")
	}
}

func TestNewCollectorNilRates(t *testing.T) {
	dir := pool.NewDirectory(nil)
	c := NewCollector(dir, nil, date(2019, 4, 30))
	if c.Rates == nil {
		t.Error("nil rates should default")
	}
	// Collector without a directory returns empty activity.
	c2 := NewCollector(nil, nil, date(2019, 4, 30))
	if act := c2.CollectWallet("4X"); len(act.PerPool) != 0 {
		t.Errorf("no-directory activity = %+v", act)
	}
}

func BenchmarkAnalyzeCampaigns(b *testing.B) {
	a, _ := newAnalyzer()
	campaigns := []*model.Campaign{
		{ID: 1, Wallets: []string{"4BIG_WALLET"}},
		{ID: 2, Wallets: []string{"4MEDIUM_WALLET"}},
		{ID: 3, Wallets: []string{"4SMALL_WALLET"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeAll(a, campaigns)
	}
}

// analyzeAll runs AnalyzeCampaignWith over every campaign, the way the
// collector does per component, and returns the campaigns with earnings,
// highest first.
func analyzeAll(a *Analyzer, campaigns []*model.Campaign) []CampaignProfit {
	var out []CampaignProfit
	for _, c := range campaigns {
		if cp := AnalyzeCampaignWith(c, a.Collector.CollectWallet, a.Collector.QueryTime); cp.XMR > 0 {
			out = append(out, cp)
		}
	}
	return TopCampaigns(out, len(out))
}
