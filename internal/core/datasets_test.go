package core

import (
	"slices"
	"strings"
	"testing"

	"cryptomining/internal/ecosim"
	"cryptomining/internal/model"
	"cryptomining/internal/pow"
	"cryptomining/internal/profit"
)

func TestDatasetSummaryTable(t *testing.T) {
	tbl := DatasetSummary(testResults)
	out := tbl.String()
	for _, want := range []string{"ALL EXECUTABLES", "Miner Binaries", "Ancillary Binaries", "VirusTotal", "Sandbox Analysis"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table III output missing %q", want)
		}
	}
}

func TestCurrencyBreakdownTable(t *testing.T) {
	tbl := CurrencyBreakdown(testResults)
	out := tbl.String()
	if !strings.Contains(out, string(model.CurrencyMonero)) {
		t.Error("Table IV should list XMR campaigns")
	}
	if !strings.Contains(out, string(model.CurrencyBitcoin)) {
		t.Error("Table IV should list BTC campaigns")
	}
	// Monero must rank first (most campaigns).
	lines := strings.Split(out, "\n")
	firstDataLine := lines[3]
	if !strings.HasPrefix(firstDataLine, string(model.CurrencyMonero)) {
		t.Errorf("first currency row = %q, want XMR", firstDataLine)
	}
}

func TestSamplesPerYearTable(t *testing.T) {
	tbl := SamplesPerYear(testResults)
	out := tbl.String()
	if !strings.Contains(out, "2017") || !strings.Contains(out, "TOTAL") {
		t.Errorf("Table IV (right) output:\n%s", out)
	}
	// XMR totals should exceed BTC totals (Monero dominance).
	xmrTotal, btcTotal := 0, 0
	for _, rec := range testResults.MinerRecords {
		switch rec.Currency {
		case model.CurrencyMonero:
			xmrTotal++
		case model.CurrencyBitcoin:
			btcTotal++
		}
	}
	if xmrTotal <= btcTotal {
		t.Errorf("XMR samples (%d) should outnumber BTC samples (%d)", xmrTotal, btcTotal)
	}
}

func TestMalwareReuseTable(t *testing.T) {
	tbl := MalwareReuse(testResults)
	if len(tbl.Rows) < 2 {
		t.Errorf("Table V rows = %d, want the pre-2014 reuse samples", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[1] != "2012" && row[1] != "2013" {
			t.Errorf("Table V row year = %q", row[1])
		}
	}
}

func TestHostingDomainsTable(t *testing.T) {
	tbl := HostingDomains(testResults, 10)
	if len(tbl.Rows) == 0 {
		t.Fatal("Table VI has no rows")
	}
	out := tbl.String()
	if !strings.Contains(out, "github.com") {
		t.Error("GitHub should appear among hosting domains")
	}
}

func TestCampaignCDFs(t *testing.T) {
	samples, wallets, earnings := CampaignCDFs(testResults)
	if len(samples) == 0 || len(wallets) == 0 || len(earnings) == 0 {
		t.Fatal("CDFs should be non-empty")
	}
	// Most campaigns earn little. The paper reports 99% of campaigns below
	// 100 XMR; at this reduced scale the synthetic ecosystem has
	// proportionally fewer dust campaigns, so assert the weaker shape
	// properties: a clear majority below 1,000 XMR and a heavy tail (the
	// maximum far above the median).
	if frac := profit.FractionAtOrBelow(earnings, 1000); frac < 0.55 {
		t.Errorf("fraction of campaigns below 1,000 XMR = %v, expected a clear majority", frac)
	}
	if frac := profit.FractionAtOrBelow(earnings, 100); frac < 0.2 {
		t.Errorf("fraction of campaigns below 100 XMR = %v, expected a substantial share", frac)
	}
	// CDFs end at 1.
	if samples[len(samples)-1].Fraction != 1 || earnings[len(earnings)-1].Fraction != 1 {
		t.Error("CDFs should reach 1.0")
	}
}

func TestPoolsPerCampaignTable(t *testing.T) {
	tbl := PoolsPerCampaign(testResults)
	if len(tbl.Rows) == 0 {
		t.Fatal("Figure 5 table empty")
	}
	out := tbl.String()
	if !strings.Contains(out, "pools") {
		t.Errorf("Figure 5 output:\n%s", out)
	}
}

func TestPoolPopularityTable(t *testing.T) {
	ranking := PoolPopularity(testResults)
	if len(ranking) < 3 {
		t.Fatalf("pool ranking = %d pools", len(ranking))
	}
	for i := 1; i < len(ranking); i++ {
		if ranking[i].XMR > ranking[i-1].XMR {
			t.Fatal("ranking not sorted")
		}
	}
	tbl := PoolPopularityTable(testResults)
	if !strings.Contains(tbl.String(), ranking[0].Pool) {
		t.Error("top pool missing from table")
	}

	// Pools with equal XMR rank by name, whatever order the per-pool map
	// iterates in.
	tied := &Results{Profits: []profit.CampaignProfit{{Payments: []model.Payment{
		{Pool: "pool-e", Wallet: "w1", Amount: 1},
		{Pool: "pool-c", Wallet: "w2", Amount: 1},
		{Pool: "pool-top", Wallet: "w3", Amount: 5},
		{Pool: "pool-a", Wallet: "w4", Amount: 1},
		{Pool: "pool-d", Wallet: "w5", Amount: 1},
		{Pool: "pool-b", Wallet: "w6", Amount: 1},
	}}}}
	want := []string{"pool-top", "pool-a", "pool-b", "pool-c", "pool-d", "pool-e"}
	for i := 0; i < 20; i++ {
		var got []string
		for _, r := range PoolPopularity(tied) {
			got = append(got, r.Pool)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("call %d: tied pools ranked %v, want %v", i, got, want)
		}
	}
}

func TestTopCampaignsTable(t *testing.T) {
	tbl := TopCampaignsTable(testResults, 10)
	out := tbl.String()
	if !strings.Contains(out, "TOP-") || !strings.Contains(out, "ALL-") {
		t.Errorf("Table VIII output:\n%s", out)
	}
	if len(tbl.Rows) < 5 {
		t.Errorf("Table VIII rows = %d", len(tbl.Rows))
	}
}

func TestMiningToolsTable(t *testing.T) {
	tbl := MiningToolsTable(testResults)
	if len(tbl.Rows) == 0 {
		t.Fatal("Table IX empty — stock tool attribution produced nothing")
	}
	out := tbl.String()
	if !strings.Contains(out, "xmrig") && !strings.Contains(out, "claymore") {
		t.Errorf("Table IX should mention xmrig or claymore:\n%s", out)
	}
}

func TestPackersTable(t *testing.T) {
	tbl := PackersTable(testResults)
	out := tbl.String()
	if !strings.Contains(out, "UPX") {
		t.Error("Table X should include UPX")
	}
	if !strings.Contains(out, "Not packed") {
		t.Error("Table X should include the not-packed row")
	}
}

func TestInfrastructureByProfitTable(t *testing.T) {
	tbl := InfrastructureByProfit(testResults)
	out := tbl.String()
	for _, want := range []string{"#Campaigns", "PPI", "CNAMEs", "Proxies", "Start: 2017", "Years: 0", "ALL"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table XI missing %q", want)
		}
	}
}

func TestTopWalletsTable(t *testing.T) {
	u := testUniverse
	collector := profit.NewCollector(u.Pools, nil, u.Config.QueryTime)
	tbl := TopWalletsTable(testResults, collector, 10)
	if len(tbl.Rows) < 3 {
		t.Errorf("Table XIV rows = %d", len(tbl.Rows))
	}
}

func TestEmailsPerPoolTable(t *testing.T) {
	u := testUniverse
	poolFor := func(endpoint string) string {
		host := endpoint
		if i := strings.LastIndex(host, ":"); i > 0 {
			host = host[:i]
		}
		if p, ok := u.Pools.PoolForDomain(host); ok {
			return p.Name
		}
		return ""
	}
	tbl := EmailsPerPool(testResults, poolFor)
	out := tbl.String()
	if !strings.Contains(out, "minergate") {
		t.Errorf("Table XV should be dominated by minergate:\n%s", out)
	}
	if !strings.Contains(out, "TOTAL") {
		t.Error("Table XV should include a total row")
	}
}

func TestPaymentTimeline(t *testing.T) {
	// Find the recovered campaign for the Freebuf-like case study.
	var target *model.Campaign
	for _, c := range testResults.Campaigns {
		for _, gt := range c.GroundTruthIDs {
			if gt == ecosim.FreebufCampaignID && (target == nil || c.XMRMined > target.XMRMined) {
				target = c
			}
		}
	}
	if target == nil {
		t.Fatal("freebuf-like campaign not found")
	}
	tl := BuildPaymentTimeline(testResults, target.ID, pow.ForkDates(pow.MoneroEpochs))
	if len(tl.Wallets) == 0 {
		t.Fatal("timeline has no wallets")
	}
	if len(tl.ForkDates) != 3 {
		t.Errorf("fork dates = %d", len(tl.ForkDates))
	}
	s := tl.Series(tl.Wallets[0])
	if len(s.Points) == 0 {
		t.Error("wallet series empty")
	}
	// Months must be sorted.
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Label < s.Points[i-1].Label {
			t.Fatal("timeline months not sorted")
		}
	}
}

func TestRelatedWorkTable(t *testing.T) {
	tbl := RelatedWorkTable(testResults)
	out := tbl.String()
	if !strings.Contains(out, "Huang et al.") || !strings.Contains(out, "This reproduction") {
		t.Errorf("Table XII output:\n%s", out)
	}
}
