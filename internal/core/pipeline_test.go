package core

import (
	"testing"

	"cryptomining/internal/campaign"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/model"
	"cryptomining/internal/pow"
	"cryptomining/internal/profit"
)

// testUniverse and testResults are shared across the tests in this package:
// generating and running the pipeline once keeps the suite fast.
var (
	testUniverse = ecosim.Generate(ecosim.SmallConfig())
	testResults  = mustRun(testUniverse)
)

func mustRun(u *ecosim.Universe) *Results {
	p := NewFromUniverse(u)
	res, err := p.Run()
	if err != nil {
		panic(err)
	}
	return res
}

func TestPipelineKeepsMinersDropsNoise(t *testing.T) {
	res := testResults
	if len(res.MinerRecords) == 0 {
		t.Fatal("no miner records produced")
	}
	if len(res.Records) == 0 || len(res.Records) != len(res.MinerRecords)+len(res.AncillaryRecords) {
		t.Errorf("record split inconsistent: %d vs %d + %d",
			len(res.Records), len(res.MinerRecords), len(res.AncillaryRecords))
	}
	// Benign samples and stock tools must not be in the dataset.
	for _, rec := range res.Records {
		truth := testUniverse.SampleTruths[rec.SHA256]
		if !truth.Malicious {
			t.Errorf("non-malicious sample %s kept in the dataset", model.ShortHash(rec.SHA256))
		}
	}
	// The whitelisted stock tools are never kept even though AVs flag them.
	for _, tool := range testUniverse.OSINT.StockTools() {
		if o, ok := res.Outcomes[tool.SHA256]; ok && o.Kept {
			t.Errorf("whitelisted stock tool %s kept as malware", tool.Name)
		}
	}
}

func TestPipelineRecallOfGroundTruthMiners(t *testing.T) {
	res := testResults
	// Most ground-truth miner samples that reached the corpus should be
	// recovered as miners (stealthy campaigns may hide a few).
	total, recovered := 0, 0
	for _, c := range testUniverse.Campaigns {
		for _, h := range c.Samples {
			if _, ok := testUniverse.Corpus.Get(h); !ok {
				continue
			}
			total++
			if o, ok := res.Outcomes[h]; ok && o.Kept && o.Record.Type == model.TypeMiner {
				recovered++
			}
		}
	}
	if total == 0 {
		t.Fatal("no ground truth miners")
	}
	recall := float64(recovered) / float64(total)
	if recall < 0.80 {
		t.Errorf("miner recall = %.2f (%d/%d), want >= 0.80", recall, recovered, total)
	}
}

func TestPipelineWalletExtractionMatchesGroundTruth(t *testing.T) {
	res := testResults
	mismatches := 0
	checked := 0
	for _, c := range testUniverse.Campaigns {
		walletSet := map[string]bool{}
		for _, w := range c.Wallets {
			walletSet[w] = true
		}
		for _, h := range c.Samples {
			o, ok := res.Outcomes[h]
			if !ok || !o.Kept || !o.Record.HasIdentifier() {
				continue
			}
			checked++
			if !walletSet[o.Record.User] {
				mismatches++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no wallets checked")
	}
	if mismatches > checked/50 {
		t.Errorf("wallet mismatches = %d of %d", mismatches, checked)
	}
}

func TestPipelineCampaignAggregationQuality(t *testing.T) {
	res := testResults
	v := Validate(res.Campaigns)
	if v.CampaignsWithSamples == 0 {
		t.Fatal("no campaigns with ground truth")
	}
	if v.Purity() < 0.9 {
		t.Errorf("aggregation purity = %.2f, want >= 0.9 (merged: %d of %d)",
			v.Purity(), v.MergedCampaigns, v.CampaignsWithSamples)
	}
	// Splitting is expected (not every sample of a campaign shares features)
	// but the majority of ground-truth campaigns should map to few produced
	// campaigns.
	if v.GroundTruthSplit > v.GroundTruthTotal/2 {
		t.Errorf("split ground-truth campaigns = %d of %d", v.GroundTruthSplit, v.GroundTruthTotal)
	}
}

func TestPipelineProfitsMatchPoolGroundTruth(t *testing.T) {
	res := testResults
	if res.TotalXMR <= 0 || res.TotalUSD <= 0 {
		t.Fatalf("totals = %v XMR / %v USD", res.TotalXMR, res.TotalUSD)
	}
	// The recovered total must be close to (and not exceed by much) the
	// ground-truth total credited by the pool simulation.
	var groundTruth float64
	for _, c := range testUniverse.Campaigns {
		groundTruth += c.ExpectedXMR
	}
	if res.TotalXMR > groundTruth*1.05 {
		t.Errorf("recovered %v XMR exceeds ground truth %v", res.TotalXMR, groundTruth)
	}
	if res.TotalXMR < groundTruth*0.6 {
		t.Errorf("recovered %v XMR is far below ground truth %v", res.TotalXMR, groundTruth)
	}
	if res.CirculationShare <= 0 || res.CirculationShare > 0.2 {
		t.Errorf("circulation share = %v, outside plausible range", res.CirculationShare)
	}
}

func TestPipelineHeavyTailAndMoneroDominance(t *testing.T) {
	res := testResults
	// Monero campaigns dominate the earnings.
	currencyCampaigns := map[model.Currency]int{}
	for _, c := range res.Campaigns {
		for _, cur := range c.Currencies {
			currencyCampaigns[cur]++
		}
	}
	if currencyCampaigns[model.CurrencyMonero] <= currencyCampaigns[model.CurrencyBitcoin] {
		t.Errorf("Monero campaigns (%d) should outnumber Bitcoin (%d)",
			currencyCampaigns[model.CurrencyMonero], currencyCampaigns[model.CurrencyBitcoin])
	}
	// Top 10 campaigns take an outsized share.
	top := profit.TopCampaigns(res.Profits, 10)
	var topXMR float64
	for _, cp := range top {
		topXMR += cp.XMR
	}
	if topXMR < res.TotalXMR*0.4 {
		t.Errorf("top-10 share = %.2f of total, expected heavy tail", topXMR/res.TotalXMR)
	}
}

func TestPipelineCaseStudyRecovered(t *testing.T) {
	res := testResults
	// The Freebuf-like campaign should surface among the top campaigns and
	// carry its CNAME aliases.
	var freebuf *model.Campaign
	for _, c := range res.Campaigns {
		for _, gt := range c.GroundTruthIDs {
			if gt == ecosim.FreebufCampaignID {
				if freebuf == nil || c.XMRMined > freebuf.XMRMined {
					freebuf = c
				}
			}
		}
	}
	if freebuf == nil {
		t.Fatal("freebuf-like campaign not recovered")
	}
	if freebuf.XMRMined <= 0 {
		t.Error("freebuf-like campaign has no recovered earnings")
	}
	if len(freebuf.CNAMEs) == 0 {
		t.Error("freebuf-like campaign should carry CNAME aliases")
	}
	top := profit.TopCampaigns(res.Profits, 10)
	found := false
	for _, cp := range top {
		if cp.Campaign.ID == freebuf.ID {
			found = true
		}
	}
	if !found {
		t.Error("freebuf-like campaign should rank in the top 10")
	}
}

func TestPipelineResourceAndSourceCounts(t *testing.T) {
	res := testResults
	if res.CountsBySource[model.SourceVirusTotal] == 0 {
		t.Error("VirusTotal source count should be non-zero")
	}
	if res.CountsByResource[model.ResourceSandbox] == 0 || res.CountsByResource[model.ResourceNetwork] == 0 {
		t.Errorf("resource counts = %v", res.CountsByResource)
	}
	if res.Identifiers == 0 {
		t.Error("identifier count should be non-zero")
	}
}

func TestPipelineFeatureAblationReducesAggregation(t *testing.T) {
	// Identifier-only aggregation must produce at least as many campaigns as
	// the full feature set (fewer merges).
	u := testUniverse
	idOnly := campaign.Features{SameIdentifier: true}
	p := New(Config{
		Corpus:      u.Corpus,
		AV:          NewScannerAV(u.Scanner, u.SampleTruths, u.Config.QueryTime),
		Resolver:    nil,
		Zone:        u.Zone,
		OSINT:       u.OSINT,
		Pools:       u.Pools,
		Network:     u.Network,
		QueryTime:   u.Config.QueryTime,
		GroundTruth: u.GroundTruthBySample,
		Features:    &idOnly,
	})
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	full := testResults
	if len(res.Campaigns) < len(full.Campaigns) {
		t.Errorf("identifier-only campaigns = %d, full-feature campaigns = %d; ablation should not merge more",
			len(res.Campaigns), len(full.Campaigns))
	}
}

func TestPipelineNoCorpus(t *testing.T) {
	p := New(Config{})
	if _, err := p.Run(); err == nil {
		t.Error("running without a corpus should error")
	}
}

func TestValidateHelper(t *testing.T) {
	campaigns := []*model.Campaign{
		{ID: 1, Samples: []string{"a"}, GroundTruthIDs: []int{10}},
		{ID: 2, Samples: []string{"b"}, GroundTruthIDs: []int{10}},
		{ID: 3, Samples: []string{"c", "d"}, GroundTruthIDs: []int{11, 12}},
		{ID: 4}, // no samples -> ignored
	}
	v := Validate(campaigns)
	if v.CampaignsWithSamples != 3 || v.PureCampaigns != 2 || v.MergedCampaigns != 1 {
		t.Errorf("validation = %+v", v)
	}
	if v.GroundTruthTotal != 3 || v.GroundTruthSplit != 1 {
		t.Errorf("ground truth stats = %+v", v)
	}
	if v.Purity() < 0.66 || v.Purity() > 0.67 {
		t.Errorf("purity = %v", v.Purity())
	}
	if (ValidationStats{}).Purity() != 0 {
		t.Error("empty validation purity should be 0")
	}
}

func TestPipelineForkDieOff(t *testing.T) {
	// The §VI measurement: a large fraction of campaigns stop providing
	// valid shares after the April 2018 PoW change.
	res := testResults
	fork := model.Date(2018, 4, 6)
	activeBefore, activeAfter := 0, 0
	for _, cp := range res.Profits {
		if cp.FirstPayment.IsZero() || !cp.FirstPayment.Before(fork) {
			continue
		}
		activeBefore++
		if cp.LastPayment.After(fork.AddDate(0, 2, 0)) {
			activeAfter++
		}
	}
	if activeBefore == 0 {
		t.Skip("no campaigns active before the fork in this configuration")
	}
	ceased := float64(activeBefore-activeAfter) / float64(activeBefore)
	if ceased < 0.4 {
		t.Errorf("only %.0f%% of campaigns ceased after the PoW change; expected a large die-off", ceased*100)
	}
	_ = pow.MoneroEpochs
}
