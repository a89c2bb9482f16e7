package core

import (
	"fmt"
	"strings"
	"time"

	"cryptomining/internal/ecosim"
	"cryptomining/internal/forums"
	"cryptomining/internal/intervention"
	"cryptomining/internal/model"
	"cryptomining/internal/pow"
	"cryptomining/internal/profit"
	"cryptomining/internal/report"
)

// Artefact is one regenerated table, figure or headline number of the
// paper's evaluation.
type Artefact struct {
	// Name identifies the artefact in benchmark and test names.
	Name string
	// File is the name cmd/paperrepro writes it under (and the golden file
	// name under testdata/paper).
	File string
	// Render rebuilds the dataset from the results and renders it as text.
	Render func() string
}

// Artefacts lists every artefact of the evaluation over one pipeline run, in
// the paper's order. It is the single list behind cmd/paperrepro (which
// writes it), the root benchmarks (which time it) and the golden test (which
// pins its bytes). The case-study timeline is listed only when the run
// recovered the Freebuf-like campaign.
func Artefacts(u *ecosim.Universe, res *Results) []Artefact {
	table := func(name, file string, build func(*Results) *report.Table) Artefact {
		return Artefact{Name: name, File: file, Render: func() string { return build(res).String() }}
	}
	out := []Artefact{
		{"Figure1ForumTrends", "figure1_forum_trends.txt", forumTrends},
		table("Table3DatasetSummary", "table3_dataset.txt", DatasetSummary),
		{"Table4CurrencyBreakdown", "table4_currencies.txt", func() string {
			return CurrencyBreakdown(res).String() + "\n" + SamplesPerYear(res).String()
		}},
		table("Table5MalwareReuse", "table5_malware_reuse.txt", MalwareReuse),
		table("Table6HostingDomains", "table6_hosting_domains.txt", func(r *Results) *report.Table { return HostingDomains(r, 20) }),
		{"Figure4CampaignCDF", "figure4_cdfs.txt", func() string { return campaignCDFs(res) }},
		table("Figure5PoolsPerCampaign", "figure5_pools_per_campaign.txt", PoolsPerCampaign),
		table("Table7PoolPopularity", "table7_pool_popularity.txt", PoolPopularityTable),
		table("Table8TopCampaigns", "table8_top_campaigns.txt", func(r *Results) *report.Table { return TopCampaignsTable(r, 10) }),
		table("Table9MiningTools", "table9_mining_tools.txt", MiningToolsTable),
		table("Table10Packers", "table10_packers.txt", PackersTable),
		table("Table11InfrastructureByProfit", "table11_infrastructure.txt", InfrastructureByProfit),
		table("Table12RelatedWork", "table12_related_work.txt", RelatedWorkTable),
		table("Table14TopWallets", "table14_top_wallets.txt", func(r *Results) *report.Table {
			return TopWalletsTable(r, profit.NewCollector(u.Pools, nil, u.Config.QueryTime), 10)
		}),
		table("Table15EmailsPerPool", "table15_emails_per_pool.txt", func(r *Results) *report.Table {
			return EmailsPerPool(r, func(endpoint string) string {
				host := endpoint
				if i := strings.LastIndex(host, ":"); i > 0 {
					host = host[:i]
				}
				if p, ok := u.Pools.PoolForDomain(host); ok {
					return p.Name
				}
				return ""
			})
		}),
	}
	if c := caseStudy(res); c != nil {
		out = append(out, Artefact{"Figure7PaymentTimeline", "figure7_payment_timeline.txt",
			func() string { return paymentTimeline(res, c.ID) }})
	}
	return append(out,
		Artefact{"ForkDieOffs", "fork_dieoffs.txt", func() string { return forkDieOffs(res) }},
		Artefact{"CirculatingShareEstimate", "headline_circulation_share.txt", func() string {
			return fmt.Sprintf("Headline estimate (§IV-B): %s XMR (%s USD) mined by malware = %.2f%% of circulating XMR at %s\n",
				model.FormatXMR(res.TotalXMR), model.FormatUSD(res.TotalUSD),
				res.CirculationShare*100, res.QueryTime.Format("2006-01-02"))
		}},
	)
}

// forumTrends renders Figure 1: the share of underground-forum mining
// threads per currency per year. It does not depend on the pipeline run.
func forumTrends() string {
	trend := forums.ComputeTrend(forums.Generate(forums.DefaultGeneratorConfig()))
	var b strings.Builder
	b.WriteString("Figure 1 — forum threads per currency per year (share of mining threads)\n")
	for _, c := range forums.TrackedCurrencies() {
		s := &report.Series{Name: string(c)}
		for _, y := range trend.Years() {
			s.Add(fmt.Sprintf("%d", y), trend.Share(y, c))
		}
		b.WriteString(s.String())
		b.WriteString("\n")
	}
	return b.String()
}

// campaignCDFs renders Figure 4 as the CDF values at fixed quantiles.
func campaignCDFs(res *Results) string {
	samples, wallets, earnings := CampaignCDFs(res)
	var b strings.Builder
	b.WriteString("Figure 4 — CDFs per campaign\n")
	for _, c := range []struct {
		name string
		cdf  []profit.CDFPoint
	}{{"samples", samples}, {"wallets", wallets}, {"earnings (XMR)", earnings}} {
		fmt.Fprintf(&b, "%s: %d campaigns\n", c.name, len(c.cdf))
		for _, q := range []float64{1, 10, 100, 1000, 10000} {
			fmt.Fprintf(&b, "  fraction <= %-7.0f : %.3f\n", q, profit.FractionAtOrBelow(c.cdf, q))
		}
	}
	return b.String()
}

// caseStudy returns the highest-earning campaign recovered from the
// Freebuf-like ground-truth campaign, or nil.
func caseStudy(res *Results) *model.Campaign {
	var best *model.Campaign
	for _, c := range res.Campaigns {
		for _, gt := range c.GroundTruthIDs {
			if gt == ecosim.FreebufCampaignID && (best == nil || c.XMRMined > best.XMRMined) {
				best = c
			}
		}
	}
	return best
}

// paymentTimeline renders Figures 6c/7/8: the case-study campaign's
// per-wallet payments around the PoW changes.
func paymentTimeline(res *Results, campaignID int) string {
	tl := BuildPaymentTimeline(res, campaignID, pow.ForkDates(pow.MoneroEpochs))
	var b strings.Builder
	fmt.Fprintf(&b, "Figures 6c/7/8 — payment timeline of the Freebuf-like campaign (C#%d)\n", campaignID)
	fmt.Fprintf(&b, "PoW changes: %v\n\n", tl.ForkDates)
	for _, w := range tl.Wallets {
		b.WriteString(tl.Series(w).String())
		b.WriteString("\n")
	}
	return b.String()
}

// forkDieOffs renders the §VI measurement: the share of campaigns that stop
// receiving payments at each Monero PoW change (the paper reports ~72%, ~89%
// and ~96% for the three forks).
func forkDieOffs(res *Results) string {
	var campaigns []intervention.CampaignPayments
	for _, cp := range res.Profits {
		var times []time.Time
		for _, p := range cp.Payments {
			times = append(times, p.Timestamp)
		}
		campaigns = append(campaigns, intervention.CampaignPayments{CampaignID: cp.Campaign.ID, Payments: times})
	}
	var b strings.Builder
	b.WriteString("§VI — campaigns that stop receiving payments at each Monero PoW change\n")
	for _, d := range intervention.MeasureForkDieOffs(campaigns, pow.ForkDates(pow.MoneroEpochs), 120*24*time.Hour) {
		fmt.Fprintf(&b, "fork %s: %d campaigns active before, %d after, %.0f%% ceased\n",
			d.Fork.Format("2006-01-02"), d.ActiveBefore, d.ActiveAfter, d.CeasedPercent)
	}
	return b.String()
}
