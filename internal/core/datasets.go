package core

import (
	"cmp"
	"fmt"
	"net/url"
	"slices"
	"strings"
	"time"

	"cryptomining/internal/model"
	"cryptomining/internal/profit"
	"cryptomining/internal/report"
)

// This file builds the datasets behind each table and figure of the paper's
// evaluation from a pipeline Results value. Every function returns a
// report.Table or report.Series so that the benchmark harness and the
// paperrepro command print the same rows the paper reports.

// DatasetSummary reproduces Table III: the number of miner and ancillary
// binaries, the per-source breakdown and the per-resource breakdown.
func DatasetSummary(res *Results) *report.Table {
	t := report.NewTable("Table III — dataset summary", "Category", "Type", "#Samples")
	t.AddRow("Summary", "ALL EXECUTABLES", fmt.Sprintf("%d", len(res.Records)))
	t.AddRow("", "Miner Binaries", fmt.Sprintf("%d", len(res.MinerRecords)))
	t.AddRow("", "Ancillary Binaries", fmt.Sprintf("%d", len(res.AncillaryRecords)))
	for _, src := range []model.Source{model.SourceVirusTotal, model.SourcePaloAlto, model.SourceHybridAnalysis, model.SourceVirusShare, model.SourceCrawler} {
		if n, ok := res.CountsBySource[src]; ok {
			t.AddRow("Sources", string(src), fmt.Sprintf("%d", n))
		}
	}
	for _, r := range []model.AnalysisResource{model.ResourceSandbox, model.ResourceNetwork, model.ResourceBinary} {
		if n, ok := res.CountsByResource[r]; ok {
			t.AddRow("Resources", string(r)+" Analysis", fmt.Sprintf("%d", n))
		}
	}
	return t
}

// CurrencyBreakdown reproduces the left side of Table IV: campaigns per
// currency plus e-mail and unknown identifiers.
func CurrencyBreakdown(res *Results) *report.Table {
	counter := report.NewCounter()
	for _, c := range res.Campaigns {
		if len(c.Wallets) == 0 {
			continue
		}
		seen := map[model.Currency]bool{}
		for _, cur := range c.Currencies {
			if !seen[cur] {
				seen[cur] = true
				counter.Add(string(cur))
			}
		}
		if len(c.Currencies) == 0 {
			counter.Add("Unknown")
		}
	}
	t := report.NewTable("Table IV (left) — campaigns per identifier type", "Currency", "#Campaigns")
	for _, e := range counter.Top(0) {
		t.AddRow(e.Key, fmt.Sprintf("%d", e.Count))
	}
	return t
}

// SamplesPerYear reproduces the right side of Table IV: miner samples first
// seen per year for Bitcoin and Monero.
func SamplesPerYear(res *Results) *report.Table {
	btc := report.NewYearBuckets()
	xmr := report.NewYearBuckets()
	for _, rec := range res.MinerRecords {
		switch rec.Currency {
		case model.CurrencyBitcoin:
			btc.Add(rec.FirstSeen)
		case model.CurrencyMonero:
			xmr.Add(rec.FirstSeen)
		}
	}
	years := map[int]bool{}
	for _, y := range btc.Years() {
		years[y] = true
	}
	for _, y := range xmr.Years() {
		years[y] = true
	}
	var sorted []int
	for y := range years {
		sorted = append(sorted, y)
	}
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	t := report.NewTable("Table IV (right) — miner samples per year", "Year", "BTC", "XMR")
	for _, y := range sorted {
		t.AddRow(fmt.Sprintf("%d", y), fmt.Sprintf("%d", btc.Count(y)), fmt.Sprintf("%d", xmr.Count(y)))
	}
	t.AddRow("TOTAL", fmt.Sprintf("%d", btc.Total()), fmt.Sprintf("%d", xmr.Total()))
	return t
}

// MalwareReuse reproduces Table V: samples first seen before 2014 that carry
// Monero wallets (Monero launched in April 2014), i.e. droppers later updated
// to mine.
func MalwareReuse(res *Results) *report.Table {
	t := report.NewTable("Table V — pre-2014 samples later mining Monero", "SHA256", "Year", "XMR wallet")
	for _, rec := range res.MinerRecords {
		if rec.Currency != model.CurrencyMonero || rec.FirstSeen.IsZero() {
			continue
		}
		if rec.FirstSeen.Year() >= 2014 {
			continue
		}
		t.AddRow(model.ShortHash(rec.SHA256), fmt.Sprintf("%d", rec.FirstSeen.Year()), model.ShortHash(rec.User))
	}
	return t
}

// HostingDomains reproduces Table VI/XIII: the domains hosting crypto-mining
// malware ranked by the number of samples.
func HostingDomains(res *Results, topN int) *report.Table {
	samplesPerDomain := report.NewCounter()
	urlsPerDomain := map[string]map[string]bool{}
	for _, rec := range res.Records {
		seen := map[string]bool{}
		for _, raw := range rec.ITWURLs {
			u, err := url.Parse(raw)
			if err != nil || u.Hostname() == "" {
				continue
			}
			host := strings.ToLower(u.Hostname())
			if !seen[host] {
				seen[host] = true
				samplesPerDomain.Add(host)
			}
			if urlsPerDomain[host] == nil {
				urlsPerDomain[host] = map[string]bool{}
			}
			urlsPerDomain[host][raw] = true
		}
	}
	t := report.NewTable("Table VI — domains hosting crypto-mining malware", "Domain", "#Samples", "#URLs")
	for _, e := range samplesPerDomain.Top(topN) {
		t.AddRow(e.Key, fmt.Sprintf("%d", e.Count), fmt.Sprintf("%d", len(urlsPerDomain[e.Key])))
	}
	return t
}

// CampaignCDFs reproduces Figure 4: the CDFs of samples, wallets and earnings
// per campaign.
func CampaignCDFs(res *Results) (samples, wallets, earnings []profit.CDFPoint) {
	var sVals, wVals, eVals []float64
	for _, c := range res.Campaigns {
		if len(c.Samples) == 0 && len(c.Wallets) == 0 {
			continue
		}
		sVals = append(sVals, float64(len(c.Samples)))
		wVals = append(wVals, float64(len(c.Wallets)))
		if c.XMRMined > 0 {
			eVals = append(eVals, c.XMRMined)
		}
	}
	return profit.CDF(sVals), profit.CDF(wVals), profit.CDF(eVals)
}

// PoolsPerCampaign reproduces Figure 5: for each earnings bucket, the
// fraction of campaigns using 1, 2, 3, ... pools.
func PoolsPerCampaign(res *Results) *report.Table {
	hist := profit.PoolsPerCampaignHistogram(res.Profits)
	buckets := []model.ProfitBucket{
		model.BucketUnder1, model.ProfitBucket("[1-100)"), model.Bucket100To1K,
		model.Bucket1KTo10K, model.BucketOver10K,
	}
	maxPools := 0
	for _, perBucket := range hist {
		for n := range perBucket {
			if n > maxPools {
				maxPools = n
			}
		}
	}
	headers := []string{"XMR mined (#campaigns)"}
	for i := 1; i <= maxPools; i++ {
		headers = append(headers, fmt.Sprintf("%d pools", i))
	}
	t := report.NewTable("Figure 5 — number of pools used per campaign, by earnings", headers...)
	for _, b := range buckets {
		perBucket := hist[b]
		total := 0
		for _, n := range perBucket {
			total += n
		}
		if total == 0 {
			continue
		}
		row := []string{fmt.Sprintf("%s (%d)", b, total)}
		for i := 1; i <= maxPools; i++ {
			row = append(row, report.Percent(float64(perBucket[i]), float64(total)))
		}
		t.AddRow(row...)
	}
	return t
}

// PoolPopularity reproduces Table VII: pools ranked by XMR mined by illicit
// wallets, with wallet counts and USD.
func PoolPopularity(res *Results) []profit.PoolRanking {
	// Rank pools by the campaigns' payments: each payment knows its pool.
	perPool := map[string]*profit.PoolRanking{}
	walletSeen := map[string]map[string]bool{}
	for _, cp := range res.Profits {
		for _, pay := range cp.Payments {
			r, ok := perPool[pay.Pool]
			if !ok {
				r = &profit.PoolRanking{Pool: pay.Pool}
				perPool[pay.Pool] = r
				walletSeen[pay.Pool] = map[string]bool{}
			}
			r.XMR += pay.Amount
			r.USD += pay.USD
			if !walletSeen[pay.Pool][pay.Wallet] {
				walletSeen[pay.Pool][pay.Wallet] = true
				r.Wallets++
			}
		}
	}
	out := make([]profit.PoolRanking, 0, len(perPool))
	for _, r := range perPool {
		out = append(out, *r)
	}
	slices.SortFunc(out, func(a, b profit.PoolRanking) int {
		if c := cmp.Compare(b.XMR, a.XMR); c != 0 {
			return c
		}
		return strings.Compare(a.Pool, b.Pool)
	})
	return out
}

// PoolPopularityTable renders PoolPopularity as the Table VII layout.
func PoolPopularityTable(res *Results) *report.Table {
	t := report.NewTable("Table VII — mining pools ranked by XMR mined by malware", "Pool", "XMR Mined", "#Wallets", "USD")
	for _, r := range PoolPopularity(res) {
		t.AddRow(r.Pool, model.FormatXMR(r.XMR), fmt.Sprintf("%d", r.Wallets), model.FormatXMR(r.USD))
	}
	return t
}

// TopCampaignsTable reproduces Table VIII: the top-n campaigns by XMR mined.
func TopCampaignsTable(res *Results, n int) *report.Table {
	t := report.NewTable(fmt.Sprintf("Table VIII — top %d campaigns by XMR mined", n),
		"Campaign", "#S", "#W", "Period", "XMR", "USD")
	top := profit.TopCampaigns(res.Profits, n)
	var totXMR, totUSD float64
	var totS, totW int
	for _, cp := range top {
		c := cp.Campaign
		period := fmt.Sprintf("%s to %s", c.FirstSeen.Format("01/06"), c.LastSeen.Format("01/06"))
		if cp.ActiveAt {
			period = fmt.Sprintf("%s to active*", c.FirstSeen.Format("01/06"))
		}
		t.AddRow(fmt.Sprintf("C#%d", c.ID), fmt.Sprintf("%d", len(c.Samples)), fmt.Sprintf("%d", len(c.Wallets)),
			period, model.FormatXMR(cp.XMR), model.FormatUSD(cp.USD))
		totXMR += cp.XMR
		totUSD += cp.USD
		totS += len(c.Samples)
		totW += len(c.Wallets)
	}
	t.AddRow(fmt.Sprintf("TOP-%d", len(top)), fmt.Sprintf("%d", totS), fmt.Sprintf("%d", totW), "",
		model.FormatXMR(totXMR), model.FormatUSD(totUSD))
	t.AddRow(fmt.Sprintf("ALL-%d", len(res.Profits)), "", "", "",
		model.FormatXMR(res.TotalXMR), model.FormatUSD(res.TotalUSD))
	return t
}

// MiningToolsTable reproduces Table IX: the stock mining tools attributed to
// campaigns.
func MiningToolsTable(res *Results) *report.Table {
	campaignsPerTool := report.NewCounter()
	for _, c := range res.Campaigns {
		for _, tool := range c.StockTools {
			campaignsPerTool.Add(tool)
		}
	}
	t := report.NewTable("Table IX — stock mining tools used by campaigns", "Tool", "#Campaigns")
	for _, e := range campaignsPerTool.Top(0) {
		t.AddRow(e.Key, fmt.Sprintf("%d", e.Count))
	}
	return t
}

// PackersTable reproduces Table X: packers used for obfuscation, by sample
// count, plus the not-packed remainder.
func PackersTable(res *Results) *report.Table {
	counter := report.NewCounter()
	notPacked := 0
	for _, rec := range res.Records {
		if rec.Packer != "" {
			counter.Add(rec.Packer)
		} else {
			notPacked++
		}
	}
	t := report.NewTable("Table X — packers used for binary obfuscation", "Packer", "#Samples")
	for _, e := range counter.Top(0) {
		t.AddRow(e.Key, fmt.Sprintf("%d", e.Count))
	}
	t.AddRow("Not packed", fmt.Sprintf("%d", notPacked))
	return t
}

// InfrastructureByProfit reproduces Table XI: third-party infrastructure,
// stealth techniques and activity periods per profit bucket.
func InfrastructureByProfit(res *Results) *report.Table {
	buckets := []model.ProfitBucket{model.BucketUnder100, model.Bucket100To1K, model.Bucket1KTo10K, model.BucketOver10K}
	type stats struct {
		n           int
		ppi         int
		sw          int
		both        int
		obf         int
		cname       int
		proxy       int
		start       map[int]int
		years       map[int]int
		activeAtEnd int
	}
	perBucket := map[model.ProfitBucket]*stats{}
	get := func(b model.ProfitBucket) *stats {
		s, ok := perBucket[b]
		if !ok {
			s = &stats{start: map[int]int{}, years: map[int]int{}}
			perBucket[b] = s
		}
		return s
	}
	all := get("ALL")
	add := func(s *stats, c *model.Campaign) {
		s.n++
		hasPPI := len(c.PPIBotnets) > 0
		hasSW := len(c.StockTools) > 0
		if hasPPI {
			s.ppi++
		}
		if hasSW {
			s.sw++
		}
		if hasPPI && hasSW {
			s.both++
		}
		if c.UsesObfuscation {
			s.obf++
		}
		if len(c.CNAMEs) > 0 {
			s.cname++
		}
		if len(c.Proxies) > 0 {
			s.proxy++
		}
		if !c.FirstSeen.IsZero() {
			s.start[c.FirstSeen.Year()]++
		}
		s.years[c.DurationYears()]++
		if c.Active {
			s.activeAtEnd++
		}
	}
	for _, cp := range res.Profits {
		b := model.BucketFor(cp.XMR)
		add(get(b), cp.Campaign)
		add(all, cp.Campaign)
	}

	headers := []string{"Metric"}
	for _, b := range buckets {
		headers = append(headers, string(b))
	}
	headers = append(headers, "ALL")
	t := report.NewTable("Table XI — infrastructure, stealth and activity by profit bucket", headers...)

	row := func(name string, f func(*stats) string) {
		cells := []string{name}
		for _, b := range buckets {
			cells = append(cells, f(get(b)))
		}
		cells = append(cells, f(all))
		t.AddRow(cells...)
	}
	row("#Campaigns", func(s *stats) string { return fmt.Sprintf("%d", s.n) })
	pct := func(num int, s *stats) string { return report.Percent(float64(num), float64(s.n)) }
	row("PPI", func(s *stats) string { return pct(s.ppi, s) })
	row("Mining SW", func(s *stats) string { return pct(s.sw, s) })
	row("Both", func(s *stats) string { return pct(s.both, s) })
	row("Obfuscation", func(s *stats) string { return pct(s.obf, s) })
	row("CNAMEs", func(s *stats) string { return pct(s.cname, s) })
	row("Proxies", func(s *stats) string { return pct(s.proxy, s) })
	row("Active at end", func(s *stats) string { return pct(s.activeAtEnd, s) })
	for year := 2014; year <= 2019; year++ {
		y := year
		row(fmt.Sprintf("Start: %d", y), func(s *stats) string { return pct(s.start[y], s) })
	}
	for dur := 0; dur <= 4; dur++ {
		d := dur
		row(fmt.Sprintf("Years: %d", d), func(s *stats) string { return pct(s.years[d], s) })
	}
	return t
}

// TopWalletsTable reproduces Table XIV: the top-n wallets by XMR mined.
func TopWalletsTable(res *Results, collector *profit.Collector, n int) *report.Table {
	analyzer := profit.NewAnalyzer(collector)
	wallets := map[string]bool{}
	for _, c := range res.Campaigns {
		for _, w := range c.Wallets {
			wallets[w] = true
		}
	}
	var list []string
	for w := range wallets {
		list = append(list, w)
	}
	top := analyzer.TopWallets(list, n)
	t := report.NewTable(fmt.Sprintf("Table XIV — top %d wallets by XMR mined", n), "Wallet", "XMR mined", "USD")
	var totX, totU float64
	for _, w := range top {
		t.AddRow(model.ShortHash(w.Wallet), model.FormatXMR(w.XMR), model.FormatXMR(w.USD))
		totX += w.XMR
		totU += w.USD
	}
	t.AddRow("TOTAL (top)", model.FormatXMR(totX), model.FormatXMR(totU))
	return t
}

// EmailsPerPool reproduces Table XV: the number of e-mail identifiers seen
// per pool (dominated by the opaque minergate pool).
func EmailsPerPool(res *Results, poolForEndpoint func(string) string) *report.Table {
	counter := report.NewCounter()
	total := 0
	for _, rec := range res.MinerRecords {
		if rec.Currency != model.CurrencyEmail {
			continue
		}
		total++
		pool := poolForEndpoint(rec.URLPool)
		if pool == "" {
			pool = "OTHERS"
		}
		counter.Add(pool)
	}
	t := report.NewTable("Table XV — e-mail identifiers per pool", "Pool", "#Emails")
	for _, e := range counter.Top(0) {
		t.AddRow(e.Key, fmt.Sprintf("%d", e.Count))
	}
	t.AddRow("TOTAL", fmt.Sprintf("%d", total))
	return t
}

// PaymentTimeline reproduces Figures 6c/7/8: the per-wallet monthly payment
// series for one campaign, annotated with PoW fork dates.
type PaymentTimeline struct {
	CampaignID int
	// Wallets lists the wallet identifiers with at least one payment.
	Wallets []string
	// Monthly maps wallet -> month (YYYY-MM) -> XMR paid.
	Monthly map[string]map[string]float64
	// ForkDates are the PoW changes within the observation window.
	ForkDates []time.Time
}

// BuildPaymentTimeline extracts the payment timeline of one campaign.
func BuildPaymentTimeline(res *Results, campaignID int, forks []time.Time) PaymentTimeline {
	tl := PaymentTimeline{CampaignID: campaignID, Monthly: map[string]map[string]float64{}, ForkDates: forks}
	for _, cp := range res.Profits {
		if cp.Campaign.ID != campaignID {
			continue
		}
		for _, pay := range cp.Payments {
			month := pay.Timestamp.Format("2006-01")
			if tl.Monthly[pay.Wallet] == nil {
				tl.Monthly[pay.Wallet] = map[string]float64{}
				tl.Wallets = append(tl.Wallets, pay.Wallet)
			}
			tl.Monthly[pay.Wallet][month] += pay.Amount
		}
	}
	return tl
}

// Series renders the timeline of one wallet as a report.Series.
func (tl PaymentTimeline) Series(walletID string) *report.Series {
	s := &report.Series{Name: fmt.Sprintf("C#%d payments for %s (XMR/month)", tl.CampaignID, model.ShortHash(walletID))}
	months := make([]string, 0, len(tl.Monthly[walletID]))
	for m := range tl.Monthly[walletID] {
		months = append(months, m)
	}
	for i := 0; i < len(months); i++ {
		for j := i + 1; j < len(months); j++ {
			if months[j] < months[i] {
				months[i], months[j] = months[j], months[i]
			}
		}
	}
	for _, m := range months {
		s.Add(m, tl.Monthly[walletID][m])
	}
	return s
}

// RelatedWorkTable reproduces Table XII: the static comparison of related
// measurements, with this reproduction's own row filled from the results.
func RelatedWorkTable(res *Results) *report.Table {
	t := report.NewTable("Table XII — related-work comparison",
		"Work", "Focus (currency)", "Analyzed", "Detected", "Profits")
	t.AddRow("Huang et al. (2014)", "Binary-based mining (BTC)", "Unknown", "2K crypto-mining malware", "14,979 BTC")
	t.AddRow("Ruth et al. (2018)", "Web-based mining (XMR)", "10M websites", "2,287 websites", "1,271 XMR/month")
	t.AddRow("Hong et al. (2018)", "Web-based cryptojacking (XMR)", "548,624 websites", "2,270 websites", "7,692 XMR")
	t.AddRow("Konoth et al. (2018)", "Web-based cryptojacking (XMR)", "991,513 websites", "1,735 websites", "747 XMR/month")
	t.AddRow("Papadopoulos et al. (2018)", "Web-based mining (XMR)", "3M websites", "107.5K websites", "N/A")
	t.AddRow("Musch et al. (2018)", "Web-based cryptojacking (XMR)", "1M websites", "2.5K websites", "N/A")
	monthly := profit.MonthlyRate(res.Profits)
	t.AddRow("This reproduction", "Binary-based mining (various)",
		fmt.Sprintf("%d samples", len(res.Outcomes)),
		fmt.Sprintf("%d crypto-mining malware", len(res.Records)),
		fmt.Sprintf("%s XMR (%.0f XMR/month)", model.FormatXMR(res.TotalXMR), monthly))
	return t
}
