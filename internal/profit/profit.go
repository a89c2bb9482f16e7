// Package profit implements the profit-analysis stage of the pipeline
// (§III-D of the paper): for every wallet extracted from malware it queries
// the known mining pools for the total paid, the payment history and the
// last-share/hashrate statistics, converts payments to USD with the exchange
// rate at the payment date, and aggregates the result per campaign.
//
// It also produces the derived datasets the evaluation reports: the Table VII
// pool ranking, the Table VIII / XIV top campaigns and wallets, the Figure 4
// CDFs, the Figure 5 pools-per-campaign histogram and the §IV-B share of
// circulating Monero.
package profit

import (
	"sort"
	"sync"
	"time"

	"cryptomining/internal/exchange"
	"cryptomining/internal/model"
	"cryptomining/internal/pool"
	"cryptomining/internal/pow"
)

// Collector queries pools for wallet statistics.
type Collector struct {
	Directory *pool.Directory
	Rates     *exchange.History
	// QueryTime is the timestamp recorded as DATE_QUERY on collected stats.
	QueryTime time.Time
}

// NewCollector builds a collector over a pool directory and rate history.
// A nil history uses the default synthetic XMR/USD curve.
func NewCollector(dir *pool.Directory, rates *exchange.History, queryTime time.Time) *Collector {
	if rates == nil {
		rates = exchange.NewDefaultHistory()
	}
	return &Collector{Directory: dir, Rates: rates, QueryTime: queryTime}
}

// WalletActivity is everything learned about one wallet across all pools.
type WalletActivity struct {
	Wallet string
	// PerPool holds the stats from each transparent pool where the wallet
	// has activity.
	PerPool []model.WalletStats
	// TotalXMR is the total paid across pools.
	TotalXMR float64
	// TotalUSD converts each payment at its own date (falling back to the
	// pool-level total at the average rate when a pool provides no history).
	TotalUSD float64
	// Payments is the merged payment list across pools, sorted by time.
	Payments []model.Payment
	// Pools lists the pools where activity was found.
	Pools []string
	// LastShare is the most recent share across pools.
	LastShare time.Time
}

// CollectWallet queries every transparent pool for one wallet, exactly as the
// paper queries all wallets against all pools (§III-D).
func (c *Collector) CollectWallet(wallet string) WalletActivity {
	if c.Directory == nil {
		return WalletActivity{Wallet: wallet}
	}
	var perPool []model.WalletStats
	for _, p := range c.Directory.Transparent() {
		stats, err := p.Stats(wallet, c.QueryTime)
		if err != nil {
			continue
		}
		perPool = append(perPool, stats)
	}
	return BuildActivity(wallet, perPool, c.Rates)
}

// BuildActivity assembles one wallet's cross-pool activity from raw per-pool
// statistics: pools without any activity are dropped, payments are converted
// to USD at the rate of their date (falling back to the pool total at the
// average rate when no history is exposed), and the merged payment list is
// time-sorted. It is the single aggregation path shared by the synchronous
// Collector and the asynchronous probe crawler, which is what makes their
// results bit-identical — callers must supply perPool in the same order
// (pools sorted by name) for float summation to agree. A nil rates history
// uses the default synthetic curve.
func BuildActivity(wallet string, perPool []model.WalletStats, rates *exchange.History) WalletActivity {
	if rates == nil {
		rates = exchange.NewDefaultHistory()
	}
	act := WalletActivity{Wallet: wallet}
	for _, stats := range perPool {
		if stats.TotalPaid <= 0 && stats.Hashes == 0 {
			continue
		}
		// Convert payments at the rate of their date.
		var usd float64
		for i := range stats.Payments {
			stats.Payments[i].USD = rates.Convert(stats.Payments[i].Amount, stats.Payments[i].Timestamp)
			usd += stats.Payments[i].USD
		}
		if len(stats.Payments) == 0 && stats.TotalPaid > 0 {
			usd = exchange.ConvertAverage(stats.TotalPaid)
		}
		stats.USD = usd
		act.PerPool = append(act.PerPool, stats)
		act.TotalXMR += stats.TotalPaid
		act.TotalUSD += usd
		act.Payments = append(act.Payments, stats.Payments...)
		act.Pools = append(act.Pools, stats.Pool)
		if stats.LastShare.After(act.LastShare) {
			act.LastShare = stats.LastShare
		}
	}
	sort.Slice(act.Payments, func(i, j int) bool { return act.Payments[i].Timestamp.Before(act.Payments[j].Timestamp) })
	act.Pools = model.SortStrings(act.Pools)
	return act
}

// CollectWallets collects activity for a set of wallets, skipping wallets with
// no activity anywhere.
func (c *Collector) CollectWallets(wallets []string) map[string]WalletActivity {
	out := map[string]WalletActivity{}
	for _, w := range wallets {
		if w == "" {
			continue
		}
		if _, done := out[w]; done {
			continue
		}
		act := c.CollectWallet(w)
		if len(act.PerPool) > 0 {
			out[w] = act
		}
	}
	return out
}

// CachedCollector memoizes CollectWallet per wallet. Pool ledgers are fixed
// for a given query time, so a wallet's activity never changes within one
// measurement — the streaming engine shares one cache across every
// incremental campaign-profit refresh. Safe for concurrent use.
type CachedCollector struct {
	collector *Collector
	mu        sync.Mutex
	cache     map[string]WalletActivity
}

// NewCachedCollector wraps a collector with a per-wallet memo.
func NewCachedCollector(c *Collector) *CachedCollector {
	return &CachedCollector{collector: c, cache: map[string]WalletActivity{}}
}

// CollectWallet returns the (possibly cached) activity of one wallet.
func (cc *CachedCollector) CollectWallet(wallet string) WalletActivity {
	cc.mu.Lock()
	act, ok := cc.cache[wallet]
	cc.mu.Unlock()
	if ok {
		return act
	}
	act = cc.collector.CollectWallet(wallet)
	cc.mu.Lock()
	cc.cache[wallet] = act
	cc.mu.Unlock()
	return act
}

// Invalidate drops one wallet's memoized activity, forcing the next
// CollectWallet to re-query the pools. The what-if scenario engine calls it
// after mutating a forked ledger (ban + retraction), where the "activity
// never changes within one measurement" premise of the memo deliberately no
// longer holds.
func (cc *CachedCollector) Invalidate(wallet string) {
	cc.mu.Lock()
	delete(cc.cache, wallet)
	cc.mu.Unlock()
}

// Size returns the number of cached wallets.
func (cc *CachedCollector) Size() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.cache)
}

// CampaignProfit is the per-campaign profit summary (Table VIII rows).
type CampaignProfit struct {
	Campaign *model.Campaign
	XMR      float64
	USD      float64
	Payments []model.Payment
	// ActiveAt reports whether any wallet had a share within ActiveWindow of
	// the query time.
	ActiveAt bool
	// PoolsUsed is the number of distinct pools with activity.
	PoolsUsed    int
	FirstPayment time.Time
	LastPayment  time.Time
}

// ActiveWindow is how recently a campaign must have submitted a share to be
// considered "still active" at the end of the measurement.
const ActiveWindow = 30 * 24 * time.Hour

// Analyzer combines wallet activity into campaign-level profits and the
// derived report datasets.
type Analyzer struct {
	Collector *Collector
}

// NewAnalyzer wraps a collector.
func NewAnalyzer(c *Collector) *Analyzer { return &Analyzer{Collector: c} }

// AnalyzeCampaignWith computes one campaign's profit summary using an
// arbitrary wallet-activity source (e.g. a CachedCollector shared across
// incremental refreshes) and fills the campaign's profit fields. Summation
// runs over c.Wallets in order, so the result is bit-identical no matter how
// often or in which order campaigns are (re)analyzed.
func AnalyzeCampaignWith(c *model.Campaign, collect func(wallet string) WalletActivity, queryTime time.Time) CampaignProfit {
	cp := CampaignProfit{Campaign: c}
	poolSet := map[string]bool{}
	for _, w := range c.Wallets {
		act := collect(w)
		cp.XMR += act.TotalXMR
		cp.USD += act.TotalUSD
		cp.Payments = append(cp.Payments, act.Payments...)
		for _, p := range act.Pools {
			poolSet[p] = true
		}
		if !act.LastShare.IsZero() && queryTime.Sub(act.LastShare) <= ActiveWindow {
			cp.ActiveAt = true
		}
	}
	cp.PoolsUsed = len(poolSet)
	sort.Slice(cp.Payments, func(i, j int) bool { return cp.Payments[i].Timestamp.Before(cp.Payments[j].Timestamp) })
	if len(cp.Payments) > 0 {
		cp.FirstPayment = cp.Payments[0].Timestamp
		cp.LastPayment = cp.Payments[len(cp.Payments)-1].Timestamp
	}
	// Fill the campaign's own profit fields.
	c.XMRMined = cp.XMR
	c.USDEarned = cp.USD
	c.PaymentCount = len(cp.Payments)
	c.Active = cp.ActiveAt
	// Merge the pools discovered through payments into the campaign's
	// pool list (a wallet may pay out at a pool no sample pointed to
	// directly, e.g. behind a proxy). SortStrings dedups, so re-merging on
	// an incremental refresh is idempotent.
	merged := append([]string{}, c.Pools...)
	for p := range poolSet {
		merged = append(merged, p)
	}
	c.Pools = model.SortStrings(merged)
	return cp
}

// TopCampaigns returns the n highest-earning campaigns (Table VIII).
func TopCampaigns(profits []CampaignProfit, n int) []CampaignProfit {
	sorted := append([]CampaignProfit(nil), profits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].XMR > sorted[j].XMR })
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}

// WalletEarning is one row of the Table XIV top-wallet ranking.
type WalletEarning struct {
	Wallet string
	XMR    float64
	USD    float64
}

// TopWallets ranks individual wallets by earnings (Table XIV). Unlike the
// campaign analysis it does not exclude donation wallets — the paper keeps
// them in this table for comparability with industry reports.
func (a *Analyzer) TopWallets(wallets []string, n int) []WalletEarning {
	acts := a.Collector.CollectWallets(wallets)
	out := make([]WalletEarning, 0, len(acts))
	for w, act := range acts {
		out = append(out, WalletEarning{Wallet: w, XMR: act.TotalXMR, USD: act.TotalUSD})
	}
	// Ties break on the wallet so the ranking (and which of several equal
	// earners make the cut) does not depend on map iteration order.
	sort.Slice(out, func(i, j int) bool {
		if out[i].XMR != out[j].XMR {
			return out[i].XMR > out[j].XMR
		}
		return out[i].Wallet < out[j].Wallet
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// PoolRanking is one row of the Table VII pool-popularity ranking.
type PoolRanking struct {
	Pool    string
	XMR     float64
	Wallets int
	USD     float64
}

// CDFPoint is one point of a cumulative distribution (Figure 4).
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF computes the cumulative distribution of a sample of values: for each
// distinct value, the fraction of observations less than or equal to it.
func CDF(values []float64) []CDFPoint {
	if len(values) == 0 {
		return nil
	}
	vs := append([]float64(nil), values...)
	sort.Float64s(vs)
	var out []CDFPoint
	n := float64(len(vs))
	for i := 0; i < len(vs); i++ {
		// Emit one point per distinct value, at its last occurrence.
		if i+1 < len(vs) && vs[i+1] == vs[i] {
			continue
		}
		out = append(out, CDFPoint{Value: vs[i], Fraction: float64(i+1) / n})
	}
	return out
}

// FractionAtOrBelow returns the CDF value at v (the fraction of observations
// <= v), interpolating over the precomputed points.
func FractionAtOrBelow(cdf []CDFPoint, v float64) float64 {
	frac := 0.0
	for _, p := range cdf {
		if p.Value <= v {
			frac = p.Fraction
		} else {
			break
		}
	}
	return frac
}

// PoolsPerCampaignHistogram builds the Figure 5 dataset: for each earnings
// bucket, the distribution of the number of distinct pools used.
func PoolsPerCampaignHistogram(profits []CampaignProfit) map[model.ProfitBucket]map[int]int {
	out := map[model.ProfitBucket]map[int]int{}
	for _, cp := range profits {
		bucket := model.FineBucketFor(cp.XMR)
		if out[bucket] == nil {
			out[bucket] = map[int]int{}
		}
		out[bucket][cp.PoolsUsed]++
	}
	return out
}

// CirculationShare computes the §IV-B headline figure: the fraction of the
// circulating supply at time t represented by the total XMR attributed to
// malware campaigns.
func CirculationShare(totalXMR float64, network *pow.Network, t time.Time) float64 {
	if network == nil {
		network = pow.NewMoneroNetwork()
	}
	supply := network.CirculatingSupply(t)
	if supply <= 0 {
		return 0
	}
	return totalXMR / supply
}

// MonthlyRate returns the average XMR mined per month across the observation
// period spanned by the payments (used in the Table XII comparison row).
func MonthlyRate(profits []CampaignProfit) float64 {
	var total float64
	var first, last time.Time
	for _, cp := range profits {
		total += cp.XMR
		if !cp.FirstPayment.IsZero() && (first.IsZero() || cp.FirstPayment.Before(first)) {
			first = cp.FirstPayment
		}
		if cp.LastPayment.After(last) {
			last = cp.LastPayment
		}
	}
	if first.IsZero() || !last.After(first) {
		return 0
	}
	months := last.Sub(first).Hours() / (24 * 30.44)
	if months <= 0 {
		return 0
	}
	return total / months
}
