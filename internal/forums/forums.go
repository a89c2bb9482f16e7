// Package forums models the underground-forum signal the paper uses for
// context (§II and Figure 1): a corpus of discussion threads and a trend
// classifier that counts, per year, the share of crypto-mining threads
// mentioning each cryptocurrency.
//
// The real CrimeBB dataset cannot be redistributed, so the corpus here is
// synthetic: a generator produces threads whose per-year currency mix follows
// the qualitative trend the paper reports (Bitcoin dominant early, a brief
// Dogecoin/Litecoin experiment around 2013-2014, Monero dominant from 2017).
// The classifier itself — keyword matching over titles and bodies, yearly
// normalization — is the part of the pipeline that would run unchanged on the
// real data.
package forums

import (
	"math/rand"
	"sort"
	"strings"
	"time"

	"cryptomining/internal/model"
)

// Thread is one forum discussion thread.
type Thread struct {
	ID      int
	Forum   string
	Title   string
	Body    string
	Created time.Time
}

// currencyKeywords maps each tracked currency to the keywords that indicate a
// thread discusses mining it.
var currencyKeywords = map[model.Currency][]string{
	model.CurrencyBitcoin:  {"bitcoin", "btc"},
	model.CurrencyMonero:   {"monero", "xmr", "cryptonight"},
	model.CurrencyZcash:    {"zcash", "zec"},
	model.CurrencyEthereum: {"ethereum", "eth ", "ether "},
	model.CurrencyLitecoin: {"litecoin", "ltc"},
	model.CurrencyDogecoin: {"dogecoin", "doge"},
}

// miningKeywords indicate that a thread is about mining at all.
var miningKeywords = []string{"mining", "miner", "hashrate", "pool", "botnet mine", "silent miner"}

// TrackedCurrencies returns the currencies Figure 1 tracks, in display order.
func TrackedCurrencies() []model.Currency {
	return []model.Currency{
		model.CurrencyBitcoin, model.CurrencyMonero, model.CurrencyZcash,
		model.CurrencyEthereum, model.CurrencyLitecoin, model.CurrencyDogecoin,
	}
}

// IsMiningThread reports whether a thread discusses crypto-mining.
func IsMiningThread(t Thread) bool {
	text := strings.ToLower(t.Title + " " + t.Body)
	for _, kw := range miningKeywords {
		if strings.Contains(text, kw) {
			return true
		}
	}
	return false
}

// CurrenciesMentioned returns the tracked currencies a thread mentions.
func CurrenciesMentioned(t Thread) []model.Currency {
	text := strings.ToLower(t.Title + " " + t.Body)
	var out []model.Currency
	for _, c := range TrackedCurrencies() {
		for _, kw := range currencyKeywords[c] {
			if strings.Contains(text, kw) {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// TrendPoint is the share of mining threads mentioning a currency in a year.
type TrendPoint struct {
	Year     int
	Currency model.Currency
	// Threads is the absolute number of mining threads mentioning the currency.
	Threads int
	// Share is Threads divided by all mining threads that year.
	Share float64
}

// Trend is the Figure 1 dataset: per-year, per-currency thread shares.
type Trend struct {
	Points []TrendPoint
	// TotalByYear is the number of mining threads per year.
	TotalByYear map[int]int
}

// Share returns the share for (year, currency), or 0.
func (tr *Trend) Share(year int, c model.Currency) float64 {
	for _, p := range tr.Points {
		if p.Year == year && p.Currency == c {
			return p.Share
		}
	}
	return 0
}

// Years returns the years covered, sorted.
func (tr *Trend) Years() []int {
	var out []int
	for y := range tr.TotalByYear {
		out = append(out, y)
	}
	sort.Ints(out)
	return out
}

// ComputeTrend classifies a corpus of threads into the Figure 1 dataset.
func ComputeTrend(threads []Thread) *Trend {
	counts := map[int]map[model.Currency]int{}
	totals := map[int]int{}
	for _, t := range threads {
		if !IsMiningThread(t) {
			continue
		}
		year := t.Created.Year()
		totals[year]++
		if counts[year] == nil {
			counts[year] = map[model.Currency]int{}
		}
		for _, c := range CurrenciesMentioned(t) {
			counts[year][c]++
		}
	}
	tr := &Trend{TotalByYear: totals}
	var years []int
	for y := range totals {
		years = append(years, y)
	}
	sort.Ints(years)
	for _, y := range years {
		for _, c := range TrackedCurrencies() {
			n := counts[y][c]
			share := 0.0
			if totals[y] > 0 {
				share = float64(n) / float64(totals[y])
			}
			tr.Points = append(tr.Points, TrendPoint{Year: y, Currency: c, Threads: n, Share: share})
		}
	}
	return tr
}

// GeneratorConfig controls the synthetic corpus.
type GeneratorConfig struct {
	Seed           int64
	ThreadsPerYear int
	FirstYear      int
	LastYear       int
}

// DefaultGeneratorConfig covers 2012-2018 as in Figure 1.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{Seed: 1, ThreadsPerYear: 400, FirstYear: 2012, LastYear: 2018}
}

// yearlyMix returns the per-currency probability mix for a year, following
// the qualitative trend of Figure 1: Bitcoin dominant and declining, a brief
// Litecoin/Dogecoin phase around 2013-2014, Monero rising from 2016 and
// dominant by 2018, with Zcash and Ethereum as minor constants.
func yearlyMix(year int) map[model.Currency]float64 {
	switch {
	case year <= 2012:
		return map[model.Currency]float64{
			model.CurrencyBitcoin: 0.42, model.CurrencyLitecoin: 0.06, model.CurrencyDogecoin: 0.01,
			model.CurrencyMonero: 0.0, model.CurrencyZcash: 0.0, model.CurrencyEthereum: 0.0,
		}
	case year == 2013:
		return map[model.Currency]float64{
			model.CurrencyBitcoin: 0.38, model.CurrencyLitecoin: 0.12, model.CurrencyDogecoin: 0.08,
			model.CurrencyMonero: 0.01, model.CurrencyZcash: 0.0, model.CurrencyEthereum: 0.0,
		}
	case year == 2014:
		return map[model.Currency]float64{
			model.CurrencyBitcoin: 0.32, model.CurrencyLitecoin: 0.10, model.CurrencyDogecoin: 0.09,
			model.CurrencyMonero: 0.04, model.CurrencyZcash: 0.0, model.CurrencyEthereum: 0.01,
		}
	case year == 2015:
		return map[model.Currency]float64{
			model.CurrencyBitcoin: 0.28, model.CurrencyLitecoin: 0.06, model.CurrencyDogecoin: 0.04,
			model.CurrencyMonero: 0.08, model.CurrencyZcash: 0.01, model.CurrencyEthereum: 0.03,
		}
	case year == 2016:
		return map[model.Currency]float64{
			model.CurrencyBitcoin: 0.25, model.CurrencyLitecoin: 0.04, model.CurrencyDogecoin: 0.02,
			model.CurrencyMonero: 0.15, model.CurrencyZcash: 0.04, model.CurrencyEthereum: 0.06,
		}
	case year == 2017:
		return map[model.Currency]float64{
			model.CurrencyBitcoin: 0.22, model.CurrencyLitecoin: 0.03, model.CurrencyDogecoin: 0.01,
			model.CurrencyMonero: 0.28, model.CurrencyZcash: 0.06, model.CurrencyEthereum: 0.09,
		}
	default: // 2018+
		return map[model.Currency]float64{
			model.CurrencyBitcoin: 0.18, model.CurrencyLitecoin: 0.02, model.CurrencyDogecoin: 0.01,
			model.CurrencyMonero: 0.37, model.CurrencyZcash: 0.05, model.CurrencyEthereum: 0.08,
		}
	}
}

// threadTemplates are title fragments used to fabricate thread text.
var threadTemplates = []string{
	"[SELL] silent %s miner, idle mining, anti task manager",
	"best pool for %s mining with botnet?",
	"how to setup %s mining proxy to avoid ban",
	"%s miner builder $13 - custom pool and wallet",
	"free %s miner, 2%% dev fee to cover coding time",
	"looking for partners: private %s pool, no ban for multiple connections",
	"crypter for %s miner - FUD guaranteed 30 days",
	"my %s mining botnet stats - 2k bots is the sweet spot",
}

// nonMiningTemplates fabricate the unrelated background threads.
var nonMiningTemplates = []string{
	"selling fresh cc dumps",
	"best VPN for carding?",
	"booter / stresser recommendations",
	"crypter coding tutorial part 3",
	"account shop opening - cheap prices",
}

var currencyNames = map[model.Currency]string{
	model.CurrencyBitcoin:  "bitcoin",
	model.CurrencyMonero:   "monero xmr",
	model.CurrencyZcash:    "zcash",
	model.CurrencyEthereum: "ethereum",
	model.CurrencyLitecoin: "litecoin",
	model.CurrencyDogecoin: "dogecoin",
}

// Generate fabricates a synthetic forum corpus.
func Generate(cfg GeneratorConfig) []Thread {
	if cfg.ThreadsPerYear <= 0 {
		cfg.ThreadsPerYear = 400
	}
	if cfg.LastYear < cfg.FirstYear {
		cfg.FirstYear, cfg.LastYear = cfg.LastYear, cfg.FirstYear
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []Thread
	id := 0
	for year := cfg.FirstYear; year <= cfg.LastYear; year++ {
		mix := yearlyMix(year)
		for i := 0; i < cfg.ThreadsPerYear; i++ {
			id++
			created := time.Date(year, time.Month(1+rng.Intn(12)), 1+rng.Intn(28), rng.Intn(24), 0, 0, 0, time.UTC)
			roll := rng.Float64()
			var title string
			cum := 0.0
			assigned := false
			for _, c := range TrackedCurrencies() {
				cum += mix[c]
				if roll < cum {
					tpl := threadTemplates[rng.Intn(len(threadTemplates))]
					title = strings.Replace(tpl, "%s", currencyNames[c], 1)
					assigned = true
					break
				}
			}
			if !assigned {
				title = nonMiningTemplates[rng.Intn(len(nonMiningTemplates))]
			}
			out = append(out, Thread{
				ID:      id,
				Forum:   "market",
				Title:   title,
				Body:    title + " - contact me for PM, escrow accepted",
				Created: created,
			})
		}
	}
	return out
}
