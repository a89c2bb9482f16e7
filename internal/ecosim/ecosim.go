// Package ecosim generates the synthetic crypto-mining malware ecosystem that
// substitutes for the paper's proprietary corpus (VirusTotal / Palo Alto /
// Hybrid Analysis / VirusShare feeds, ~4.5M samples, 2007–2019).
//
// The generator fabricates a ground-truth set of campaigns with the
// qualitative properties the paper measures — heavy-tailed earnings dominated
// by a handful of actors, Monero dominance with a Bitcoin long tail, mixed
// use of third-party infrastructure (PPI botnets, stock mining tools, CNAME
// aliases, proxies, packers), public-repository hosting, opaque-pool e-mail
// identifiers, and campaign die-offs at PoW forks — and then materializes that
// ground truth into:
//
//   - binary samples (internal/binfmt + internal/spec) distributed across
//     simulated feeds (internal/feeds);
//   - DNS zones with the CNAME aliases (internal/dnssim);
//   - OSINT indicators, donation-wallet whitelist and stock-tool catalogue
//     (internal/osint);
//   - mining activity and payment histories at the simulated pools
//     (internal/pool driven by the internal/pow reward model).
//
// Because the ground truth is known, the repository can also validate the
// aggregation heuristics' precision — something the paper could only do
// manually against OSINT-documented botnets.
package ecosim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cryptomining/internal/avsim"
	"cryptomining/internal/binfmt"
	"cryptomining/internal/dnssim"
	"cryptomining/internal/feeds"
	"cryptomining/internal/model"
	"cryptomining/internal/osint"
	"cryptomining/internal/pool"
	"cryptomining/internal/pow"
	"cryptomining/internal/wallet"
)

// Config controls the size and shape of the generated ecosystem.
type Config struct {
	// Seed makes the generation deterministic.
	Seed int64
	// MoneroCampaigns is the number of Monero-mining campaigns.
	MoneroCampaigns int
	// BitcoinCampaigns is the number of Bitcoin-mining campaigns (negligible
	// earnings, per the paper).
	BitcoinCampaigns int
	// OtherCurrencyCampaigns is the number of campaigns mining other coins
	// (zCash, Electroneum, Ethereum, Aeon, ...).
	OtherCurrencyCampaigns int
	// EmailCampaigns is the number of campaigns using e-mail identifiers at
	// the opaque minergate pool.
	EmailCampaigns int
	// BenignSamples is the number of non-malware executables mixed into the
	// feeds (they must be filtered out by the sanity checks).
	BenignSamples int
	// NonMinerMalware is the number of malware samples without mining
	// capability mixed into the feeds.
	NonMinerMalware int
	// Start and End bound the campaign activity window.
	Start time.Time
	End   time.Time
	// QueryTime is when the measurement queries pools (end of collection).
	QueryTime time.Time
	// MiningInterval is the granularity of the pool accounting simulation.
	MiningInterval time.Duration
	// IncludeCaseStudies adds the two scripted case-study campaigns
	// (Freebuf-like and USA-138-like) on top of the random ones.
	IncludeCaseStudies bool
}

// DefaultConfig returns a laptop-scale ecosystem: a few hundred campaigns and
// a few thousand samples, enough for every distribution the paper reports to
// have its characteristic shape.
func DefaultConfig() Config {
	return Config{
		Seed:                   42,
		MoneroCampaigns:        220,
		BitcoinCampaigns:       90,
		OtherCurrencyCampaigns: 40,
		EmailCampaigns:         60,
		BenignSamples:          150,
		NonMinerMalware:        200,
		Start:                  model.Date(2012, 1, 1),
		End:                    model.Date(2019, 4, 1),
		QueryTime:              model.Date(2019, 4, 30),
		MiningInterval:         14 * 24 * time.Hour,
		IncludeCaseStudies:     true,
	}
}

// SmallConfig is a quick configuration for unit tests; the tests of most
// other packages build their universe from it.
func SmallConfig() Config {
	c := DefaultConfig()
	c.MoneroCampaigns = 40
	c.BitcoinCampaigns = 15
	c.OtherCurrencyCampaigns = 8
	c.EmailCampaigns = 10
	c.BenignSamples = 30
	c.NonMinerMalware = 40
	return c
}

// Scale multiplies the campaign and sample counts by f (>=0.1) and returns
// the scaled config.
func (c Config) Scale(f float64) Config {
	if f < 0.1 {
		f = 0.1
	}
	scale := func(n int) int {
		v := int(math.Round(float64(n) * f))
		if v < 1 {
			v = 1
		}
		return v
	}
	c.MoneroCampaigns = scale(c.MoneroCampaigns)
	c.BitcoinCampaigns = scale(c.BitcoinCampaigns)
	c.OtherCurrencyCampaigns = scale(c.OtherCurrencyCampaigns)
	c.EmailCampaigns = scale(c.EmailCampaigns)
	c.BenignSamples = scale(c.BenignSamples)
	c.NonMinerMalware = scale(c.NonMinerMalware)
	return c
}

// GroundTruthCampaign is the generator's record of one campaign: what the
// measurement pipeline should ideally recover.
type GroundTruthCampaign struct {
	ID         int
	Name       string
	Currency   model.Currency
	Wallets    []string
	Samples    []string // miner sample hashes
	Droppers   []string // ancillary sample hashes
	BotnetSize int
	Start      time.Time
	End        time.Time
	// Infrastructure flags.
	UsesCNAME     bool
	CNAMEDomain   string
	UsesProxy     bool
	ProxyEndpoint string
	UsesPPI       bool
	PPIBotnet     string
	UsesStockTool bool
	StockTool     string
	Packer        string
	HostingURLs   []string
	Pools         []string
	// MaintainsUpdates marks operators that ship algorithm updates after PoW
	// forks; campaigns that do not maintain updates stop earning at the
	// first fork inside their activity window.
	MaintainsUpdates bool
	// Stealthy campaigns have low AV coverage.
	Stealthy bool
	// KnownOperation links the campaign to a publicly reported operation
	// whose IoCs are in the OSINT store.
	KnownOperation string
	// ExpectedXMR is the total XMR the pool simulation credited to the
	// campaign's wallets (ground truth for profit validation).
	ExpectedXMR float64
}

// Universe is the fully materialized ecosystem.
type Universe struct {
	Config    Config
	Campaigns []*GroundTruthCampaign
	// Feeds are the per-source repositories.
	VirusTotal     *feeds.Repository
	PaloAlto       *feeds.Repository
	HybridAnalysis *feeds.Repository
	VirusShare     *feeds.Repository
	// Corpus is the consolidated deduplicated sample set.
	Corpus *feeds.Corpus
	// Zone and OSINT and Pools are the simulated environment.
	Zone    *dnssim.Zone
	OSINT   *osint.Store
	Pools   *pool.Directory
	Network *pow.Network
	// Scanner fabricates AV reports; SampleTruths is its ground truth.
	Scanner      *avsim.Scanner
	SampleTruths map[string]avsim.SampleTruth
	// GroundTruthBySample maps each sample hash to its campaign ID.
	GroundTruthBySample map[string]int
	// DonationWallets generated for the stock tools.
	DonationWallets []string
}

// AllFeeds returns the feeds in Table III order.
func (u *Universe) AllFeeds() []feeds.Feed {
	return []feeds.Feed{u.VirusTotal, u.PaloAlto, u.HybridAnalysis, u.VirusShare}
}

// generator carries the mutable generation state.
type generator struct {
	cfg       Config
	rng       *rand.Rand
	wallets   *wallet.Generator
	uni       *Universe
	poolSpecs []pool.KnownPoolSpec
	// weighted pool preference approximating Table VII's ranking.
	poolWeights []weightedPool
}

type weightedPool struct {
	name   string
	domain string
	weight float64
}

// Generate materializes a universe from the configuration.
func Generate(cfg Config) *Universe {
	if cfg.MiningInterval <= 0 {
		cfg.MiningInterval = 14 * 24 * time.Hour
	}
	if cfg.QueryTime.IsZero() {
		cfg.QueryTime = cfg.End.AddDate(0, 1, 0)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	network := pow.NewMoneroNetwork()
	uni := &Universe{
		Config:              cfg,
		VirusTotal:          feeds.NewRepository(model.SourceVirusTotal),
		PaloAlto:            feeds.NewRepository(model.SourcePaloAlto),
		HybridAnalysis:      feeds.NewRepository(model.SourceHybridAnalysis),
		VirusShare:          feeds.NewRepository(model.SourceVirusShare),
		Zone:                dnssim.NewZone(),
		OSINT:               osint.NewDefaultStore(),
		Pools:               pool.NewDirectory(network),
		Network:             network,
		Scanner:             avsim.NewScanner(),
		SampleTruths:        map[string]avsim.SampleTruth{},
		GroundTruthBySample: map[string]int{},
	}
	g := &generator{
		cfg:       cfg,
		rng:       rng,
		wallets:   wallet.NewGenerator(rng),
		uni:       uni,
		poolSpecs: pool.KnownMoneroPools(),
		poolWeights: []weightedPool{
			{"crypto-pool", "mine.crypto-pool.fr", 0.30},
			{"dwarfpool", "xmr-eu.dwarfpool.com", 0.20},
			{"minexmr", "pool.minexmr.com", 0.18},
			{"supportxmr", "pool.supportxmr.com", 0.07},
			{"nanopool", "xmr-eu1.nanopool.org", 0.06},
			{"monerohash", "monerohash.com", 0.05},
			{"ppxxmr", "pool.ppxxmr.com", 0.04},
			{"prohash", "xmr.prohash.net", 0.04},
			{"poolto", "xmr.poolto.be", 0.03},
			{"moneropool", "moneropool.com", 0.03},
		},
	}

	g.seedDNS()
	g.seedStockTools()
	g.generateCampaigns()
	if cfg.IncludeCaseStudies {
		g.generateCaseStudies()
	}
	g.generateMalwareReuse()
	g.generateNoise()

	uni.Corpus = feeds.Aggregate(uni.AllFeeds()...)
	return uni
}

// seedDNS creates A records for every known pool domain.
func (g *generator) seedDNS() {
	for _, spec := range g.poolSpecs {
		for i, dom := range spec.Domains {
			ip := fmt.Sprintf("94.130.%d.%d", 10+i, 10+len(dom)%200)
			g.uni.Zone.AddA(dom, ip, time.Time{})
		}
	}
}

// seedStockTools fabricates the catalogue of stock mining tools (xmrig,
// claymore, ...) with several versions each, registers their hashes and
// donation wallets in the OSINT store, and keeps their content so forked
// variants can be attributed by fuzzy hashing.
func (g *generator) seedStockTools() {
	versionsPerTool := map[string]int{
		"xmrig": 8, "claymore": 5, "xmr-stak": 6, "niceHash": 4, "ccminer": 3,
		"learnMiner": 2, "cast-xmr": 2, "jceMiner": 2, "srbMiner": 2, "yam": 2,
		"cpuminer-multi": 3, "ethminer": 2, "lolMiner": 2,
	}
	for _, name := range osint.StockToolNames {
		nVer := versionsPerTool[name]
		if nVer == 0 {
			nVer = 2
		}
		donation := g.wallets.Monero()
		g.uni.OSINT.AddDonationWallet(donation, name)
		g.uni.DonationWallets = append(g.uni.DonationWallets, donation)
		base := g.toolBaseContent(name)
		for v := 0; v < nVer; v++ {
			version := fmt.Sprintf("%d.%d.%d", 1+v/4, v%4, g.rng.Intn(10))
			content := g.toolVersionContent(base, name, version, donation)
			sha, _ := binfmt.Hashes(content)
			g.uni.OSINT.AddStockTool(osint.StockTool{
				Name: name, Version: version, SHA256: sha, Content: content,
			})
		}
	}
}

// toolBaseContent fabricates the shared "code" of a mining framework; versions
// derive from it with small modifications so fuzzy hashing clusters them.
func (g *generator) toolBaseContent(name string) []byte {
	body := make([]byte, 180*1024+g.rng.Intn(64*1024))
	// Deterministic pseudo-code: repetitive opcode-like filler seeded per tool.
	seed := int64(0)
	for _, c := range name {
		seed = seed*31 + int64(c)
	}
	local := rand.New(rand.NewSource(seed))
	chunk := []byte("55 8B EC 83 EC 08 53 56 57 cryptonight_hash_v0 aes_round mul128 ")
	for i := 0; i < len(body); {
		if local.Intn(4) == 0 {
			n := local.Intn(48) + 16
			if i+n > len(body) {
				n = len(body) - i
			}
			local.Read(body[i : i+n])
			i += n
		} else {
			i += copy(body[i:], chunk)
		}
	}
	return body
}

func (g *generator) toolVersionContent(base []byte, name, version, donation string) []byte {
	b := binfmt.NewBuilder(model.FormatPE).
		AddString(name+" "+version).
		AddString("usage: "+name+" -o <pool> -u <wallet> -p <pass>").
		AddString("donate-level default 5% wallet "+donation).
		AddSection(".text", base)
	content := b.Build()
	// Small per-version patch.
	if len(content) > 4096 {
		off := 2048 + g.rng.Intn(1024)
		copy(content[off:off+16], []byte(version + "-patchpad00000")[:16])
	}
	return content
}

// pickPool returns a weighted-random pool (name, stratum domain).
func (g *generator) pickPool() (string, string) {
	r := g.rng.Float64()
	cum := 0.0
	for _, wp := range g.poolWeights {
		cum += wp.weight
		if r < cum {
			return wp.name, wp.domain
		}
	}
	last := g.poolWeights[len(g.poolWeights)-1]
	return last.name, last.domain
}

// campaignSizeProfile draws a heavy-tailed (Pareto-like) botnet size.
func (g *generator) campaignSizeProfile() int {
	u := g.rng.Float64()
	switch {
	case u < 0.012: // the multi-million-earning whales
		return 5000 + g.rng.Intn(9000)
	case u < 0.05:
		return 1000 + g.rng.Intn(3000)
	case u < 0.16:
		return 150 + g.rng.Intn(800)
	case u < 0.50:
		return 20 + g.rng.Intn(150)
	default:
		return 1 + g.rng.Intn(20)
	}
}

// campaignWindow draws start/end dates weighted toward the 2016-2018 surge.
func (g *generator) campaignWindow(currency model.Currency) (time.Time, time.Time) {
	var startYear int
	u := g.rng.Float64()
	if currency == model.CurrencyBitcoin {
		// Bitcoin campaigns skew early (2012-2016).
		switch {
		case u < 0.15:
			startYear = 2012
		case u < 0.35:
			startYear = 2013
		case u < 0.60:
			startYear = 2014
		case u < 0.80:
			startYear = 2015
		default:
			startYear = 2016
		}
	} else {
		switch {
		case u < 0.02:
			startYear = 2014
		case u < 0.06:
			startYear = 2015
		case u < 0.18:
			startYear = 2016
		case u < 0.60:
			startYear = 2017
		case u < 0.97:
			startYear = 2018
		default:
			startYear = 2019
		}
	}
	start := model.Date(startYear, time.Month(1+g.rng.Intn(12)), 1+g.rng.Intn(28))
	if start.Before(g.cfg.Start) {
		start = g.cfg.Start
	}
	// Duration: mostly under a year, a few multi-year.
	var months int
	switch v := g.rng.Float64(); {
	case v < 0.45:
		months = 1 + g.rng.Intn(6)
	case v < 0.85:
		months = 6 + g.rng.Intn(12)
	case v < 0.97:
		months = 18 + g.rng.Intn(18)
	default:
		months = 36 + g.rng.Intn(18)
	}
	end := start.AddDate(0, months, 0)
	if end.After(g.cfg.End) {
		end = g.cfg.End
	}
	if !end.After(start) {
		end = start.AddDate(0, 1, 0)
	}
	return start, end
}

func (g *generator) generateCampaigns() {
	id := 0
	for i := 0; i < g.cfg.MoneroCampaigns; i++ {
		id++
		g.generateCampaign(id, model.CurrencyMonero, false)
	}
	for i := 0; i < g.cfg.BitcoinCampaigns; i++ {
		id++
		g.generateCampaign(id, model.CurrencyBitcoin, false)
	}
	others := []model.Currency{
		model.CurrencyZcash, model.CurrencyElectroneum, model.CurrencyEthereum,
		model.CurrencyAeon, model.CurrencySumokoin, model.CurrencyIntense,
		model.CurrencyTurtlecoin, model.CurrencyBytecoin,
	}
	for i := 0; i < g.cfg.OtherCurrencyCampaigns; i++ {
		id++
		// Heavily skewed toward the first few currencies, like Table IV.
		idx := int(math.Floor(math.Pow(g.rng.Float64(), 2) * float64(len(others))))
		if idx >= len(others) {
			idx = len(others) - 1
		}
		g.generateCampaign(id, others[idx], false)
	}
	for i := 0; i < g.cfg.EmailCampaigns; i++ {
		id++
		g.generateCampaign(id, model.CurrencyEmail, false)
	}
}
