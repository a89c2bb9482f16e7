package ecosim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"cryptomining/internal/avsim"
	"cryptomining/internal/binfmt"
	"cryptomining/internal/dnssim"
	"cryptomining/internal/model"
	"cryptomining/internal/osint"
	"cryptomining/internal/pool"
	"cryptomining/internal/pow"
	"cryptomining/internal/spec"
	"cryptomining/internal/wallet"
)

// StreamConfig shapes the bounded-memory streamed generator: unlike
// Generate, which materializes a whole universe up front, the stream fab-
// ricates samples one at a time from a fixed-size working set of active
// campaigns, so a million-sample ecosystem costs the same memory as a
// thousand-sample one.
type StreamConfig struct {
	// Seed makes the stream deterministic: the same seed always yields the
	// same byte-identical sample sequence, regardless of the Ledger flag
	// (ledger simulation draws nothing from the generator's RNG).
	Seed int64
	// Start / End bound campaign activity windows; QueryTime is the
	// measurement end (default End + 1 month).
	Start, End, QueryTime time.Time
	// ActiveCampaigns bounds the working set of concurrently emitting
	// campaigns (default 48) — the constant-memory knob.
	ActiveCampaigns int
	// MiningInterval is the pool-accounting granularity in Ledger mode
	// (default 14 days).
	MiningInterval time.Duration
	// WavePeriod is the emission-count period of the behavioural waves:
	// CNAME-evasion adoption and AV detection pressure (stealthy-fraction)
	// oscillate over it (default 20000 samples).
	WavePeriod int
	// Ledger enables the in-process replay extras: campaign mining is
	// simulated into the pool directory at spawn time and every emitted
	// sample's AV ground truth is retained for the scanner. CLI NDJSON
	// emission leaves it off and stays constant-memory.
	Ledger bool
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Start.IsZero() {
		c.Start = model.Date(2012, 1, 1)
	}
	if c.End.IsZero() {
		c.End = model.Date(2019, 4, 1)
	}
	if c.QueryTime.IsZero() {
		c.QueryTime = c.End.AddDate(0, 1, 0)
	}
	if c.ActiveCampaigns <= 0 {
		c.ActiveCampaigns = 48
	}
	if c.MiningInterval <= 0 {
		c.MiningInterval = 14 * 24 * time.Hour
	}
	if c.WavePeriod <= 0 {
		c.WavePeriod = 20000
	}
	return c
}

// StreamedSample is one emission: the sample, its AV ground truth and the
// generating campaign (0 for noise).
type StreamedSample struct {
	Sample     *model.Sample
	Truth      avsim.SampleTruth
	CampaignID int
}

// streamCampaign is the bounded per-campaign state the stream keeps while a
// campaign is active — a few strings and integers, never sample bodies.
type streamCampaign struct {
	id        int
	wallets   []string
	pools     []string
	cname     string
	proxy     string
	hosting   string
	packer    string
	family    string
	stealthy  bool
	maintains bool
	botnet    int
	start     time.Time
	end       time.Time
	remaining int
}

// StreamGenerator emits an endless deterministic sample stream. Next is not
// safe for concurrent use (it is one producer by construction); the
// AVProvider view is safe for concurrent readers.
type StreamGenerator struct {
	cfg     StreamConfig
	rng     *rand.Rand
	wallets *wallet.Generator
	network *pow.Network
	pools   map[string]*pool.Pool // the known pools, then churn pools
	zone    *dnssim.Zone
	scanner *avsim.Scanner

	active     []*streamCampaign
	recycled   []string
	emitted    int
	nextID     int
	churnSeq   int
	poolNames  []string // weighted base pools, then churn pools
	churnPools []string

	truthMu sync.Mutex
	truths  map[string]avsim.SampleTruth
}

// NewStream builds a generator and spawns the initial working set.
func NewStream(cfg StreamConfig) *StreamGenerator {
	cfg = cfg.withDefaults()
	network := pow.NewMoneroNetwork()
	s := &StreamGenerator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		network: network,
		pools:   map[string]*pool.Pool{},
		zone:    dnssim.NewZone(),
		scanner: avsim.NewScanner(),
		truths:  map[string]avsim.SampleTruth{},
	}
	s.wallets = wallet.NewGenerator(s.rng)
	for _, p := range pool.NewDirectory(network).Pools() {
		s.pools[p.Name] = p
	}
	for _, spec := range pool.KnownMoneroPools() {
		for i, dom := range spec.Domains {
			s.zone.AddA(dom, fmt.Sprintf("94.130.%d.%d", 10+i, 10+len(dom)%200), time.Time{})
		}
	}
	// The weighted Table VII ranking, flattened: the draw below indexes it
	// uniformly, so repetition encodes the weights.
	s.poolNames = []string{
		"crypto-pool", "crypto-pool", "crypto-pool",
		"dwarfpool", "dwarfpool",
		"minexmr", "minexmr",
		"supportxmr", "nanopool", "monerohash", "ppxxmr", "moneropool",
	}
	for len(s.active) < cfg.ActiveCampaigns {
		s.active = append(s.active, s.spawn())
	}
	return s
}

// Pools returns a directory of every pool the stream has brought so far: the
// known pools plus the churn pools of the campaigns spawned up to now. A
// directory's membership is fixed, so take it after the last Next whose
// pools it must know; the ledgers are shared, and in Ledger mode later
// campaigns keep mining into them. Like Next, it is for the producer only.
func (s *StreamGenerator) Pools() *pool.Directory {
	pools := make([]*pool.Pool, 0, len(s.pools))
	for _, p := range s.pools {
		pools = append(pools, p)
	}
	return pool.NewDirectoryOf(pools...)
}

// Zone exposes the DNS zone with the stream's CNAME aliases.
func (s *StreamGenerator) Zone() *dnssim.Zone { return s.zone }

// Network exposes the PoW reward model backing the ledgers.
func (s *StreamGenerator) Network() *pow.Network { return s.network }

// QueryTime returns the resolved measurement end time.
func (s *StreamGenerator) QueryTime() time.Time { return s.cfg.QueryTime }

// wave is the oscillating behavioural intensity in [0,1], driven by the
// emission counter so it is deterministic and phase-shiftable.
func (s *StreamGenerator) wave(phase float64) float64 {
	x := float64(s.emitted%s.cfg.WavePeriod) / float64(s.cfg.WavePeriod)
	return 0.5 + 0.5*math.Sin(2*math.Pi*(x+phase))
}

// spawn creates one campaign, registering its infrastructure (DNS alias,
// churn pool) and — in Ledger mode — simulating its full mining history into
// the pool directory before any of its samples are emitted, so an ingesting
// engine prices wallets against a complete ledger.
func (s *StreamGenerator) spawn() *streamCampaign {
	s.nextID++
	c := &streamCampaign{id: s.nextID}

	// Pool churn: every 20th campaign brings a brand-new pool to the
	// ecosystem and mines there, the way short-lived pools come and go.
	if s.nextID%20 == 0 {
		s.churnSeq++
		name := fmt.Sprintf("churnpool-%d", s.churnSeq)
		dom := fmt.Sprintf("pool.%s.example", name)
		p := pool.New(name, []string{dom}, model.CurrencyMonero, pool.DefaultPolicy(), s.network)
		s.pools[name] = p
		s.zone.AddA(dom, fmt.Sprintf("185.71.%d.%d", s.churnSeq%250, 10+s.churnSeq%200), time.Time{})
		s.churnPools = append(s.churnPools, name)
		if len(s.churnPools) > 8 {
			s.churnPools = s.churnPools[1:]
		}
	}

	// Wallet reuse: retired campaigns' wallets resurface (~1 in 10 spawns),
	// the cross-campaign linkability the aggregation heuristics key on.
	if len(s.recycled) > 0 && s.rng.Float64() < 0.10 {
		c.wallets = []string{s.recycled[0]}
		s.recycled = s.recycled[1:]
	} else {
		c.wallets = []string{s.wallets.Monero()}
	}
	if s.rng.Float64() < 0.08 {
		c.wallets = append(c.wallets, s.wallets.Monero())
	}

	// Pool selection: mostly the weighted Table VII set, sometimes the
	// newest churn pool.
	if len(s.churnPools) > 0 && s.rng.Float64() < 0.15 {
		c.pools = []string{s.churnPools[len(s.churnPools)-1]}
	} else {
		c.pools = []string{s.poolNames[s.rng.Intn(len(s.poolNames))]}
	}
	if s.rng.Float64() < 0.25 {
		second := s.poolNames[s.rng.Intn(len(s.poolNames))]
		if second != c.pools[0] {
			c.pools = append(c.pools, second)
		}
	}

	// Behavioural waves: CNAME-evasion adoption and stealthiness (the
	// operators' answer to AV detection pressure) rise and fall over the
	// stream instead of staying at a flat base rate.
	c.stealthy = s.rng.Float64() < 0.04+0.30*s.wave(0.25)
	useCNAME := s.rng.Float64() < 0.03+0.35*s.wave(0)
	if useCNAME {
		c.cname = fmt.Sprintf("xmr%d.%s", c.id, randomDomain(s.rng))
	}
	if s.rng.Float64() < 0.06 {
		c.proxy = fmt.Sprintf("%d.%d.%d.%d:%d",
			45+s.rng.Intn(150), s.rng.Intn(255), s.rng.Intn(255), 1+s.rng.Intn(254), 3333+s.rng.Intn(5000))
	}
	if s.rng.Float64() < 0.12 {
		c.family = osint.KnownPPIBotnets[s.rng.Intn(len(osint.KnownPPIBotnets))]
	}

	c.botnet = 20 + s.rng.Intn(400)
	if s.rng.Float64() < 0.05 {
		c.botnet *= 40 // the heavy tail that dominates earnings
	}
	c.remaining = 1 + s.rng.Intn(6)
	if c.botnet > 2000 {
		c.remaining += 2 + s.rng.Intn(10)
	}
	c.maintains = s.rng.Float64() < 0.28
	c.packer = pickStreamPacker(s.rng)

	span := s.cfg.End.Sub(s.cfg.Start)
	c.start = randomTimeBetween(s.rng, s.cfg.Start, s.cfg.End.Add(-span/8))
	c.end = c.start.Add(time.Duration(30+s.rng.Intn(300)) * 24 * time.Hour)
	if c.end.After(s.cfg.End) {
		c.end = s.cfg.End
	}
	c.hosting = fmt.Sprintf("http://%s/c%d/%s.exe", hostingSites[s.rng.Intn(len(hostingSites))].host, c.id, randomToken(s.rng, 6))

	// Ledger-side effects: DNS aliasing is always registered (no RNG), and
	// in Ledger mode the campaign's full mining history lands in the pool
	// directory now, before its first sample is emitted.
	if c.cname != "" {
		if p, ok := s.pools[c.pools[0]]; ok && len(p.Domains) > 0 {
			s.zone.AddCNAME(c.cname, p.Domains[len(p.Domains)-1], c.start)
		}
	}
	if s.cfg.Ledger {
		s.simulateStreamMining(c)
	}
	return c
}

// simulateStreamMining mirrors simulateCampaignMining for the stream's
// bounded campaigns. It must not touch s.rng — determinism of the emitted
// byte stream across Ledger on/off depends on it.
func (s *StreamGenerator) simulateStreamMining(c *streamCampaign) {
	hashrate := float64(c.botnet) * pow.TypicalVictimHashrate
	perWallet := hashrate / float64(len(c.wallets))
	epochs := s.network.Epochs
	startAlgo := pow.AlgorithmAt(epochs, c.start)
	algoFor := func(t time.Time) string {
		if c.maintains {
			return pow.AlgorithmAt(epochs, t)
		}
		return startAlgo
	}
	ips := c.botnet
	if c.proxy != "" {
		ips = 1
	}
	for _, w := range c.wallets {
		perPool := perWallet / float64(len(c.pools))
		for _, poolName := range c.pools {
			p, ok := s.pools[poolName]
			if !ok {
				continue
			}
			p.SimulateMining(w, ips, perPool, c.start, c.end, s.cfg.MiningInterval, algoFor)
		}
	}
}

// Next emits the next sample of the stream. Roughly 8% of emissions are
// noise (benign executables and non-mining malware the sanity checks must
// reject); the rest come from the active campaign set, retiring and
// replacing campaigns as they exhaust their sample budgets.
func (s *StreamGenerator) Next() StreamedSample {
	s.emitted++
	if s.rng.Float64() < 0.08 {
		return s.noise()
	}
	idx := s.rng.Intn(len(s.active))
	c := s.active[idx]
	out := s.emitMiner(c)
	c.remaining--
	if c.remaining <= 0 {
		// Retire: recycle a wallet for later reuse, cap the recycle queue,
		// and spawn the replacement (which may bring a churn pool with it).
		if s.rng.Float64() < 0.35 && len(s.recycled) < 256 {
			s.recycled = append(s.recycled, c.wallets[0])
		}
		s.active[idx] = s.spawn()
	}
	return out
}

// emitMiner fabricates one miner sample for the campaign.
func (s *StreamGenerator) emitMiner(c *streamCampaign) StreamedSample {
	walletID := c.wallets[s.rng.Intn(len(c.wallets))]
	host, port := s.streamEndpoint(c)
	behavior := spec.Behavior{
		IsMiner:    true,
		PoolHost:   host,
		PoolPort:   port,
		Wallet:     walletID,
		Password:   "x",
		Agent:      "XMRig/2.14.1",
		Threads:    1 + s.rng.Intn(8),
		Algo:       pow.AlgorithmAt(s.network.Epochs, c.start),
		IdleMining: s.rng.Float64() < 0.3,
		UsesProxy:  c.proxy != "",
	}
	if c.cname != "" {
		behavior.ContactsDomains = append(behavior.ContactsDomains, c.cname)
	}
	behavior.CommandLine = fmt.Sprintf("miner.exe -o %s -u %s -p x", behavior.PoolEndpoint(), walletID)

	packed := c.packer != ""
	builder := binfmt.NewBuilder(streamFormat(s.rng))
	builder.AddString(fmt.Sprintf("campaign-%06d build %d", c.id, c.remaining))
	if packed {
		builder.WithPacker(c.packer)
		pad := make([]byte, 256+s.rng.Intn(512))
		s.rng.Read(pad)
		builder.WithPadding(pad)
	} else {
		builder.AddString(behavior.CommandLine)
	}
	content := append(builder.Build(), spec.Encode(behavior, packed)...)
	sha, md5hex := binfmt.Hashes(content)

	sample := &model.Sample{
		SHA256:    sha,
		MD5:       md5hex,
		Content:   content,
		FirstSeen: randomTimeBetween(s.rng, c.start, c.end),
		ITWURLs:   []string{c.hosting},
	}
	if c.cname != "" {
		sample.ContactedDomains = append(sample.ContactedDomains, c.cname)
	}
	truth := avsim.SampleTruth{Malicious: true, Miner: true, Stealthy: c.stealthy, Family: c.family}
	s.recordTruth(sha, truth)
	return StreamedSample{Sample: sample, Truth: truth, CampaignID: c.id}
}

// noise fabricates one benign or non-mining-malware sample.
func (s *StreamGenerator) noise() StreamedSample {
	if s.rng.Float64() < 0.45 {
		builder := binfmt.NewBuilder(streamFormat(s.rng)).
			AddString(fmt.Sprintf("benign utility %d", s.emitted)).
			AddString("This program cannot be run in DOS mode")
		content := builder.Build()
		sha, md5hex := binfmt.Hashes(content)
		truth := avsim.SampleTruth{Malicious: false}
		s.recordTruth(sha, truth)
		return StreamedSample{Sample: &model.Sample{
			SHA256: sha, MD5: md5hex, Content: content,
			FirstSeen: randomTimeBetween(s.rng, s.cfg.Start, s.cfg.End),
		}, Truth: truth}
	}
	behavior := spec.Behavior{
		IsMiner:         false,
		ContactsDomains: []string{fmt.Sprintf("c2-%d.%s", s.emitted, randomDomain(s.rng))},
	}
	builder := binfmt.NewBuilder(streamFormat(s.rng)).
		AddString(fmt.Sprintf("bot client %d", s.emitted))
	if s.rng.Float64() < 0.3 {
		builder.WithPacker("UPX")
	}
	content := append(builder.Build(), spec.Encode(behavior, false)...)
	sha, md5hex := binfmt.Hashes(content)
	truth := avsim.SampleTruth{Malicious: true, Miner: false}
	s.recordTruth(sha, truth)
	return StreamedSample{Sample: &model.Sample{
		SHA256: sha, MD5: md5hex, Content: content,
		FirstSeen: randomTimeBetween(s.rng, s.cfg.Start, s.cfg.End),
	}, Truth: truth}
}

func (s *StreamGenerator) streamEndpoint(c *streamCampaign) (string, int) {
	if c.proxy != "" {
		host, port := splitHostPort(c.proxy)
		return host, port
	}
	if c.cname != "" {
		return c.cname, 4444
	}
	if p, ok := s.pools[c.pools[s.rng.Intn(len(c.pools))]]; ok && len(p.Domains) > 0 {
		return p.Domains[len(p.Domains)-1], 3333
	}
	return fmt.Sprintf("%d.0.0.%d", 100+s.rng.Intn(100), 1+s.rng.Intn(254)), 18081
}

// recordTruth retains the ground truth for the AV provider (Ledger mode
// only — the CLI stream keeps nothing and stays constant-memory).
func (s *StreamGenerator) recordTruth(sha string, truth avsim.SampleTruth) {
	if !s.cfg.Ledger {
		return
	}
	s.truthMu.Lock()
	s.truths[sha] = truth
	s.truthMu.Unlock()
}

// AVProvider returns a concurrency-safe stream.AVProvider view over the
// generator's retained ground truth: known hashes scan with their truth,
// unknown hashes scan as benign. Only meaningful in Ledger mode.
func (s *StreamGenerator) AVProvider() *StreamAV {
	return &StreamAV{gen: s}
}

// StreamAV adapts the generator's ground truth to the engine's AVProvider
// interface.
type StreamAV struct {
	gen *StreamGenerator
}

// Report fabricates the AV report for a hash from the stream's ground truth.
func (p *StreamAV) Report(sha256Hex string) *model.AVReport {
	p.gen.truthMu.Lock()
	truth := p.gen.truths[sha256Hex]
	p.gen.truthMu.Unlock()
	return p.gen.scanner.Scan(sha256Hex, truth, p.gen.cfg.QueryTime)
}

func streamFormat(rng *rand.Rand) model.ExecutableFormat {
	switch v := rng.Float64(); {
	case v < 0.88:
		return model.FormatPE
	case v < 0.97:
		return model.FormatELF
	default:
		return model.FormatJAR
	}
}

func pickStreamPacker(rng *rand.Rand) string {
	r := rng.Float64()
	cum := 0.0
	for _, p := range packerChoices {
		cum += p.weight
		if r < cum {
			return p.name
		}
	}
	return ""
}
