// Package core implements the end-to-end measurement pipeline of the paper
// (Figure 3): feed consolidation, sanity checks ("is it malware? is it a
// miner? is it an executable?"), static and dynamic analysis, extraction of
// wallets and pools, campaign aggregation, enrichment, and profit analysis.
//
// Since the streaming refactor the analysis stages live in internal/stream;
// Pipeline is the batch front-end: it drives the same staged dataflow over a
// consolidated corpus and returns the assembled Results in one call. Batch
// runs default to a single shard — still four stage goroutines beside a
// dispatcher and the collector, but one chain, so samples reach the collector
// in submission order and `Run` remains the deterministic reference the
// streaming engine is validated against; set Config.Shards > 1 to run
// several chains concurrently.
//
// The pipeline is agnostic to whether its inputs come from the synthetic
// ecosystem (internal/ecosim) or from real feeds: it consumes the Feed, AV,
// DNS, OSINT and pool-directory interfaces defined by the substrate packages.
// NewFromUniverse wires it to a generated universe in one call.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cryptomining/internal/avsim"
	"cryptomining/internal/campaign"
	"cryptomining/internal/dnssim"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/exchange"
	"cryptomining/internal/feeds"
	"cryptomining/internal/model"
	"cryptomining/internal/osint"
	"cryptomining/internal/pool"
	"cryptomining/internal/pow"
	"cryptomining/internal/stream"
	"cryptomining/internal/wallet"
)

// AVProvider supplies antivirus reports for samples.
type AVProvider = stream.AVProvider

// SampleOutcome records what happened to one corpus sample during the sanity
// checks and analysis.
type SampleOutcome = stream.SampleOutcome

// Results is the full output of a pipeline run.
type Results = stream.Results

// Config wires the pipeline's dependencies.
type Config struct {
	// Corpus is the consolidated sample set to analyze.
	Corpus *feeds.Corpus
	// AV supplies multi-engine reports.
	AV AVProvider
	// MalwareThreshold is the minimum number of AV positives for the
	// "is it malware?" check (default 10).
	MalwareThreshold int
	// Resolver resolves the domains samples contact (and CNAME aliases).
	Resolver *dnssim.Resolver
	// Zone backs the passive-DNS lookups of the alias detector.
	Zone *dnssim.Zone
	// OSINT supplies IoCs, donation wallets, PPI families and stock tools.
	OSINT *osint.Store
	// Pools is the directory of known pools, used for endpoint attribution
	// and profit collection.
	Pools *pool.Directory
	// Rates converts XMR payments to USD.
	Rates *exchange.History
	// Network is the PoW model used for the circulating-supply estimate.
	Network *pow.Network
	// QueryTime is the measurement end time (pool queries, activity checks).
	QueryTime time.Time
	// GroundTruth optionally maps sample hashes to ground-truth campaign IDs
	// for aggregation validation.
	GroundTruth map[string]int
	// Features selects the aggregation grouping features (default: all).
	Features *campaign.Features
	// FuzzyThreshold overrides the stock-tool fuzzy-hash distance threshold.
	FuzzyThreshold float64
	// Shards is the number of concurrent analysis chains driven by the
	// underlying streaming engine. The default of 1 is one chain — four
	// stage goroutines beside a dispatcher and the collector, not a single
	// thread — which delivers samples to the collector in submission order
	// and keeps batch runs bit-reproducible run over run.
	Shards int
	// QueueDepth bounds the streaming engine's channels (default 64).
	QueueDepth int
}

// scannerAV adapts the avsim scanner + ground truth to AVProvider.
type scannerAV struct {
	scanner *avsim.Scanner
	truths  map[string]avsim.SampleTruth
	at      time.Time
}

// Report implements AVProvider.
func (s *scannerAV) Report(sha string) *model.AVReport {
	truth := s.truths[sha]
	return s.scanner.Scan(sha, truth, s.at)
}

// NewScannerAV wraps an avsim scanner and its ground truth as an AVProvider.
func NewScannerAV(scanner *avsim.Scanner, truths map[string]avsim.SampleTruth, at time.Time) AVProvider {
	return &scannerAV{scanner: scanner, truths: truths, at: at}
}

// Pipeline is the configured measurement pipeline.
type Pipeline struct {
	cfg Config
}

// New creates a pipeline from a configuration. Missing optional dependencies
// get sensible defaults (applied by the streaming engine at run time); the
// query time is pinned here so repeated Run calls on one pipeline measure at
// the same instant and stay reproducible.
func New(cfg Config) *Pipeline {
	if cfg.QueryTime.IsZero() {
		cfg.QueryTime = time.Now().UTC()
	}
	return &Pipeline{cfg: cfg}
}

// NewFromUniverse wires a pipeline to a generated synthetic ecosystem.
func NewFromUniverse(u *ecosim.Universe) *Pipeline {
	return New(Config{
		Corpus:      u.Corpus,
		AV:          NewScannerAV(u.Scanner, u.SampleTruths, u.Config.QueryTime),
		Resolver:    dnssim.NewResolver(u.Zone),
		Zone:        u.Zone,
		OSINT:       u.OSINT,
		Pools:       u.Pools,
		Network:     u.Network,
		QueryTime:   u.Config.QueryTime,
		GroundTruth: u.GroundTruthBySample,
	})
}

// StreamConfig exposes the streaming-engine configuration equivalent to this
// pipeline (everything but the corpus, which streams in via Submit).
func (p *Pipeline) StreamConfig() stream.Config {
	shards := p.cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	return stream.Config{
		AV:               p.cfg.AV,
		MalwareThreshold: p.cfg.MalwareThreshold,
		Resolver:         p.cfg.Resolver,
		Zone:             p.cfg.Zone,
		OSINT:            p.cfg.OSINT,
		Pools:            p.cfg.Pools,
		Rates:            p.cfg.Rates,
		Network:          p.cfg.Network,
		QueryTime:        p.cfg.QueryTime,
		GroundTruth:      p.cfg.GroundTruth,
		Features:         p.cfg.Features,
		FuzzyThreshold:   p.cfg.FuzzyThreshold,
		Shards:           shards,
		QueueDepth:       p.cfg.QueueDepth,
	}
}

// Run executes the pipeline end to end.
func (p *Pipeline) Run() (*Results, error) {
	return p.RunContext(context.Background())
}

// RunContext executes the pipeline end to end, feeding the corpus through the
// streaming engine and waiting for the final results.
func (p *Pipeline) RunContext(ctx context.Context) (*Results, error) {
	if p.cfg.Corpus == nil {
		return nil, fmt.Errorf("core: no corpus configured")
	}
	eng := stream.New(p.StreamConfig())
	eng.Start(ctx)
	for _, h := range p.cfg.Corpus.Hashes() {
		sample, ok := p.cfg.Corpus.Get(h)
		if !ok {
			continue
		}
		if err := eng.Submit(ctx, sample); err != nil {
			return nil, err
		}
	}
	return eng.Finish(ctx)
}

// ValidationStats quantifies aggregation quality against the simulator's
// ground truth: how many produced campaigns are pure (all samples from one
// ground-truth campaign), and how many ground-truth campaigns were split
// across several produced campaigns.
type ValidationStats struct {
	CampaignsWithSamples int
	PureCampaigns        int
	MergedCampaigns      int // produced campaigns containing >1 ground-truth campaign
	GroundTruthTotal     int
	GroundTruthSplit     int // ground-truth campaigns spread over >1 produced campaign
}

// Purity returns the fraction of produced campaigns that are pure.
func (v ValidationStats) Purity() float64 {
	if v.CampaignsWithSamples == 0 {
		return 0
	}
	return float64(v.PureCampaigns) / float64(v.CampaignsWithSamples)
}

// Validate compares the aggregation against the ground truth carried in the
// campaigns' GroundTruthIDs.
func Validate(campaigns []*model.Campaign) ValidationStats {
	var v ValidationStats
	gtToCampaigns := map[int]map[int]bool{}
	for _, c := range campaigns {
		if len(c.Samples)+len(c.Ancillaries) == 0 {
			continue
		}
		if len(c.GroundTruthIDs) == 0 {
			continue
		}
		v.CampaignsWithSamples++
		if len(c.GroundTruthIDs) == 1 {
			v.PureCampaigns++
		} else {
			v.MergedCampaigns++
		}
		for _, gt := range c.GroundTruthIDs {
			if gtToCampaigns[gt] == nil {
				gtToCampaigns[gt] = map[int]bool{}
			}
			gtToCampaigns[gt][c.ID] = true
		}
	}
	v.GroundTruthTotal = len(gtToCampaigns)
	for _, set := range gtToCampaigns {
		if len(set) > 1 {
			v.GroundTruthSplit++
		}
	}
	return v
}

// SortCampaignsByEarnings returns the campaigns sorted by XMR mined, highest
// first (Table VIII order).
func SortCampaignsByEarnings(campaigns []*model.Campaign) []*model.Campaign {
	out := append([]*model.Campaign(nil), campaigns...)
	sort.Slice(out, func(i, j int) bool { return out[i].XMRMined > out[j].XMRMined })
	return out
}

// AllWallets returns every distinct wallet identifier across the records.
func AllWallets(records []model.Record) []string {
	set := map[string]bool{}
	for _, r := range records {
		if r.HasIdentifier() && wallet.IsWallet(r.User) {
			set[r.User] = true
		}
	}
	out := make([]string, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}
