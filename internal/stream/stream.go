// Package stream is the streaming ingestion engine of the measurement system:
// it processes malware-feed samples continuously instead of in one batch,
// decomposing the pipeline of the paper (Figure 3) into composable,
// context-aware stages — sanity checks, static analysis, sandbox execution +
// extraction, and enrichment — connected by bounded channels.
//
// Samples are sharded by SHA-256 onto a pool of per-shard stage chains, so
// per-shard caches (AV reports, DNS resolutions, pool-directory lookups) are
// touched by exactly one goroutine each and never race. All shards feed a
// single collector goroutine that owns the cross-sample state the batch
// pipeline computed in separate passes — the illicit-wallet exception, the
// dropper-relation reachability, and the campaign partition — and applies it
// incrementally as each sample lands:
//
//	Submit --> in --(dispatch by SHA-256)--> shard 0: sanity > static > sandbox > enrich \
//	                                         shard 1: sanity > static > sandbox > enrich  >--> collector
//	                                         shard N: sanity > static > sandbox > enrich /     (keep rules,
//	                                                                                            incremental
//	                                                                                            campaigns+profit)
//
// The incremental view is exact, not approximate: after the same set of
// samples, Finish returns results identical to core.Pipeline.Run — the batch
// pipeline is in fact a thin wrapper that drives this engine with one shard.
// Live progress (samples/sec, per-stage latency, campaigns discovered, profit
// running totals, backpressure depth) is available at any time via Stats.
package stream

import (
	"log/slog"
	"runtime"
	"time"

	"cryptomining/internal/avsim"
	"cryptomining/internal/campaign"
	"cryptomining/internal/dnssim"
	"cryptomining/internal/exchange"
	"cryptomining/internal/model"
	"cryptomining/internal/obs"
	"cryptomining/internal/osint"
	"cryptomining/internal/pool"
	"cryptomining/internal/pow"
	"cryptomining/internal/probe"
	"cryptomining/internal/profit"
)

// AVProvider supplies antivirus reports for samples. Implementations must be
// safe for concurrent use: every shard queries it independently.
type AVProvider interface {
	Report(sha256Hex string) *model.AVReport
}

// Config wires the engine's dependencies. The analysis-related fields have
// the same meaning as in the batch pipeline configuration.
type Config struct {
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

	// Shards is the number of concurrent stage chains (default: GOMAXPROCS).
	Shards int
	// QueueDepth bounds every channel of the dataflow (default 64); a full
	// queue exerts backpressure on Submit.
	QueueDepth int

	// Clock supplies the recording timestamps of the longitudinal metrics
	// (internal/timeseries) the collector maintains and Engine.Timeseries /
	// Engine.CampaignTimeline query (nil = time.Now). Injectable so tests and
	// what-if replays can drive the series deterministically. The series
	// keep timeseries.DefaultLevels.
	Clock func() time.Time

	// Prober, when set, makes wallet-statistics collection asynchronous: a
	// wallet's first sighting enqueues a probe instead of querying Pools under
	// the collector lock. Each completion joins the collector's next batch,
	// publishes profit_updated (or probe_error), and returns once that batch's
	// view is published, so start the engine before the prober. Finish seals
	// only once every seen wallet is cached, which keeps the final results
	// bit-identical to the batch path. Nil keeps in-line collection.
	Prober *probe.Scheduler

	// Metrics, when set, makes the engine register and maintain its
	// instrument set (stage latency histograms, queue-depth gauges,
	// throughput counters, collector lock-hold timing) in the registry for
	// /metrics exposition. Nil disables instrumentation; the hot path then
	// pays nothing beyond the StageStats counters it always kept.
	Metrics *obs.Registry
	// Logger receives the engine's structured logs, scoped with
	// component=stream. Nil keeps the engine silent (the library default).
	Logger *slog.Logger
}

// withDefaults fills optional dependencies exactly like the batch pipeline
// always has, plus the streaming knobs.
func (cfg Config) withDefaults() Config {
	if cfg.MalwareThreshold <= 0 {
		cfg.MalwareThreshold = avsim.DefaultMalwareThreshold
	}
	if cfg.OSINT == nil {
		cfg.OSINT = osint.NewDefaultStore()
	}
	if cfg.Pools == nil {
		cfg.Pools = pool.NewDirectory(nil)
	}
	if cfg.Rates == nil {
		cfg.Rates = exchange.NewDefaultHistory()
	}
	if cfg.Network == nil {
		cfg.Network = pow.NewMoneroNetwork()
	}
	if cfg.QueryTime.IsZero() {
		cfg.QueryTime = time.Now().UTC() //cryptolint:allow directclock default wiring: QueryTime defaults to the real clock exactly like the batch pipeline
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now //cryptolint:allow directclock default wiring: the one site the engine Clock seam binds to the real clock
	}
	return cfg
}

// aggregatorConfig derives the campaign-aggregation configuration, identical
// to what the batch pipeline builds.
func aggregatorConfig(cfg Config) campaign.Config {
	var detector *dnssim.AliasDetector
	if cfg.Zone != nil {
		detector = dnssim.NewAliasDetector(cfg.Zone, cfg.Pools.DomainMap())
	}
	c := campaign.DefaultConfig(cfg.OSINT, detector, cfg.Pools.DomainMap())
	if cfg.Features != nil {
		c.Features = *cfg.Features
	}
	if cfg.FuzzyThreshold > 0 {
		c.FuzzyThreshold = cfg.FuzzyThreshold
	}
	c.AVLabels = map[string][]string{}
	return c
}

// SampleOutcome records what happened to one sample during the sanity checks
// and analysis.
type SampleOutcome struct {
	SHA256 string
	// Executable reports whether the magic-number check passed.
	Executable bool
	// Whitelisted marks known stock mining tools.
	Whitelisted bool
	// Positives is the AV positives count.
	Positives int
	// IsMalware is the outcome of the malware sanity check.
	IsMalware bool
	// IsMiner reports whether mining indicators were observed.
	IsMiner bool
	// Kept reports whether the sample entered the final dataset.
	Kept bool
	// Record is the extraction record (only meaningful when Kept).
	Record model.Record
}

// Results is the full output of an ingestion run (and, via the batch wrapper,
// of a pipeline run).
type Results struct {
	// Outcomes for every ingested sample, keyed by lowercase hash.
	Outcomes map[string]*SampleOutcome
	// Records of the kept samples (miners + ancillaries), sorted by hash.
	Records []model.Record
	// MinerRecords / AncillaryRecords split Records by type.
	MinerRecords     []model.Record
	AncillaryRecords []model.Record
	// Aggregation holds the campaign graph and campaigns.
	Aggregation *campaign.Result
	// Campaigns is Aggregation.Campaigns (with profit fields filled).
	Campaigns []*model.Campaign
	// Profits are the per-campaign profit summaries (campaigns with earnings).
	Profits []profit.CampaignProfit
	// Identifiers counts distinct mining identifiers in the dataset.
	Identifiers int
	// TotalXMR is the total XMR attributed to campaigns.
	TotalXMR float64
	// TotalUSD is the dynamic-rate USD equivalent.
	TotalUSD float64
	// CirculationShare is TotalXMR over the circulating supply at QueryTime.
	CirculationShare float64
	// CountsBySource mirrors Table III's source breakdown.
	CountsBySource map[model.Source]int
	// CountsByResource counts records per analysis resource.
	CountsByResource map[model.AnalysisResource]int
	// QueryTime echoes the configured measurement end.
	QueryTime time.Time
}
