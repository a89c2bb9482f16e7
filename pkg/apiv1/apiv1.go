// Package apiv1 defines the wire types of the versioned service API served
// under /api/v1 by the streaming daemon. The server (internal/api) and the
// Go SDK (pkg/client) share these structs, so the two sides can never drift;
// external tooling may import this package directly for the JSON shapes.
//
// Versioning policy: within v1 the surface only changes additively — new
// endpoints, new optional fields, new query parameters. Removing or renaming
// a field, changing a type, or changing the meaning of a status code
// requires a new /api/v2 prefix served alongside v1.
package apiv1

import "time"

// Error codes carried in the uniform error envelope.
const (
	CodeBadRequest          = "bad_request"
	CodeNotFound            = "not_found"
	CodeMethodNotAllowed    = "method_not_allowed"
	CodeResultsPending      = "results_pending"
	CodePersistenceDisabled = "persistence_disabled"
	CodeIngestClosed        = "ingest_closed"
	CodeBackpressure        = "backpressure"
	CodeInternal            = "internal"
	CodeProbeDisabled       = "probe_disabled"
	CodeFinishUnavailable   = "finish_unavailable"
	CodeRateLimited         = "rate_limited"
	CodeScenarioDisabled    = "scenario_disabled"
	CodeScenarioCapacity    = "scenario_capacity"
	CodeScenarioPending     = "scenario_pending"

	// CodeTimeseriesDisabled was answered by daemons that could run without
	// the timeseries subsystem. Current daemons always keep their series and
	// never send it; it stays for clients of older daemons.
	CodeTimeseriesDisabled = "timeseries_disabled"
)

// Error is the body of the uniform error envelope.
type Error struct {
	// Code is a stable machine-readable identifier (see the Code constants).
	Code string `json:"code"`
	// Message is a human-readable explanation.
	Message string `json:"message"`
	// RequestID echoes the X-Request-ID the failing request was served
	// under, so an error report correlates with the server's request log.
	RequestID string `json:"request_id,omitempty"`
}

// ErrorEnvelope wraps every non-2xx response body:
// {"error":{"code":"...","message":"..."}}.
type ErrorEnvelope struct {
	Error Error `json:"error"`
}

// StageStats is the live latency profile of one analysis stage.
type StageStats struct {
	Name      string `json:"name"`
	Processed int64  `json:"processed"`
	AvgNanos  int64  `json:"avg_latency_ns"`
}

// Stats mirrors the engine's live counters (GET /api/v1/stats).
type Stats struct {
	UptimeNanos        int64        `json:"uptime_ns"`
	Shards             int          `json:"shards"`
	Submitted          int64        `json:"submitted"`
	Analyzed           int64        `json:"analyzed"`
	Duplicates         int64        `json:"duplicates"`
	SamplesPerSec      float64      `json:"samples_per_sec"`
	Kept               int64        `json:"kept"`
	Miners             int64        `json:"miners"`
	IllicitWalletFlips int64        `json:"illicit_wallet_flips"`
	Campaigns          int64        `json:"campaigns"`
	Wallets            int64        `json:"wallets"`
	TotalXMR           float64      `json:"total_xmr"`
	TotalUSD           float64      `json:"total_usd"`
	Backpressure       int          `json:"backpressure"`
	Stages             []StageStats `json:"stages"`
}

// Campaign is the summary view of one live campaign
// (GET /api/v1/campaigns).
type Campaign struct {
	ID          int      `json:"id"`
	Samples     int      `json:"samples"`
	Ancillaries int      `json:"ancillaries"`
	Wallets     []string `json:"wallets,omitempty"`
	Pools       []string `json:"pools,omitempty"`
	XMR         float64  `json:"xmr"`
	USD         float64  `json:"usd"`
	Active      bool     `json:"active"`
}

// CampaignPage is the paginated campaign listing envelope.
type CampaignPage struct {
	// Total counts campaigns matching the filters, before pagination.
	Total int `json:"total"`
	// Limit / Offset echo the effective pagination window (limit 0 = all).
	Limit  int `json:"limit"`
	Offset int `json:"offset"`
	// NextCursor, when non-empty, is the opaque cursor of the next page
	// (pass as ?cursor=). Absent on the final page and on unpaginated
	// listings.
	NextCursor string `json:"next_cursor,omitempty"`
	// Campaigns are the matching campaigns, sorted by XMR earned (desc).
	Campaigns []Campaign `json:"campaigns"`
}

// CampaignDetail is the full view of one campaign
// (GET /api/v1/campaigns/{id}).
type CampaignDetail struct {
	Campaign
	SampleHashes    []string  `json:"sample_hashes,omitempty"`
	AncillaryHashes []string  `json:"ancillary_hashes,omitempty"`
	Currencies      []string  `json:"currencies,omitempty"`
	CNAMEs          []string  `json:"cnames,omitempty"`
	Proxies         []string  `json:"proxies,omitempty"`
	HostingDomains  []string  `json:"hosting_domains,omitempty"`
	PPIBotnets      []string  `json:"ppi_botnets,omitempty"`
	StockTools      []string  `json:"stock_tools,omitempty"`
	KnownOperations []string  `json:"known_operations,omitempty"`
	UsesObfuscation bool      `json:"uses_obfuscation"`
	FirstSeen       time.Time `json:"first_seen"`
	LastSeen        time.Time `json:"last_seen"`
	Payments        int       `json:"payments"`
	PoolsUsed       int       `json:"pools_used"`
	FirstPayment    time.Time `json:"first_payment,omitzero"`
	LastPayment     time.Time `json:"last_payment,omitzero"`
}

// Results is the final run summary (GET /api/v1/results). Field names match
// the pre-v1 /results body, which the legacy alias still serves.
type Results struct {
	Samples          int     `json:"samples"`
	Kept             int     `json:"kept"`
	Miners           int     `json:"miners"`
	Campaigns        int     `json:"campaigns"`
	Identifiers      int     `json:"identifiers"`
	TotalXMR         float64 `json:"total_xmr"`
	TotalUSD         float64 `json:"total_usd"`
	CirculationShare float64 `json:"circulation_share"`
}

// Checkpoint reports one completed on-demand checkpoint
// (POST /api/v1/checkpoint). It mirrors persist.CheckpointInfo.
type Checkpoint struct {
	Path      string `json:"path"`
	Bytes     int64  `json:"bytes"`
	Logged    uint64 `json:"logged"`
	Processed uint64 `json:"processed"`
}

// Sample is the ingestion request body (POST /api/v1/samples): one JSON
// object, or one object per line for bulk NDJSON. Either SHA256 or Content
// must be set; content-only samples are hashed server-side.
type Sample struct {
	SHA256 string `json:"sha256,omitempty"`
	MD5    string `json:"md5,omitempty"`
	// Content is the raw sample body, base64-encoded on the wire.
	Content          []byte    `json:"content,omitempty"`
	Sources          []string  `json:"sources,omitempty"`
	FirstSeen        time.Time `json:"first_seen,omitzero"`
	ITWURLs          []string  `json:"itw_urls,omitempty"`
	Parents          []string  `json:"parents,omitempty"`
	ContactedDomains []string  `json:"contacted_domains,omitempty"`
	DroppedHashes    []string  `json:"dropped_hashes,omitempty"`
}

// IngestResult acknowledges a sample submission. Bulk NDJSON bodies are
// applied in order; on a malformed line the request fails with 400 after the
// preceding lines were already accepted, and the error message names both
// the offending line and the accepted count.
type IngestResult struct {
	Accepted int `json:"accepted"`
}

// Event is one live engine notification (GET /api/v1/events), streamed as
// NDJSON or SSE. Delivery is lossy for slow consumers; gaps in Seq reveal
// drops.
type Event struct {
	Seq        uint64 `json:"seq"`
	Type       string `json:"type"`
	SHA256     string `json:"sha256,omitempty"`
	SampleType string `json:"sample_type,omitempty"`
	Wallet     string `json:"wallet,omitempty"`
	Pool       string `json:"pool,omitempty"`
	Campaigns  int    `json:"campaigns"`
	Kept       int    `json:"kept"`
	// XMR / USD carry the probed wallet's cross-pool totals on
	// profit_updated events.
	XMR float64 `json:"xmr,omitempty"`
	USD float64 `json:"usd,omitempty"`
	// Error describes the failure on probe_error events.
	Error string `json:"error,omitempty"`
}

// Event type values (mirroring stream.EventType).
const (
	EventSampleKept    = "sample_kept"
	EventProfitUpdated = "profit_updated"
	EventProbeError    = "probe_error"
	EventDrained       = "drained"
)

// Health is the liveness body served by GET /api/v1/healthz.
type Health struct {
	Status string `json:"status"`
}

// ProbePoolStats is one pool's crawl telemetry (GET /api/v1/probe).
type ProbePoolStats struct {
	Pool string `json:"pool"`
	// Requests counts fetch attempts; OK / UnknownWallet / OpaquePool /
	// Failed classify their outcomes (Failed = transient errors that
	// exhausted retries); Retries counts backoff rounds in between.
	Requests      uint64 `json:"requests"`
	OK            uint64 `json:"ok"`
	UnknownWallet uint64 `json:"unknown_wallet"`
	OpaquePool    uint64 `json:"opaque_pool"`
	Retries       uint64 `json:"retries"`
	Failed        uint64 `json:"failed"`
	// ThrottledNanos is the cumulative time spent waiting on this pool's
	// rate limiter.
	ThrottledNanos int64 `json:"throttled_ns"`
}

// ProbeAgeBucket counts probe-cache entries whose age is at most
// UpToSeconds (0 = no upper bound; the buckets partition the cache).
type ProbeAgeBucket struct {
	UpToSeconds int64 `json:"up_to_seconds"`
	Count       int   `json:"count"`
}

// ProbeStats is the wallet-probe subsystem snapshot (GET /api/v1/probe).
type ProbeStats struct {
	// QueueDepth / InFlight describe pending crawl work; Converged is both
	// zero (every enqueued wallet probed).
	QueueDepth int  `json:"queue_depth"`
	InFlight   int  `json:"in_flight"`
	Converged  bool `json:"converged"`
	// CacheSize / CacheErrors describe the per-wallet cache; Completed
	// counts probes ever finished (refreshes included).
	CacheSize   int    `json:"cache_size"`
	CacheErrors int    `json:"cache_errors"`
	Completed   uint64 `json:"completed"`
	// CacheHits / CacheMisses count profit reads served from / missing the
	// cache.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Pools is the per-pool telemetry, sorted by name.
	Pools []ProbePoolStats `json:"pools"`
	// CacheAges is the cache age distribution at snapshot time.
	CacheAges []ProbeAgeBucket `json:"cache_ages"`
}

// ProbeRefresh acknowledges POST /api/v1/probe/refresh: how many probes the
// request scheduled.
type ProbeRefresh struct {
	Requeued int `json:"requeued"`
}

// TimeseriesBucket is one aggregation window of a longitudinal series
// (GET /api/v1/timeseries): Count/Sum serve counter-style reads (arrivals,
// deltas), Last/Min/Max gauge-style reads (partition size, running totals).
type TimeseriesBucket struct {
	// Start is the window's begin time (Unix seconds, aligned to the
	// resolution).
	Start int64   `json:"start"`
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Last  float64 `json:"last"`
}

// TimeseriesSeries is one named metric of a timeseries response, with its
// retained buckets oldest first.
type TimeseriesSeries struct {
	Name    string             `json:"name"`
	Buckets []TimeseriesBucket `json:"buckets"`
}

// YearStats is one calendar year of the data-time yearly-evolution
// breakdown (the live equivalent of the paper's per-year tables).
type YearStats struct {
	Year int `json:"year"`
	// Samples counts kept samples first seen (data time) in the year.
	Samples int64 `json:"samples"`
	// NewCampaigns counts campaigns whose activity started in the year;
	// ActiveCampaigns counts campaigns whose activity span covers it.
	NewCampaigns    int `json:"new_campaigns"`
	ActiveCampaigns int `json:"active_campaigns"`
}

// Timeseries is the ecosystem-wide longitudinal snapshot
// (GET /api/v1/timeseries). Query parameters: metric (one series; default
// all), resolution (a configured level, e.g. 1s/1m/1h/1d; default finest),
// window (a duration bounding the series to the most recent span).
type Timeseries struct {
	ResolutionSeconds int64              `json:"resolution_seconds"`
	Series            []TimeseriesSeries `json:"series"`
	// Years is the data-time yearly breakdown. It is served only on
	// unfiltered queries (no metric parameter) and is unaffected by the
	// resolution/window parameters.
	Years []YearStats `json:"years,omitempty"`
}

// CampaignTimeline is one campaign's longitudinal view
// (GET /api/v1/campaigns/{id}/timeline): sample arrivals, wallet first
// sightings, and priced-XMR deltas from completed probes. Same query
// parameters as Timeseries. Timelines follow campaign merges, so a merged
// campaign's timeline covers the history of all its constituents.
type CampaignTimeline struct {
	ID                int                `json:"id"`
	ResolutionSeconds int64              `json:"resolution_seconds"`
	Series            []TimeseriesSeries `json:"series"`
}

// Timeline metric names served in CampaignTimeline.Series.
const (
	TimelineSamples = "samples"
	TimelineWallets = "wallets"
	TimelineXMR     = "xmr"
)

// Scenario intervention kinds accepted in ScenarioIntervention.Kind.
const (
	ScenarioPoolBan       = "pool_ban"
	ScenarioWalletSeizure = "wallet_seizure"
	ScenarioAVRollout     = "av_rollout"
	ScenarioPowFork       = "pow_fork"
)

// ScenarioCooperation configures one pool's posture towards abuse reports in
// a pool_ban intervention.
type ScenarioCooperation struct {
	// Cooperative pools act on reports; uncooperative pools ignore them.
	Cooperative bool `json:"cooperative"`
	// MinIPsToBan is the connection-count threshold below which a
	// cooperative pool suspects a proxy and declines to ban (0 = pool
	// default).
	MinIPsToBan int `json:"min_ips_to_ban,omitempty"`
}

// ScenarioIntervention is one timestamped what-if action.
type ScenarioIntervention struct {
	// Kind selects the intervention (see the Scenario* constants).
	Kind string `json:"kind"`
	// At is the historical instant the intervention is imagined to have
	// happened: ledger history at or after it is rewritten.
	At time.Time `json:"at"`
	// Wallets scopes the intervention (required for wallet_seizure; a
	// pool_ban with no wallets reports every observed wallet).
	Wallets []string `json:"wallets,omitempty"`
	// Pools scopes a pool_ban to the named pools (default: all).
	Pools []string `json:"pools,omitempty"`
	// Cooperation maps pool name -> posture for pool_ban; "*" sets the
	// default for unnamed pools.
	Cooperation map[string]ScenarioCooperation `json:"cooperation,omitempty"`
	// Families scopes an av_rollout: campaigns attributed to any of these
	// families (PPI botnets, stock tools, known operations) cease.
	Families []string `json:"families,omitempty"`
	// MaintainedCampaigns exempts campaign IDs from a pow_fork die-off.
	MaintainedCampaigns []int `json:"maintained_campaigns,omitempty"`
}

// ScenarioRequest is the body of POST /api/v1/scenarios.
type ScenarioRequest struct {
	Name          string                 `json:"name,omitempty"`
	Description   string                 `json:"description,omitempty"`
	Interventions []ScenarioIntervention `json:"interventions"`
}

// ScenarioStatus is one scenario job's lifecycle record
// (POST /api/v1/scenarios and GET /api/v1/scenarios/{id}).
type ScenarioStatus struct {
	ID          string    `json:"id"`
	Name        string    `json:"name,omitempty"`
	State       string    `json:"state"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	// Error carries the failure reason of a failed job.
	Error string `json:"error,omitempty"`
}

// ScenarioStatusPage lists retained scenario jobs, newest first
// (GET /api/v1/scenarios).
type ScenarioStatusPage struct {
	Scenarios []ScenarioStatus `json:"scenarios"`
}

// ScenarioSubmitted acknowledges POST /api/v1/scenarios with the job to poll.
type ScenarioSubmitted struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// ScenarioTotals is one world's ecosystem summary inside a scenario delta.
type ScenarioTotals struct {
	XMR       float64 `json:"xmr"`
	USD       float64 `json:"usd"`
	Campaigns int64   `json:"campaigns"`
	Wallets   int64   `json:"wallets"`
	Kept      int64   `json:"kept"`
}

// ScenarioBucketDelta is one instant of a baseline-vs-scenario series
// comparison.
type ScenarioBucketDelta struct {
	Start    int64   `json:"start"`
	Baseline float64 `json:"baseline"`
	Scenario float64 `json:"scenario"`
	Delta    float64 `json:"delta"`
}

// ScenarioSeriesDelta is one named ecosystem series' comparison.
type ScenarioSeriesDelta struct {
	Metric string                `json:"metric"`
	Points []ScenarioBucketDelta `json:"points"`
}

// ScenarioCampaignDelta compares one campaign's earnings across the two
// worlds; campaigns whose earnings did not change are omitted.
type ScenarioCampaignDelta struct {
	ID          int     `json:"id"`
	BaselineXMR float64 `json:"baseline_xmr"`
	ScenarioXMR float64 `json:"scenario_xmr"`
	DeltaXMR    float64 `json:"delta_xmr"`
	BaselineUSD float64 `json:"baseline_usd"`
	ScenarioUSD float64 `json:"scenario_usd"`
	DeltaUSD    float64 `json:"delta_usd"`
	// Timeline is the cumulative-XMR comparison over the campaign's
	// longitudinal series (absent when unchanged or series are disabled).
	Timeline []ScenarioBucketDelta `json:"timeline,omitempty"`
}

// ScenarioReportOutcome is one (pool, wallet) abuse-report outcome of a
// pool_ban intervention.
type ScenarioReportOutcome struct {
	Pool   string `json:"pool"`
	Wallet string `json:"wallet"`
	Banned bool   `json:"banned"`
	Reason string `json:"reason,omitempty"`
}

// ScenarioApplied records what one intervention actually did.
type ScenarioApplied struct {
	Kind            string                  `json:"kind"`
	At              time.Time               `json:"at"`
	ReplayInstant   time.Time               `json:"replay_instant"`
	AffectedWallets []string                `json:"affected_wallets,omitempty"`
	RemovedXMR      float64                 `json:"removed_xmr"`
	Outcomes        []ScenarioReportOutcome `json:"outcomes,omitempty"`
	CeasedCampaigns []int                   `json:"ceased_campaigns,omitempty"`
}

// ScenarioDelta is a completed scenario's full comparison
// (GET /api/v1/scenarios/{id}/delta).
type ScenarioDelta struct {
	ID          string    `json:"id"`
	Name        string    `json:"name,omitempty"`
	Description string    `json:"description,omitempty"`
	ForkedAt    time.Time `json:"forked_at"`
	// Baseline and Scenario summarize each world's totals at replay end.
	Baseline ScenarioTotals `json:"baseline"`
	Scenario ScenarioTotals `json:"scenario"`
	// Campaigns lists changed campaigns, largest XMR reduction first.
	Campaigns []ScenarioCampaignDelta `json:"campaigns,omitempty"`
	// Ecosystem compares ecosystem-wide series.
	Ecosystem []ScenarioSeriesDelta `json:"ecosystem,omitempty"`
	// Applied is the intervention audit trail, in replay order.
	Applied []ScenarioApplied `json:"applied,omitempty"`
}
