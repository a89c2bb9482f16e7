// Package api is the versioned HTTP service layer of the streaming daemon:
// a typed REST+streaming surface under /api/v1 over the ingestion engine.
//
//	GET  /api/v1/stats          live engine counters
//	GET  /api/v1/campaigns      paginated campaign listing (limit/cursor,
//	                            filters: pool, wallet, min_xmr)
//	GET  /api/v1/campaigns/{id} full campaign detail
//	GET  /api/v1/campaigns/{id}/timeline
//	                            the campaign's longitudinal series: sample
//	                            arrivals, wallet sightings, priced-XMR
//	                            deltas (params: metric, resolution, window)
//	GET  /api/v1/timeseries     ecosystem longitudinal series (samples,
//	                            kept, campaigns, xmr, pool:* shares) plus
//	                            the data-time yearly-evolution breakdown
//	                            (params: metric, resolution, window; 409
//	                            when the daemon runs with -no-series)
//	GET  /api/v1/results        final run summary (503 + Retry-After while
//	                            the replay is still in flight)
//	POST /api/v1/checkpoint     persist a snapshot now (409 when the daemon
//	                            runs without persistence)
//	POST /api/v1/samples        remote ingestion: one JSON sample, or bulk
//	                            NDJSON (one sample per line)
//	GET  /api/v1/events         live campaign-update event stream
//	                            (NDJSON, or SSE for text/event-stream)
//	GET  /api/v1/probe          wallet-probe crawl snapshot: queue depth,
//	                            per-pool rate/error counters, cache ages
//	                            (409 when the daemon runs without a prober)
//	POST /api/v1/probe/refresh  force re-probe: ?wallet=<id>, ?scope=stale
//	                            or ?scope=all
//	POST /api/v1/finish         drain the engine and seal final results
//	                            (409 when the daemon cannot force a drain)
//	POST /api/v1/scenarios      submit a what-if scenario document; answers
//	                            202 with the async job to poll (409 when the
//	                            daemon runs without a scenario manager)
//	GET  /api/v1/scenarios      list retained scenario jobs, newest first
//	GET  /api/v1/scenarios/{id} one scenario job's status
//	GET  /api/v1/scenarios/{id}/delta
//	                            the completed job's baseline-vs-scenario
//	                            comparison (503 + Retry-After while the
//	                            replay is still running)
//	GET  /api/v1/healthz        liveness probe
//
// Every response body is a typed pkg/apiv1 struct; every non-2xx response is
// the uniform envelope {"error":{"code","message"}}. Handlers are wired
// through shared middleware: request logging, panic recovery, and method
// guards that answer 405 with an Allow header; each individual sample
// submission is bounded by requestTimeout (503 backpressure on expiry).
//
// The read tier serves exclusively from the engine's published snapshot
// (stream.View): no GET acquires the collector mutex, the snapshot epoch is
// the strong ETag (If-None-Match revalidation answers 304), campaign pages
// paginate by opaque cursor (?cursor=; a raw ?offset= answers 400), and an
// optional per-client token bucket throttles reads (429 + Retry-After).
package api

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"cryptomining/internal/model"
	"cryptomining/internal/obs"
	"cryptomining/internal/probe"
	"cryptomining/internal/scenario"
	"cryptomining/internal/stream"
	"cryptomining/pkg/apiv1"
)

const (
	// requestTimeout bounds each individual sample submission into the
	// engine; expiry surfaces as 503 backpressure.
	requestTimeout = 30 * time.Second
	// retryAfter is the Retry-After hint returned with pending results.
	retryAfter = time.Second
)

// Config wires a Server to the engine and the daemon's optional durability
// hooks.
type Config struct {
	// Engine serves the live surface (stats, campaigns, events).
	Engine *stream.Engine
	// Submit ingests one sample; defaults to Engine.Submit. Daemons running
	// with a WAL pass their write-ahead submit here.
	Submit func(context.Context, *model.Sample) error
	// Checkpoint persists a snapshot now; nil means persistence is disabled
	// and POST /checkpoint answers 409.
	Checkpoint func() (apiv1.Checkpoint, error)
	// Results returns the final results, or nil while the run is still in
	// flight (the results endpoints then answer 503 with Retry-After).
	Results func() *stream.Results
	// Finish drains the engine and finalizes the run on demand (POST
	// /api/v1/finish); nil answers 409 finish_unavailable. Daemons running in
	// pure service mode (-no-feed) wire this so clients can seal a run and
	// read /api/v1/results.
	Finish func(context.Context) (*stream.Results, error)
	// Probe serves the wallet-probe observability endpoints (GET
	// /api/v1/probe, POST /api/v1/probe/refresh); nil answers 409
	// probe_disabled.
	Probe *probe.Scheduler
	// Scenarios serves the what-if endpoints (POST/GET /api/v1/scenarios,
	// GET /api/v1/scenarios/{id}, GET /api/v1/scenarios/{id}/delta); nil
	// answers 409 scenario_disabled.
	Scenarios *scenario.Manager
	// EventBuffer is the per-subscriber event channel capacity (default 1024).
	// No binary sets it: it is a test seam, which pkg/client's
	// TestEventStream raises to 16384 so that no event is dropped.
	EventBuffer int
	// RateLimit, when positive, throttles GET/HEAD requests per client
	// address to this many requests per second (token bucket); excess
	// requests answer 429 with Retry-After. Zero disables throttling.
	RateLimit float64
	// RateBurst is the token-bucket depth per client (default: RateLimit
	// rounded up, minimum 1). Ignored when RateLimit is zero.
	RateBurst int
	// Logger receives request logs and encode failures, scoped
	// component=api. Nil keeps the server silent (tests, embedders).
	Logger *slog.Logger
	// Metrics, when set, makes the server maintain per-route request
	// counters, latency histograms, response-size histograms and an
	// in-flight gauge in the registry, and serve the registry's Prometheus
	// exposition at GET /metrics.
	Metrics *obs.Registry
}

// Server is the versioned API surface. Create with New, mount via Handler.
type Server struct {
	cfg     Config
	log     *slog.Logger
	met     *serverMetrics
	reqID   *requestIDSource
	limiter *rateLimiter
	handler http.Handler
}

// New builds a Server from the configuration, applying defaults.
func New(cfg Config) *Server {
	if cfg.Submit == nil && cfg.Engine != nil {
		cfg.Submit = cfg.Engine.Submit
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 1024
	}
	s := &Server{cfg: cfg, log: obs.Component(cfg.Logger, "api"), reqID: newRequestIDSource()}
	if cfg.RateLimit > 0 {
		s.limiter = newRateLimiter(cfg.RateLimit, cfg.RateBurst)
	}
	if cfg.Metrics != nil {
		s.met = newServerMetrics(cfg.Metrics)
		if cfg.Engine != nil {
			// Snapshot freshness: the epoch the read tier currently serves
			// and how long ago it was published. A stalled epoch under load
			// means ingestion stopped; a growing age with a fresh epoch is a
			// scrape-time illusion (the gauge is read lazily).
			eng := cfg.Engine
			cfg.Metrics.GaugeFunc("api_snapshot_epoch",
				"Epoch of the snapshot the read tier is serving.",
				func() float64 { return float64(eng.CurrentView().Epoch) })
			cfg.Metrics.GaugeFunc("api_snapshot_age_seconds",
				"Seconds since the served snapshot was published.",
				//cryptolint:allow directclock staleness is wall-clock telemetry read at scrape time, never recorded state
				func() float64 { return time.Since(eng.CurrentView().Published).Seconds() })
		}
	}
	// Request-ID assignment sits outermost so the log line and any error
	// envelope share the ID; recovery sits inside logging so a panicked
	// request still gets its log line (as a recovered 500).
	s.handler = s.requestIDs(s.logRequests(s.recoverPanics(s.routes())))
	return s
}

// Handler returns the fully middleware-wrapped root handler.
func (s *Server) Handler() http.Handler { return s.handler }

// routes builds the method-guarded route table.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()

	handle := func(pattern string, h http.HandlerFunc, allow ...string) {
		mux.Handle(pattern, s.route(pattern, h, allow...))
	}
	handle("/api/v1/stats", s.handleStats, http.MethodGet)
	handle("/api/v1/campaigns", s.handleCampaigns, http.MethodGet)
	handle("/api/v1/campaigns/{id}", s.handleCampaignDetail, http.MethodGet)
	handle("/api/v1/campaigns/{id}/timeline", s.handleCampaignTimeline, http.MethodGet)
	handle("/api/v1/timeseries", s.handleTimeseries, http.MethodGet)
	handle("/api/v1/results", s.handleResults, http.MethodGet)
	handle("/api/v1/checkpoint", s.handleCheckpoint, http.MethodPost)
	handle("/api/v1/samples", s.handleSamples, http.MethodPost)
	handle("/api/v1/healthz", s.handleHealth, http.MethodGet)
	handle("/api/v1/events", s.handleEvents, http.MethodGet)
	handle("/api/v1/probe", s.handleProbeStats, http.MethodGet)
	handle("/api/v1/probe/refresh", s.handleProbeRefresh, http.MethodPost)
	handle("/api/v1/finish", s.handleFinish, http.MethodPost)
	handle("/api/v1/scenarios", s.handleScenarios, http.MethodGet, http.MethodPost)
	handle("/api/v1/scenarios/{id}", s.handleScenarioStatus, http.MethodGet)
	handle("/api/v1/scenarios/{id}/delta", s.handleScenarioDelta, http.MethodGet)

	// The exposition endpoint itself stays outside the instrumented route
	// set: scrapes should not inflate the request metrics they collect.
	if s.cfg.Metrics != nil {
		mux.Handle("/metrics", s.cfg.Metrics.Handler())
	}

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.error(w, http.StatusNotFound, apiv1.CodeNotFound, "no such endpoint: "+r.URL.Path)
	})
	return mux
}

// route wraps a handler in the per-endpoint middleware: the metrics
// instrumentation (labeled by route pattern) around the method guard.
// There is deliberately no blanket request deadline: the streaming routes
// (events, bulk samples) legitimately outlive any fixed bound, and the
// snapshot reads complete in-memory; the one operation that can stall —
// submitting into a backpressured engine — is individually bounded by
// requestTimeout in submitWire, surfacing as 503.
// The rate limiter sits inside the instrumentation (throttled requests are
// still counted, as 429s) and outside the method guard (a throttled client
// learns about the limit before anything else).
func (s *Server) route(pattern string, h http.HandlerFunc, allow ...string) http.Handler {
	return s.instrument(pattern, s.ratelimit(s.methods(h, allow...)))
}
