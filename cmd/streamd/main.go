// Command streamd runs the streaming ingestion engine as a daemon: it
// generates an ecosim feed, replays it through internal/stream at a
// configurable rate (unthrottled by default), and serves the versioned
// service API (internal/api) while samples land. With -no-feed the local
// replay is skipped entirely and the daemon is a pure network service fed
// through POST /api/v1/samples.
//
// With -data-dir the daemon is durable: every submission — feed replay and
// remote API ingestion alike — is written ahead to a WAL, the engine state
// is checkpointed periodically (and on demand via POST /api/v1/checkpoint),
// and on boot the daemon resumes from the latest checkpoint, replaying the
// WAL tail and continuing the feed exactly where the previous process
// stopped, even after a SIGKILL. A resumed run's final results are identical
// to an uninterrupted one.
//
// The engine maintains longitudinal timeseries (internal/timeseries) as it
// ingests: ecosystem-wide arrival/keep rates, campaign and priced-XMR
// gauges, per-pool shares, and per-campaign timelines, held in fixed-memory
// rings with cascaded downsampling (timeseries.DefaultLevels). Series ride
// in checkpoints and survive crash recovery bit-identically; at drain the
// daemon renders the paper-style yearly evolution table from them.
//
// Wallet statistics are collected by the asynchronous probe crawler
// (internal/probe): first sightings enqueue probes, live profit is served
// from the probe cache, and the cache rides in checkpoints. By default the
// crawler queries the in-process pool directory; with -probe-http it crawls
// live poolserver statistics APIs over the network, rate-limited per pool
// (-probe-rate) and refreshed by TTL (-probe-interval).
//
// The HTTP surface is internal/api's, whose package comment lists every
// endpoint; there is no unversioned surface. The engine seals the run once —
// at the end of the replay, or on POST /api/v1/finish with -no-feed — and
// GET /api/v1/results serves the sealed view (503 + Retry-After until then).
//
// What-if scenarios replay typed intervention documents — pool wallet bans,
// wallet seizures, AV signature rollouts, PoW fork events — against a shadow
// fork of the engine's exported state with its own forked pool ledgers,
// private aggregator and timeseries stores. The live collector, WAL and published views are never touched; the
// delta endpoint reports per-campaign and ecosystem-wide earnings changes.
// One replay runs at a time and the 16 newest jobs are retained.
//
// Usage:
//
//	streamd -seed 42 -scale 0.25 -rate 0 -http 127.0.0.1:8090 \
//	        -data-dir ./streamd-state -checkpoint-every 5s
//
// With -rate 500 the feed replays at 500 samples/sec, approximating a live
// malware feed; -rate 0 replays as fast as the stages drain. The engine runs
// one stage chain per GOMAXPROCS behind queues 64 deep. The process keeps
// serving the API after the replay finishes, until SIGINT or SIGTERM.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"cryptomining/internal/api"
	"cryptomining/internal/core"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/model"
	"cryptomining/internal/obs"
	"cryptomining/internal/persist"
	"cryptomining/internal/probe"
	"cryptomining/internal/report"
	"cryptomining/internal/scenario"
	"cryptomining/internal/stream"
	"cryptomining/pkg/apiv1"
)

func main() {
	var (
		seed          = flag.Int64("seed", 42, "ecosystem generation seed")
		scale         = flag.Float64("scale", 0.25, "ecosystem scale factor")
		rate          = flag.Float64("rate", 0, "replay rate in samples/sec (0 = unthrottled)")
		httpAddr      = flag.String("http", "127.0.0.1:8090", "HTTP API listen address")
		dataDir       = flag.String("data-dir", "", "durable state directory: WAL + checkpoints, auto-resume on boot (empty = in-memory only)")
		ckptEvery     = flag.Duration("checkpoint-every", 5*time.Second, "periodic checkpoint interval with -data-dir (0 disables periodic checkpoints)")
		noFeed        = flag.Bool("no-feed", false, "skip the local feed replay; ingest only via POST /api/v1/samples")
		probeHTTP     = flag.String("probe-http", "", "probe live pool servers over HTTP: path to a JSON file mapping pool name -> base URL (default: probe the in-process directory)")
		probeInterval = flag.Duration("probe-interval", 0, "wallet-stats TTL: cache entries older than this are re-probed (0 = probe once)")
		probeRate     = flag.Float64("probe-rate", 0, "per-pool probe rate limit in requests/sec (0 = unlimited)")
		probeWorkers  = flag.Int("probe-workers", 0, "concurrent probe workers (0 = default)")
		metricsAddr   = flag.String("metrics-addr", "", "additionally serve the Prometheus exposition on a dedicated listener (it is always mounted at /metrics on the main API address)")
		debugAddr     = flag.String("debug-addr", "", "serve net/http/pprof (and a /metrics mirror) on this address (empty = pprof off)")
		logLevel      = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat     = flag.String("log-format", "text", "log output format: text or json")
		apiRate       = flag.Float64("api-rate", 0, "per-client GET rate limit in requests/sec (0 = unlimited); excess answers 429 + Retry-After")
		apiBurst      = flag.Int("api-burst", 0, "per-client rate-limit burst depth (0 = -api-rate rounded up)")
		version       = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Printf("streamd %s (%s)\n", obs.Version, runtime.Version())
		return
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("invalid flags: %v", err)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		log.Fatalf("invalid flags: %v", err)
	}
	logd := obs.Component(logger, "streamd")
	fatal := func(msg string, args ...any) {
		logd.Error(msg, args...)
		os.Exit(1)
	}

	// One registry serves every layer: engine stages, WAL, probe crawler,
	// API routes and process runtime gauges all register here, and /metrics
	// renders them in one exposition.
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	obs.RegisterBuildInfo(reg)

	if err := validateFlags(flagValues{
		scale:         *scale,
		rate:          *rate,
		ckptEvery:     *ckptEvery,
		probeInterval: *probeInterval,
		probeRate:     *probeRate,
		probeWorkers:  *probeWorkers,
		apiRate:       *apiRate,
		apiBurst:      *apiBurst,
	}); err != nil {
		fatal("invalid flags", "err", err)
	}

	cfg := ecosim.DefaultConfig().Scale(*scale)
	cfg.Seed = *seed
	logd.Info("generating ecosystem", "seed", *seed, "scale", *scale)
	u := ecosim.Generate(cfg)
	if *noFeed {
		logd.Info("feed replay disabled (-no-feed); corpus generated for analysis wiring only",
			"samples", u.Corpus.Len())
	} else {
		logd.Info("feed ready", "samples", u.Corpus.Len(), "ground_truth_campaigns", len(u.Campaigns))
	}

	streamCfg := core.NewFromUniverse(u).StreamConfig()
	streamCfg.Metrics = reg
	streamCfg.Logger = logger

	// All pool queries go through the asynchronous probe crawler: the
	// in-process directory by default (deterministic), or live pool servers
	// over HTTP with -probe-http.
	var src probe.Source
	if *probeHTTP != "" {
		endpoints, err := loadProbeEndpoints(*probeHTTP)
		if err != nil {
			fatal("load probe endpoints", "path", *probeHTTP, "err", err)
		}
		src = probe.NewHTTPSource(endpoints, nil)
		logd.Info("probing pools over HTTP", "pools", len(endpoints), "endpoints_file", *probeHTTP)
	} else {
		src = probe.NewDirectorySource(streamCfg.Pools, streamCfg.QueryTime)
	}
	prober := probe.New(probe.Config{
		Source:      src,
		Rates:       streamCfg.Rates,
		Workers:     *probeWorkers,
		TTL:         *probeInterval,
		RatePerPool: *probeRate,
		Metrics:     reg,
		Logger:      logger,
	})
	streamCfg.Prober = prober
	eng := stream.New(streamCfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// With -data-dir, recovery runs before the feed: restore the latest
	// checkpoint, replay the WAL tail, and fast-forward the (deterministic)
	// feed past the samples it already contributed.
	var st *persist.Store
	skip := 0
	if *dataDir != "" {
		// The resume cursor is a position in the seed-deterministic feed, so
		// restarting against a different feed would silently skip and repeat
		// the wrong samples. Pin the feed identity in the data dir.
		if err := checkFeedMeta(*dataDir, *seed, *scale, u.Corpus.Len()); err != nil {
			fatal("feed identity check failed", "err", err)
		}
		var err error
		st, err = persist.Open(*dataDir, persist.WithMetrics(reg), persist.WithLogger(logger))
		if err != nil {
			fatal("open data dir", "dir", *dataDir, "err", err)
		}
		defer st.Close()
		info, err := st.Resume(ctx, eng)
		if err != nil {
			fatal("resume", "err", err)
		}
		// The WAL interleaves feed samples with remote API submissions, so
		// the feed position cannot be equated with the WAL length. Derive it
		// from the restored state itself: the length of the already-absorbed
		// prefix of the deterministic feed order. Samples the recovery just
		// replayed but that are still in flight — or that an OS crash lost
		// from the un-fsynced WAL tail — are simply re-fed and deduped by
		// hash, so the skip can never overshoot what actually survived.
		skip = feedProgress(eng, u, *seed)
		if info.Resumed {
			// The message keeps the resume smoke's (cmd/smoke) match contract:
			// "resumed from <...>, <N> WAL entries replayed".
			logd.Info(fmt.Sprintf("resumed from %s, %d WAL entries replayed", *dataDir, info.Replayed),
				"snapshot_seq", info.SnapshotSeq,
				"feed_position", skip, "feed_total", u.Corpus.Len())
		} else {
			logd.Info("durable state directory empty, starting fresh", "dir", *dataDir)
		}
	} else {
		eng.Start(ctx)
	}
	// The crawler starts after a potential resume, so a restored probe cache
	// is in place before workers run; probes enqueued during the WAL replay
	// simply queue up.
	prober.Start(ctx)
	defer prober.Close()

	submit := func(ctx context.Context, sample *model.Sample) error {
		if st != nil {
			return st.Submit(ctx, sample)
		}
		return eng.Submit(ctx, sample)
	}

	// finish seals the run (the engine drains, waits for probe convergence
	// and seals exactly once; every call gets the same results) and then
	// checkpoints it, so a restart after completion resumes straight into
	// the finished state instead of re-analyzing the tail. The feed goroutine
	// calls it on the daemon context, POST /api/v1/finish on the request's:
	// a request that gives up before the seal leaves it to a later call.
	finish := func(ctx context.Context) (*stream.Results, error) {
		res, err := eng.Finish(ctx)
		if err != nil {
			return nil, err
		}
		if st != nil {
			if _, err := st.Checkpoint(); err != nil {
				logd.Warn("final checkpoint failed", "err", err)
			}
		}
		return res, nil
	}

	// What-if scenario replays fork the engine's exported state into private
	// shadows; the manager never touches the live collector, WAL or views.
	scenarios, err := scenario.NewManager(scenario.Config{Engine: eng, Base: streamCfg, Metrics: reg})
	if err != nil {
		fatal("scenario manager", "err", err)
	}

	apiCfg := api.Config{
		Engine:    eng,
		Submit:    submit,
		Probe:     prober,
		Scenarios: scenarios,
		Logger:    logger,
		Metrics:   reg,
		RateLimit: *apiRate,
		RateBurst: *apiBurst,
	}
	if *noFeed {
		// Only a pure service run can be sealed on demand; in feed mode a
		// forced drain would abort the replay mid-flight and freeze partial
		// results (the feed goroutine finishes the run itself).
		apiCfg.Finish = finish
	}
	if st != nil {
		apiCfg.Checkpoint = func() (apiv1.Checkpoint, error) {
			info, err := st.Checkpoint()
			if err != nil {
				return apiv1.Checkpoint{}, err
			}
			logd.Info("checkpoint on request",
				"path", info.Path, "bytes", info.Bytes,
				"processed", info.Processed, "logged", info.Logged)
			return apiv1.Checkpoint{
				Path:      info.Path,
				Bytes:     info.Bytes,
				Logged:    info.Logged,
				Processed: info.Processed,
			}, nil
		}
	}

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fatal("http listen", "addr", *httpAddr, "err", err)
	}
	// Header and idle timeouts bound what a slow or silent peer can pin:
	// without them, a client that never finishes its headers (or parks an
	// idle keep-alive connection forever) holds a file descriptor for the
	// daemon's lifetime. Streaming responses (/api/v1/events) are unaffected
	// — neither bound covers an in-flight response body.
	srv := &http.Server{
		Handler:           api.New(apiCfg).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fatal("http serve", "err", err)
		}
	}()
	logd.Info("service API up",
		"addr", "http://"+ln.Addr().String(),
		"surface", "/api/v1/{stats,campaigns,timeseries,results,checkpoint,samples,events,probe,finish,scenarios,healthz} + /metrics")
	startAuxListeners(logd, fatal, reg, *metricsAddr, *debugAddr)

	drained := make(chan struct{})
	if *noFeed {
		// Pure service mode: the dataflow never drains on its own; remote
		// clients keep submitting until the process is stopped.
	} else {
		go func() {
			defer close(drained)
			if err := replay(ctx, submit, u, *seed, *rate, skip); err != nil {
				logd.Warn("replay aborted", "err", err)
				return
			}
			res, err := finish(ctx)
			if err != nil {
				logd.Error("finish failed", "err", err)
				return
			}
			es := eng.Stats()
			logd.Info("drain complete",
				"analyzed", es.Analyzed, "uptime", es.Uptime.Round(time.Millisecond),
				"samples_per_sec", fmt.Sprintf("%.0f", es.SamplesPerSec),
				"kept", len(res.Records), "campaigns", len(res.Campaigns),
				"xmr", model.FormatXMR(res.TotalXMR), "usd", model.FormatUSD(res.TotalUSD))
			// The paper-style longitudinal breakdown, rendered from the live
			// series the daemon keeps serving at /api/v1/timeseries.
			logd.Info("yearly evolution (data time)\n" + yearlyEvolutionTable(eng.CurrentView().Years))
		}()
	}

	// Periodic checkpoints while ingestion is live (until drain in feed
	// mode; for the whole process lifetime with -no-feed).
	if st != nil && *ckptEvery > 0 {
		go func() {
			t := time.NewTicker(*ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if info, err := st.Checkpoint(); err != nil {
						logd.Warn("periodic checkpoint failed", "err", err)
					} else {
						logd.Debug("periodic checkpoint",
							"path", info.Path, "processed", info.Processed, "logged", info.Logged)
					}
				case <-drained:
					return
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	<-ctx.Done()
	if st != nil {
		// Best-effort parting snapshot on graceful shutdown; the WAL alone
		// already guarantees a correct (if slower) resume.
		if _, err := st.Checkpoint(); err != nil {
			logd.Warn("shutdown checkpoint failed", "err", err)
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
}

// startAuxListeners brings up the optional side listeners: a dedicated
// metrics endpoint (-metrics-addr) and the pprof debug surface (-debug-addr,
// which also mirrors /metrics so one debug port suffices for profiling a
// scrape anomaly). Both serve read-only diagnostics; neither touches the
// ingest path.
func startAuxListeners(logd *slog.Logger, fatal func(string, ...any), reg *obs.Registry, metricsAddr, debugAddr string) {
	// Same slow-peer bounds as the main API server: the side listeners are
	// just as capable of accumulating half-open or parked connections.
	serve := func(ln net.Listener, mux *http.ServeMux, onErr func(error)) {
		srv := &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				onErr(err)
			}
		}()
	}
	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			fatal("metrics listen", "addr", metricsAddr, "err", err)
		}
		serve(ln, mux, func(err error) { logd.Error("metrics serve", "err", err) })
		logd.Info("metrics exposition up", "addr", "http://"+ln.Addr().String()+"/metrics")
	}
	if debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/metrics", reg.Handler())
		ln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			fatal("debug listen", "addr", debugAddr, "err", err)
		}
		serve(ln, mux, func(err error) { logd.Error("debug serve", "err", err) })
		logd.Info("pprof debug surface up", "addr", "http://"+ln.Addr().String()+"/debug/pprof/")
	}
}

// flagValues collects the flags validateFlags fail-fasts on.
type flagValues struct {
	scale         float64
	rate          float64
	ckptEvery     time.Duration
	probeInterval time.Duration
	probeRate     float64
	probeWorkers  int
	apiRate       float64
	apiBurst      int
}

// validateFlags rejects flag values that would otherwise produce undefined
// scheduler behaviour (negative or non-finite rates feeding token buckets and
// tickers, negative durations feeding tickers) with a clear startup error
// instead. Zero keeps its documented sentinel meaning where one exists
// (unlimited / default / disabled).
func validateFlags(v flagValues) error {
	if !(v.scale > 0) || math.IsInf(v.scale, 1) { // also rejects NaN
		return fmt.Errorf("-scale %v: must be finite and > 0", v.scale)
	}
	if !finiteNonNeg(v.rate) {
		return fmt.Errorf("-rate %v: must be finite and >= 0 (0 = unthrottled)", v.rate)
	}
	if _, ok := tickInterval(v.rate); v.rate > 0 && !ok {
		return fmt.Errorf("-rate %v: the tick interval 1s/rate must be at least 1ns and fit a time.Duration", v.rate)
	}
	if v.ckptEvery < 0 {
		return fmt.Errorf("-checkpoint-every %v: must be >= 0 (0 = periodic checkpoints off)", v.ckptEvery)
	}
	if v.probeInterval < 0 {
		return fmt.Errorf("-probe-interval %v: must be >= 0 (0 = probe once)", v.probeInterval)
	}
	if !finiteNonNeg(v.probeRate) {
		return fmt.Errorf("-probe-rate %v: must be finite and >= 0 (0 = unlimited)", v.probeRate)
	}
	if v.probeWorkers < 0 {
		return fmt.Errorf("-probe-workers %d: must be >= 0 (0 = default)", v.probeWorkers)
	}
	if !finiteNonNeg(v.apiRate) {
		return fmt.Errorf("-api-rate %v: must be finite and >= 0 (0 = unlimited)", v.apiRate)
	}
	if v.apiBurst < 0 {
		return fmt.Errorf("-api-burst %d: must be >= 0 (0 = default)", v.apiBurst)
	}
	return nil
}

// finiteNonNeg reports whether x is a finite number >= 0 (false for NaN).
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// tickInterval is the replay ticker period for a positive rate; ok is false
// when 1s/rate is not a positive time.Duration (under 1ns, or too long to
// represent).
func tickInterval(rate float64) (d time.Duration, ok bool) {
	iv := float64(time.Second) / rate
	return time.Duration(iv), iv >= 1 && iv < math.MaxInt64
}

// yearlyEvolutionTable renders the live yearly breakdown as the paper-style
// per-year table, via report.YearBuckets.
func yearlyEvolutionTable(years []stream.YearStats) string {
	samples, newC, active := report.NewYearBuckets(), report.NewYearBuckets(), report.NewYearBuckets()
	for _, y := range years {
		samples.AddN(y.Year, int(y.Samples))
		newC.AddN(y.Year, y.NewCampaigns)
		active.AddN(y.Year, y.ActiveCampaigns)
	}
	return report.YearlyEvolution("Yearly evolution (live series)",
		[]string{"Samples", "New campaigns", "Active campaigns"},
		[]*report.YearBuckets{samples, newC, active}).String()
}

// loadProbeEndpoints parses a -probe-http file: a JSON object mapping pool
// names to their statistics-API base URLs.
func loadProbeEndpoints(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var endpoints map[string]string
	if err := json.Unmarshal(raw, &endpoints); err != nil {
		return nil, fmt.Errorf("parse pool endpoints: %w", err)
	}
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("no pool endpoints defined")
	}
	return endpoints, nil
}

// feedOrder is the seed-deterministic order the feed replays the corpus in.
func feedOrder(u *ecosim.Universe, seed int64) []string {
	hashes := u.Corpus.Hashes()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(hashes), func(i, j int) { hashes[i], hashes[j] = hashes[j], hashes[i] })
	return hashes
}

// feedProgress reports how far into the feed a restored engine already is:
// the length of the longest prefix of the feed order whose samples the
// collector has recorded. The feed submits in order through the WAL, so the
// absorbed feed samples always form a prefix of that order; stopping at the
// first unseen hash can therefore never skip a sample that was lost, while
// anything past the prefix that did survive (or is still in flight from the
// WAL replay) is re-fed and dropped as a duplicate.
func feedProgress(eng *stream.Engine, u *ecosim.Universe, seed int64) int {
	hashes := feedOrder(u, seed)
	n := 0
	for n < len(hashes) && eng.HasSample(hashes[n]) {
		n++
	}
	return n
}

// replay submits the corpus in shuffled (seed-deterministic) order, skipping
// the first skip samples (already absorbed by a previous process) and
// throttled to rate samples/sec when rate > 0.
func replay(ctx context.Context, submit func(context.Context, *model.Sample) error, u *ecosim.Universe, seed int64, rate float64, skip int) error {
	hashes := feedOrder(u, seed)
	if skip > len(hashes) {
		skip = len(hashes)
	}
	hashes = hashes[skip:]

	var tick <-chan time.Time
	if rate > 0 {
		iv, _ := tickInterval(rate)
		t := time.NewTicker(iv)
		defer t.Stop()
		tick = t.C
	}
	for _, h := range hashes {
		if tick != nil {
			select {
			case <-tick:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		sample, ok := u.Corpus.Get(h)
		if !ok {
			continue
		}
		if err := submit(ctx, sample); err != nil {
			return err
		}
	}
	return nil
}

// feedMeta pins the feed a data directory belongs to.
type feedMeta struct {
	Seed    int64   `json:"seed"`
	Scale   float64 `json:"scale"`
	Samples int     `json:"samples"`
}

// checkFeedMeta records the feed parameters in dir on first use and refuses
// to resume against a different feed afterwards.
func checkFeedMeta(dir string, seed int64, scale float64, samples int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "feed.json")
	want := feedMeta{Seed: seed, Scale: scale, Samples: samples}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		buf, _ := json.Marshal(want)
		_, err := persist.WriteFileAtomic(path, func(w io.Writer) error {
			_, err := w.Write(buf)
			return err
		})
		return err
	}
	if err != nil {
		return err
	}
	var have feedMeta
	if err := json.Unmarshal(raw, &have); err != nil {
		return fmt.Errorf("corrupt %s: %w", path, err)
	}
	if have != want {
		return fmt.Errorf("data dir %s was written by a different feed (seed=%d scale=%g samples=%d; this run: seed=%d scale=%g samples=%d) — refusing to resume",
			dir, have.Seed, have.Scale, have.Samples, want.Seed, want.Scale, want.Samples)
	}
	return nil
}
