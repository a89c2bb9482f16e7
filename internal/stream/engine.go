package stream

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cryptomining/internal/binfmt"
	"cryptomining/internal/fuzzyhash"
	"cryptomining/internal/model"
	"cryptomining/internal/obs"
	"cryptomining/internal/probe"
	"cryptomining/internal/static"
	"cryptomining/internal/timeseries"
)

// ErrNotStarted is returned by Submit/Finish before Start.
var ErrNotStarted = errors.New("stream: engine not started")

// ErrFinished is returned by Submit once Finish has closed the intake.
var ErrFinished = errors.New("stream: submit after Finish")

// Engine is the streaming ingestion engine. Typical use:
//
//	eng := stream.New(cfg)
//	eng.Start(ctx)
//	for _, s := range samples { eng.Submit(ctx, s) }
//	res, err := eng.Finish(ctx)
//
// Submit blocks when the bounded dataflow is full (backpressure). Stats and
// CurrentView may be called at any time from any goroutine. The engine owns
// sealing: Finish seals the run exactly once and publishes the sealed
// Results in the view (View.Results), which is what the read tier serves as
// the run's final results.
type Engine struct {
	cfg      Config
	analyzer *static.Analyzer
	stats    *counters
	// obs holds the engine's registered metric instruments (nil members when
	// Config.Metrics is unset); log is the engine's component logger.
	obs engineMetrics
	log *slog.Logger

	in       chan *Task
	outcomes chan *Task
	shards   []*shard

	// mu guards the collector state. Once Start has run, the collector
	// goroutine is its only writer (samples, probe updates and the seal all
	// reach it through collect); mu orders those writes against the readers
	// that need a consistent instant (ExportState, HasSample, SeenWallets,
	// Reference) and against the writers that run while no collector
	// goroutine is live (RestoreState before Start, the scenario seam on a
	// shadow engine that is never started). The read tier does NOT take it:
	// every GET-shaped accessor serves from the last published view.
	mu  sync.Mutex
	col *collector //cryptolint:guardedby mu
	// signature is the collector's campaign.IncrementalAggregator.Signature,
	// which reads only the stock-tool catalogue: the shards' enrich stages
	// call it without mu.
	signature func(*model.Record, []byte) *fuzzyhash.Signature

	// view is the last published read snapshot (see view.go). Swapped under
	// mu, loaded lock-free by readers; never nil (New seeds epoch 0).
	view atomic.Pointer[View]

	// ts is the longitudinal metrics store. The collector records into it
	// while holding mu, so what it holds is consistent with the collector
	// state a checkpoint exports beside it; the store also takes its own
	// RWMutex on every call, which is what lets the timeseries reads
	// (Timeseries, CampaignTimeline) run without mu.
	ts *timeseries.Store

	// ackLow / ackAbove track which submission sequence numbers (SubmitSeq)
	// the collector has fully processed: everything below ackLow, plus the
	// out-of-order window in ackAbove. Guarded by mu, so a state export
	// observes an ack watermark exactly consistent with the collector state.
	ackLow   uint64              //cryptolint:guardedby mu
	ackAbove map[uint64]struct{} //cryptolint:guardedby mu

	// probes carries probe completions to the collector goroutine (buffered
	// like the dataflow's channels, so completions queue while a batch holds
	// mu and join it); seal carries Finish's seal request.
	probes chan probeUpdate
	seal   chan struct{}

	runCtx     context.Context
	startOnce  sync.Once
	finishOnce sync.Once
	// drained closes once the collector has absorbed the last sample; done
	// closes when it exits, after the seal or when the run's context ends.
	drained chan struct{}
	done    chan struct{}
	// started flips once Start has fully initialized the engine. It is
	// atomic because Submit/Finish/Stats may run concurrently with Start;
	// the release/acquire pair also publishes runCtx to submitters.
	started atomic.Bool
	// submitMu orders Submit against Finish: Finish takes the write lock to
	// set finishing before closing the intake, so a concurrent Submit either
	// completes its send first or observes the flag and errors — never a
	// send on a closed channel.
	submitMu  sync.RWMutex
	finishing atomic.Bool

	// subMu guards the event subscriptions (see events.go). It is strictly
	// below mu in the lock order: publish is called with mu held.
	subMu     sync.Mutex
	subs      map[int]chan Event //cryptolint:guardedby subMu
	nextSubID int                //cryptolint:guardedby subMu
	evSeq     uint64             //cryptolint:guardedby subMu
	// evDrops counts events dropped on full subscriber buffers (atomic:
	// read by the metrics exposition while publish writes it).
	evDrops atomic.Int64
	// drainedEv retains the terminal EventDrained so late subscribers still
	// receive it.
	drainedEv *Event //cryptolint:guardedby subMu
}

// engineMetrics is the engine's registered instrument set. All fields are
// nil when metrics are disabled; the hot paths guard on that.
type engineMetrics struct {
	lockHold *obs.Histogram
	// publish times one view publication; rebuilt / reused count, per
	// publication, the campaigns whose cached entry was re-derived and the
	// ones copied as they were.
	publish         *obs.Histogram
	rebuilt, reused *obs.Counter
}

// registerMetrics wires the engine's gauges, counters and histograms into
// the registry. Counter-style families bridge the existing atomic counter
// block via CounterFunc, so the hot path pays nothing new for them; only
// the collector lock-hold and view-publication histograms add clock reads,
// and only when metrics are enabled.
func (e *Engine) registerMetrics(reg *obs.Registry) {
	e.obs.lockHold = reg.Histogram("stream_collector_lock_hold_seconds",
		"Time the collector holds the engine mutex per batch.",
		obs.LatencyBuckets)
	e.obs.publish = reg.Histogram("stream_view_publish_seconds",
		"Time one publication of the read view takes, under the collector mutex.",
		obs.LatencyBuckets)
	const campaignsHelp = "Campaigns in published views, by whether the publication re-priced and re-derived them or reused the cached entry."
	e.obs.rebuilt = reg.Counter("stream_view_campaigns_total", campaignsHelp, obs.L("result", "rebuilt"))
	e.obs.reused = reg.Counter("stream_view_campaigns_total", campaignsHelp, obs.L("result", "reused"))
	reg.GaugeFunc("stream_queue_depth",
		"Samples queued in the engine-wide bounded channels.",
		func() float64 { return float64(len(e.in)) }, obs.L("queue", "intake"))
	reg.GaugeFunc("stream_queue_depth",
		"Samples queued in the engine-wide bounded channels.",
		func() float64 { return float64(len(e.outcomes)) }, obs.L("queue", "outcomes"))
	reg.GaugeFunc("stream_shard_backlog",
		"Samples queued in per-shard stage channels, summed across shards.",
		func() float64 { return float64(e.shardBacklog()) })
	reg.GaugeFunc("stream_shards", "Concurrent stage chains.",
		func() float64 { return float64(len(e.shards)) })
	counterFuncs := []struct {
		name, help string
		src        *atomic.Int64
	}{
		{"stream_samples_submitted_total", "Samples entering the dataflow.", &e.stats.submitted},
		{"stream_samples_analyzed_total", "Distinct samples absorbed by the collector.", &e.stats.analyzed},
		{"stream_samples_duplicate_total", "Re-observed hashes dropped by the collector.", &e.stats.duplicates},
		{"stream_samples_kept_total", "Samples kept in the dataset (miners + ancillaries).", &e.stats.kept},
		{"stream_miners_total", "Kept samples classified as miners.", &e.stats.miners},
		{"stream_illicit_wallet_flips_total", "Below-threshold samples retroactively kept by the illicit-wallet exception.", &e.stats.flips},
	}
	for _, cf := range counterFuncs {
		src := cf.src
		reg.CounterFunc(cf.name, cf.help, func() float64 { return float64(src.Load()) })
	}
	reg.GaugeFunc("stream_campaigns", "Live campaigns discovered so far.",
		func() float64 { return float64(e.stats.campaigns.Load()) })
	reg.GaugeFunc("stream_wallets", "Distinct non-donation wallets priced so far.",
		func() float64 { return float64(e.stats.wallets.Load()) })
	reg.GaugeFunc("stream_profit_xmr", "Running priced-XMR total.", e.stats.liveXMR)
	reg.CounterFunc("stream_events_published_total",
		"Events fanned out to subscribers (before per-subscriber drops).",
		func() float64 {
			e.subMu.Lock()
			defer e.subMu.Unlock()
			return float64(e.evSeq)
		})
	reg.CounterFunc("stream_events_dropped_total",
		"Events dropped because a subscriber's buffer was full.",
		func() float64 { return float64(e.evDrops.Load()) })
	reg.GaugeFunc("stream_event_subscribers", "Live event subscriptions.",
		func() float64 {
			e.subMu.Lock()
			defer e.subMu.Unlock()
			return float64(len(e.subs))
		})
}

// New creates an engine; call Start before submitting. The shard structures
// (channels, caches, sandboxes) are built here so every Engine field is
// immutable after New — Start only launches goroutines, which is what makes
// concurrent Stats/Submit calls racing with Start safe.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:      cfg,
		analyzer: static.New(),
		stats:    newCounters(),
		log:      obs.Component(cfg.Logger, "stream"),
		in:       make(chan *Task, cfg.QueueDepth),
		outcomes: make(chan *Task, cfg.QueueDepth),
		probes:   make(chan probeUpdate, cfg.QueueDepth),
		seal:     make(chan struct{}),
		drained:  make(chan struct{}),
		done:     make(chan struct{}),
		ackLow:   1,
		ackAbove: map[uint64]struct{}{},
		subs:     map[int]chan Event{},
	}
	ts, err := timeseries.NewStore(nil)
	if err != nil {
		panic(err) // the default ladder is valid by construction
	}
	e.ts = ts
	for i := 0; i < cfg.Shards; i++ {
		e.shards = append(e.shards, newShard(e))
	}
	e.col = newCollector(e)
	e.signature = e.col.agg.Signature
	// Epoch 0, stamped like any publication so replayed runs stay identical.
	e.view.Store(&View{Published: e.publishInstant()})
	if cfg.Prober != nil {
		cfg.Prober.SetOnUpdate(e.onProbeUpdate)
	}
	if cfg.Metrics != nil {
		e.registerMetrics(cfg.Metrics)
	}
	return e
}

// probeUpdate is one probe completion on its way to the collector goroutine.
// ack closes once a view covering it is published; pre, set only by tests,
// runs on the collector goroutine just before the update is applied.
type probeUpdate struct {
	probe.Update
	pre func()
	ack chan struct{}
}

// onProbeUpdate is the prober's completion hook. The scheduler decrements its
// in-flight counter after the hook returns, so the hook waits until the
// collector has published a view covering the update: a client that observes
// probe convergence always reads a view covering the final probe.
func (e *Engine) onProbeUpdate(u probe.Update) { e.queueProbe(u, nil)() }

// queueProbe hands one update to the collector and returns the wait for its
// acknowledgement. Once the collector has exited (sealed, or ctx ended) both
// return at once and the update is dropped, as the results are final.
func (e *Engine) queueProbe(u probe.Update, pre func()) (wait func()) {
	ack := make(chan struct{})
	select {
	case e.probes <- probeUpdate{Update: u, pre: pre, ack: ack}:
	case <-e.done:
	}
	return func() {
		select {
		case <-ack:
		case <-e.done:
		}
	}
}

// Start launches the dispatcher, the sharded stage chains and the collector.
// It is idempotent; the first context wins and cancels the whole dataflow.
func (e *Engine) Start(ctx context.Context) {
	e.startOnce.Do(func() {
		e.runCtx = ctx
		e.stats.markStart()

		// Every stage owns (and closes) the channel it writes to, except the
		// final enrich stages, which share the engine-wide outcomes channel:
		// those join enrichWG so the channel closes once ALL shards drain.
		var enrichWG sync.WaitGroup
		for _, s := range e.shards {
			for st := 0; st < numStages-1; st++ {
				go e.runStage(ctx, &s.stages[st], s.chans[st], s.chans[st+1], true, nil)
			}
			enrichWG.Add(1)
			go e.runStage(ctx, &s.stages[numStages-1], s.chans[numStages-1], e.outcomes, false, &enrichWG)
		}
		go func() {
			enrichWG.Wait()
			close(e.outcomes)
		}()
		go e.dispatch(ctx)
		go e.collect(ctx)

		// Publish last: a Submit that observes started also observes runCtx
		// and the launched dataflow.
		e.started.Store(true)
	})
}

// runStage pumps tasks through one stage.
func (e *Engine) runStage(ctx context.Context, st *stage, in <-chan *Task, out chan<- *Task, closeOut bool, wg *sync.WaitGroup) {
	if wg != nil {
		defer wg.Done()
	}
	if closeOut {
		defer close(out)
	}
	for {
		select {
		case <-ctx.Done():
			return
		case it, ok := <-in:
			if !ok {
				return
			}
			st.run(it)
			select {
			case out <- it:
			case <-ctx.Done():
				return
			}
		}
	}
}

// dispatch routes submitted samples to their shard by SHA-256, so all state
// keyed by hash stays shard-local.
func (e *Engine) dispatch(ctx context.Context) {
	defer func() {
		for _, s := range e.shards {
			close(s.in)
		}
	}()
	for {
		select {
		case <-ctx.Done():
			return
		case it, ok := <-e.in:
			if !ok {
				return
			}
			s := e.shards[shardIndex(it.key, len(e.shards))]
			select {
			case s.in <- it:
			case <-ctx.Done():
				return
			}
		}
	}
}

// collect is the collector goroutine, the only writer of collector state
// once Start has run. It absorbs analyzed samples and probe completions in
// batches: one mutex hold applies everything already queued on the outcomes
// and probe channels, then publishes a single view for the whole batch — so
// the view's flat copy amortizes over the batch under load, while a quiet
// feed still republishes after every sample. After the last sample it keeps
// serving probe updates until Finish's seal request or the end of ctx.
func (e *Engine) collect(ctx context.Context) {
	defer close(e.done)
	outcomes := e.outcomes
	// next takes one queued sample or probe update; a closed outcomes channel
	// is set to nil, which never delivers again, and signals the drain.
	next := func(it *Task, more bool, p *probeUpdate) (*Task, *probeUpdate) {
		if !more {
			outcomes = nil
			close(e.drained)
		}
		return it, p
	}
	for {
		var it *Task
		var pu *probeUpdate
		select {
		case <-ctx.Done():
			return
		case <-e.seal:
			e.sealRun()
			return
		case t, more := <-outcomes:
			it, pu = next(t, more, nil)
		case p := <-e.probes:
			it, pu = next(nil, true, &p)
		}
		var analyzed, duplicates int64
		var probed []probeUpdate
		republish := false
		e.mu.Lock()
		var t0 time.Time
		if e.obs.lockHold != nil {
			t0 = time.Now() //cryptolint:allow directclock collector lock-hold telemetry only
		}
		for it != nil || pu != nil {
			// One clock read covers every series point this event records
			// (arrival, keep, retroactive keeps it triggers, a probe's profit
			// delta), keeping the recorded sequence deterministic for a
			// deterministic feed.
			e.col.now = e.cfg.Clock()
			if it != nil {
				// Re-observed hashes count as duplicates, not as analyzed
				// throughput. The sequence ack stays under the mutex so a
				// concurrent state export sees watermark and collector state
				// move as one.
				if e.col.handle(it) {
					analyzed++
					e.ts.Record(timeseries.SeriesSamples, e.col.now, 1)
				} else {
					duplicates++
				}
				if it.seq != 0 {
					e.ackSeq(it.seq)
				}
			} else {
				if pu.pre != nil {
					pu.pre()
				}
				// Only a wallet the dataset has seen can change campaign
				// figures, and only those of the campaign that owns it.
				if e.col.seenWallets[pu.Wallet] {
					e.col.applyProbedActivity(pu.Wallet, pu.Activity)
					e.col.markWalletStale(pu.Wallet)
					republish = true
				}
				probed = append(probed, *pu)
			}
			// Coalesce: absorb whatever is already queued without releasing
			// the mutex.
			it, pu = nil, nil
			select {
			case t, more := <-outcomes:
				it, pu = next(t, more, nil)
			case p := <-e.probes:
				it, pu = next(nil, true, &p)
			default:
			}
		}
		if analyzed > 0 || republish {
			e.publishViewLocked()
		}
		for _, p := range probed {
			ev := Event{Type: EventProfitUpdated, Wallet: p.Wallet, XMR: p.Activity.TotalXMR, USD: p.Activity.TotalUSD,
				Campaigns: int(e.stats.campaigns.Load()), Kept: int(e.stats.kept.Load())}
			if p.Err != "" {
				ev.Type, ev.Error = EventProbeError, p.Err
			}
			e.publish(ev)
		}
		// The analyzed/duplicates bumps come strictly AFTER the view swap:
		// pollers use these counters as the quiescence signal ("all N
		// samples absorbed"), and with lock-free reads the counter order is
		// the only thing guaranteeing that a poller observing analyzed == N
		// then loads a view covering all N samples.
		e.stats.analyzed.Add(analyzed)
		e.stats.duplicates.Add(duplicates)
		if e.obs.lockHold != nil {
			e.obs.lockHold.Observe(time.Since(t0).Seconds()) //cryptolint:allow directclock collector lock-hold telemetry only
		}
		e.mu.Unlock()
		// Acknowledge only after the publication (see onProbeUpdate).
		for _, p := range probed {
			close(p.ack)
		}
	}
}

// sealRun serves Finish's seal request on the collector goroutine. Probes
// cached with their updates still on the way are dropped once the collector
// exits, so the cache is reconciled first. finalize leaves every cached entry
// derived from the final pricing: the sealed publication only copies.
func (e *Engine) sealRun() {
	e.mu.Lock()
	e.col.reconcileProbeCache(slices.Sorted(maps.Keys(e.col.seenWallets)))
	e.col.finalize()
	e.publishViewLocked()
	e.mu.Unlock()
	if p := e.cfg.Prober; p != nil {
		// The results are sealed; automatic re-probes would be discarded, so
		// stop the TTL sweep from hammering pools for nothing.
		p.DisableRefresh()
	}
}

func shardIndex(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

func lowerHash(sha string) string { return strings.ToLower(sha) }

// ackSeq records that the collector has fully processed submission sequence
// seq, advancing the contiguous low watermark. Called under e.mu.
func (e *Engine) ackSeq(seq uint64) {
	if seq < e.ackLow {
		return
	}
	e.ackAbove[seq] = struct{}{}
	for {
		if _, ok := e.ackAbove[e.ackLow]; !ok {
			return
		}
		delete(e.ackAbove, e.ackLow)
		e.ackLow++
	}
}

// Submit feeds one sample into the dataflow, blocking under backpressure.
// Samples without a SHA256 are hashed from their content.
func (e *Engine) Submit(ctx context.Context, sample *model.Sample) error {
	return e.submit(ctx, sample, 0)
}

// SubmitSeq is Submit with a caller-assigned sequence number (> 0), used by
// the persistence layer: the engine acks each sequence once the collector
// has processed it, and exported state carries the ack watermark so a
// write-ahead log knows which entries still need replaying after a restore.
func (e *Engine) SubmitSeq(ctx context.Context, sample *model.Sample, seq uint64) error {
	if seq == 0 {
		return errors.New("stream: sequence numbers start at 1")
	}
	return e.submit(ctx, sample, seq)
}

func (e *Engine) submit(ctx context.Context, sample *model.Sample, seq uint64) error {
	if !e.started.Load() {
		return ErrNotStarted
	}
	e.submitMu.RLock()
	defer e.submitMu.RUnlock()
	if e.finishing.Load() {
		return ErrFinished
	}
	if sample == nil {
		return errors.New("stream: nil sample")
	}
	sha := sample.SHA256
	if sha == "" {
		if len(sample.Content) == 0 {
			return errors.New("stream: sample without hash or content")
		}
		hashed := *sample
		hashed.SHA256, hashed.MD5 = binfmt.Hashes(sample.Content)
		sample = &hashed
		sha = sample.SHA256
	}
	it := &Task{sample: sample, key: lowerHash(sha), seq: seq}
	select {
	case e.in <- it:
		e.stats.submitted.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-e.runCtx.Done():
		return e.runCtx.Err()
	}
}

// Finish closes the intake, waits for the dataflow to drain and seals the
// run: it returns the final results and publishes them as View.Results.
// Submits racing with Finish either land before the intake closes or return
// an error. The collector goroutine seals exactly once: every later or
// concurrent call returns the same *Results, with no second drained event or
// publication. A call whose context expires before the collector takes its
// seal request fails with the context's error and leaves sealing to a later
// call.
func (e *Engine) Finish(ctx context.Context) (*Results, error) {
	if !e.started.Load() {
		return nil, ErrNotStarted
	}
	if res := e.view.Load().Results; res != nil {
		return res, nil
	}
	e.finishOnce.Do(func() {
		e.submitMu.Lock()
		e.finishing.Store(true)
		e.submitMu.Unlock()
		close(e.in)
	})
	select {
	case <-e.drained:
	case <-e.done: // sealed by a concurrent call, or the run's context ended
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	// A run whose context ended may have drained short: it is never sealed.
	if e.runCtx.Err() == nil {
		if p := e.cfg.Prober; p != nil {
			// The probe cache is the profit source: seal only once every
			// wallet the collector enqueued has been probed, so the final
			// figures match the batch pipeline's synchronous collection
			// exactly. Waiting on cache coverage (not queue drain) keeps
			// Finish terminating even when the TTL is shorter than a full
			// crawl and the sweep keeps the queue from ever emptying.
			if err := p.WaitCached(ctx, e.SeenWallets()); err != nil {
				return nil, fmt.Errorf("stream: waiting for probe convergence: %w", err)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		select {
		case e.seal <- struct{}{}:
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	<-e.done
	if res := e.view.Load().Results; res != nil {
		return res, nil
	}
	return nil, fmt.Errorf("stream: ingestion aborted: %w", e.runCtx.Err())
}

// CampaignView is a live, JSON-friendly summary of one campaign.
type CampaignView struct {
	ID          int      `json:"id"`
	Samples     int      `json:"samples"`
	Ancillaries int      `json:"ancillaries"`
	Wallets     []string `json:"wallets,omitempty"`
	Pools       []string `json:"pools,omitempty"`
	XMR         float64  `json:"xmr"`
	USD         float64  `json:"usd"`
	Active      bool     `json:"active"`
}

// CampaignDetail is the full live view of one campaign: the summary fields
// plus membership hashes, enrichment and the profit breakdown.
type CampaignDetail struct {
	CampaignView
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
	// Payments / PoolsUsed / FirstPayment / LastPayment break the campaign's
	// profit down by pool activity.
	Payments     int       `json:"payments"`
	PoolsUsed    int       `json:"pools_used"`
	FirstPayment time.Time `json:"first_payment,omitzero"`
	LastPayment  time.Time `json:"last_payment,omitzero"`
}

// CampaignFilter selects live campaigns by attribute; zero values match
// everything.
type CampaignFilter struct {
	// Pool keeps campaigns that mined at the named pool.
	Pool string
	// Wallet keeps campaigns that used the identifier.
	Wallet string
	// MinXMR keeps campaigns that earned at least this much.
	MinXMR float64
}

// Matches reports whether a published campaign view passes the filter.
func (f CampaignFilter) Matches(v CampaignView) bool {
	if f.MinXMR > 0 && v.XMR < f.MinXMR {
		return false
	}
	if f.Pool != "" && !slices.Contains(v.Pools, f.Pool) {
		return false
	}
	if f.Wallet != "" && !slices.Contains(v.Wallets, f.Wallet) {
		return false
	}
	return true
}

// HasSample reports whether the collector has already recorded an outcome
// for the sample hash (case-insensitive SHA-256). Samples still in flight
// in the stage pipeline are not visible yet; callers using this to avoid
// re-submission must tolerate the false negative (the collector drops
// duplicates by hash, so re-submitting is always safe).
func (e *Engine) HasSample(sha string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.col.outcomes[lowerHash(sha)]
	return ok
}

// ErrUnknownResolution is returned when a timeseries query names a
// resolution the retention ladder has no level for.
var ErrUnknownResolution = errors.New("stream: no timeseries level at that resolution")

// ErrUnknownMetric is returned when a timeseries query names a metric that
// does not exist.
var ErrUnknownMetric = errors.New("stream: no such timeseries metric")

// TimeseriesQuery selects a window of the longitudinal series.
type TimeseriesQuery struct {
	// Metric optionally restricts the result to one series (ecosystem
	// queries) or one timeline metric (campaign queries).
	Metric string
	// Resolution selects the retention level (0 = the finest configured).
	Resolution time.Duration
	// Window bounds the series to the most recent span, resolved against
	// the engine's own recording clock (Config.Clock) — not the
	// caller's wall clock, which may be unrelated when the clock is
	// injected. Overrides From when set.
	Window time.Duration
	// From / To bound bucket start times (Unix seconds; 0 = open end).
	From, To int64
}

// MetricSeries is one named series of a timeseries snapshot.
type MetricSeries struct {
	Name    string
	Buckets []timeseries.Bucket
}

// YearStats is one calendar year of the data-time evolution breakdown.
type YearStats struct {
	Year int
	// Samples counts kept samples first seen (data time) in the year.
	Samples int64
	// NewCampaigns counts campaigns whose activity started in the year;
	// ActiveCampaigns counts campaigns whose first-seen..last-seen span
	// covers it.
	NewCampaigns    int
	ActiveCampaigns int
}

// TimeseriesSnapshot is the result of a timeseries query: the selected
// series at one resolution, plus (for ecosystem queries) the paper-style
// yearly-evolution breakdown over data time.
type TimeseriesSnapshot struct {
	ResolutionSeconds int64
	Series            []MetricSeries
	Years             []YearStats
	// From is the resolved lower bucket bound (Unix seconds) the snapshot
	// was cut at: the query's From, or the window start resolved against the
	// recording clock. Not serialized to the wire — the API layer folds it
	// into the entity tag so windowed responses revalidate correctly as the
	// window slides.
	From int64
}

// resolveTSQuery validates the query against the store's ladder and
// resolves a relative window into an absolute From bound on the engine's
// recording clock. No lock is needed (the ladder is immutable and the clock must be goroutine-safe).
func (e *Engine) resolveTSQuery(q TimeseriesQuery) (TimeseriesQuery, error) {
	if q.Resolution == 0 {
		q.Resolution = e.ts.FinestResolution()
	}
	if !e.ts.HasResolution(q.Resolution) {
		return q, fmt.Errorf("%w: %v (configured: %v)", ErrUnknownResolution, q.Resolution, availableResolutions(e.ts))
	}
	if q.Window > 0 {
		from := e.cfg.Clock().Add(-q.Window).Unix()
		// Align down to the level's bucket boundary so the bucket covering
		// the window start is included — otherwise any window shorter than
		// the elapsed part of the open bucket would filter out the very
		// bucket holding the newest data.
		sec := int64(q.Resolution / time.Second)
		from -= ((from % sec) + sec) % sec
		q.From = from
	}
	return q, nil
}

func availableResolutions(ts *timeseries.Store) []time.Duration {
	var out []time.Duration
	for _, sp := range ts.Levels() {
		out = append(out, sp.Resolution)
	}
	return out
}

// Timeseries snapshots the ecosystem-wide longitudinal series: sample and
// keep arrivals, the campaign-partition gauge, the priced-XMR gauge and the
// per-pool share counters, windowed by the query. Unfiltered queries (no
// Metric) additionally carry the yearly-evolution breakdown (over data
// time, unaffected by the window); metric-filtered queries omit it, keeping
// the polling shape cheap.
func (e *Engine) Timeseries(q TimeseriesQuery) (TimeseriesSnapshot, error) {
	q, err := e.resolveTSQuery(q)
	if err != nil {
		return TimeseriesSnapshot{}, err
	}
	names := e.ts.SeriesNames()
	if q.Metric != "" {
		// Series materialize lazily on first record; a known metric that
		// simply has no data yet answers an empty series, not an error.
		if !slices.Contains(names, q.Metric) && !timeseries.KnownEcosystemMetric(q.Metric) {
			return TimeseriesSnapshot{}, fmt.Errorf("%w: %q (known: %s, %s, %s, %s, %s<name>)",
				ErrUnknownMetric, q.Metric,
				timeseries.SeriesSamples, timeseries.SeriesKept, timeseries.SeriesCampaigns,
				timeseries.SeriesXMR, timeseries.PoolSeriesPrefix)
		}
		names = []string{q.Metric}
	}
	snap := TimeseriesSnapshot{ResolutionSeconds: int64(q.Resolution / time.Second), From: q.From}
	for _, name := range names {
		buckets, _ := e.ts.Buckets(name, q.Resolution, q.From, q.To)
		snap.Series = append(snap.Series, MetricSeries{Name: name, Buckets: buckets})
	}
	if q.Metric == "" {
		// The yearly breakdown is built once per view publication;
		// metric-filtered queries are the high-frequency polling shape and
		// skip it to keep the response small.
		snap.Years = e.view.Load().Years
	}
	return snap, nil
}

// yearStats assembles the data-time yearly breakdown: kept samples per
// first-seen year from the series store, campaign starts and activity spans
// from the collector's roll-up over the cached entries — the live equivalent
// of the paper's yearly evolution tables. Called from the view build under
// e.mu.
func (e *Engine) yearStats() []YearStats {
	samples := e.ts.Years()
	out := make([]YearStats, 0, len(samples)+len(e.col.years))
	for _, yc := range samples {
		out = append(out, YearStats{Year: yc.Year, Samples: yc.Samples})
	}
	for year, t := range e.col.years {
		i, found := slices.BinarySearchFunc(out, year, func(ys YearStats, y int) int { return cmp.Compare(ys.Year, y) })
		if !found {
			out = slices.Insert(out, i, YearStats{Year: year})
		}
		out[i].NewCampaigns, out[i].ActiveCampaigns = t.started, t.active
	}
	return out
}

// CampaignTimeline snapshots one campaign's longitudinal series (sample
// arrivals, wallet first sightings, priced-XMR deltas), windowed by the
// query. The boolean is false when no campaign has the given snapshot ID.
// Timelines follow the campaign through partition merges, so a merged
// campaign's timeline covers the full history of all its constituents.
func (e *Engine) CampaignTimeline(id int, q TimeseriesQuery) (TimeseriesSnapshot, bool, error) {
	timelineMetrics := []string{timeseries.TimelineSamples, timeseries.TimelineWallets, timeseries.TimelineXMR}
	q, err := e.resolveTSQuery(q)
	if err != nil {
		return TimeseriesSnapshot{}, false, err
	}
	metrics := timelineMetrics
	if q.Metric != "" {
		if !slices.Contains(timelineMetrics, q.Metric) {
			return TimeseriesSnapshot{}, false, fmt.Errorf("%w: %q (timeline metrics: %s)",
				ErrUnknownMetric, q.Metric, strings.Join(timelineMetrics, ", "))
		}
		metrics = []string{q.Metric}
	}
	key, ok := e.view.Load().TimelineKey(id)
	if !ok {
		return TimeseriesSnapshot{}, false, nil
	}
	snap := TimeseriesSnapshot{ResolutionSeconds: int64(q.Resolution / time.Second), From: q.From}
	for _, metric := range metrics {
		buckets, _ := e.ts.TimelineBuckets(key, metric, q.Resolution, q.From, q.To)
		snap.Series = append(snap.Series, MetricSeries{Name: metric, Buckets: buckets})
	}
	return snap, true, nil
}

// Stats returns a live snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	s := e.stats.snapshot()
	s.Shards = len(e.shards)
	s.Backpressure = len(e.in) + len(e.outcomes) + e.shardBacklog()
	return s
}

// shardBacklog sums the samples queued in the per-shard stage channels.
func (e *Engine) shardBacklog() int {
	n := 0
	for _, sh := range e.shards {
		for _, ch := range sh.chans {
			n += len(ch)
		}
	}
	return n
}
