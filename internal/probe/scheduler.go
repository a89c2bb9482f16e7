package probe

import (
	"container/heap"
	"context"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cryptomining/internal/exchange"
	"cryptomining/internal/model"
	"cryptomining/internal/obs"
	"cryptomining/internal/profit"
)

// Entry is one cached probe result: everything the crawler learned about a
// wallet, when it learned it, and which pools could not be reached.
type Entry struct {
	Wallet   string
	Activity profit.WalletActivity
	// FetchedAt is the scheduler-clock time the probe completed; TTL refresh
	// measures staleness against it.
	FetchedAt time.Time
	// Err names the pools that stayed unreachable after retries ("" when the
	// probe completed cleanly). Unknown-wallet and opaque-pool outcomes are
	// not errors — they are facts of the measurement.
	Err string
}

// Update notifies the consumer (the streaming engine) that one probe
// completed. Activity carries whatever was collected, even when Err reports
// partially unreachable pools.
type Update struct {
	Wallet    string
	Activity  profit.WalletActivity
	FetchedAt time.Time
	Err       string
}

const (
	// maxAttempts bounds fetch attempts per (wallet, pool) on transient
	// errors.
	maxAttempts = 3
	// backoffBase is the wait before the first retry; each further retry
	// doubles it, so three attempts wait 50 ms and then 100 ms.
	backoffBase = 50 * time.Millisecond
)

// Config tunes a Scheduler.
type Config struct {
	// Source supplies per-pool wallet statistics (required).
	Source Source
	// Rates converts payments to USD (nil = default synthetic history). Must
	// match the engine's history for profit figures to agree.
	Rates *exchange.History
	// Workers is the probe concurrency cap (default 4). Each worker crawls
	// one wallet across all pools at a time.
	Workers int
	// TTL is how long a cache entry stays fresh; entries older than TTL are
	// re-enqueued by the refresh loop (0 = probe once, never auto-refresh).
	TTL time.Duration
	// RatePerPool caps requests per second against any single pool via a
	// token bucket (0 = unlimited). Real pools throttle aggressive crawlers;
	// the polite crawler never exceeds this, whatever the worker count.
	RatePerPool float64
	// Clock drives all waiting (default: wall clock). A seam for tests,
	// which drive rate limits, backoff and TTL refresh with a FakeClock.
	Clock Clock
	// Metrics, when set, makes the scheduler register its crawl telemetry
	// (queue depth, in-flight probes, cache size/age, per-pool request,
	// retry, terminal-error and rate-limit-wait counters) in the registry.
	Metrics *obs.Registry
	// Logger receives the scheduler's structured logs, scoped
	// component=probe. Nil keeps the crawler silent (the library default).
	Logger *slog.Logger
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock()
	}
	if cfg.Rates == nil {
		cfg.Rates = exchange.NewDefaultHistory()
	}
	return cfg
}

// task is one queued wallet probe.
type task struct {
	wallet string
	// never marks wallets with no cache entry yet — they outrank every
	// refresh.
	never bool
	// fetchedAt orders refreshes stalest-first.
	fetchedAt time.Time
	// seq keeps never-probed wallets FIFO and makes ordering total.
	seq uint64
}

// taskHeap orders tasks: never-probed first (FIFO), then stalest-by-TTL.
type taskHeap []task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.never != b.never {
		return a.never
	}
	if a.never {
		return a.seq < b.seq
	}
	if !a.fetchedAt.Equal(b.fetchedAt) {
		return a.fetchedAt.Before(b.fetchedAt)
	}
	return a.seq < b.seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(task)) }
func (h *taskHeap) Pop() any     { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }

// poolCounters tracks one pool's crawl telemetry. The typed atomics make a
// plain, racing access a compile error.
type poolCounters struct {
	requests       atomic.Uint64
	ok             atomic.Uint64
	unknownWallet  atomic.Uint64
	opaquePool     atomic.Uint64
	retries        atomic.Uint64
	failed         atomic.Uint64
	throttledNanos atomic.Int64
}

// Scheduler runs the crawl: a worker pool draining the priority queue into
// the per-wallet cache, within per-pool rate limits. Create with New, wire
// the consumer with SetOnUpdate, then Start. All exported methods are safe
// for concurrent use; Enqueue and the cache work before Start too (probes
// queue up and run once started), which is how a restored engine re-enqueues
// stale wallets before the daemon brings the crawler up.
type Scheduler struct {
	cfg   Config
	clock Clock

	mu       sync.Mutex
	queue    taskHeap          //cryptolint:guardedby mu
	queued   map[string]bool   //cryptolint:guardedby mu (queued or in flight)
	cache    map[string]*Entry //cryptolint:guardedby mu
	seq      uint64            //cryptolint:guardedby mu
	inflight int               //cryptolint:guardedby mu
	waiters  []chan struct{}   //cryptolint:guardedby mu
	// buckets and pools are populated once in New and immutable after —
	// their values carry their own synchronization (reserve CAS loop,
	// atomic counters) — so neither is annotated as mu-guarded.
	buckets  map[string]*tokenBucket
	pools    map[string]*poolCounters
	onUpdate func(Update)
	started  bool //cryptolint:guardedby mu
	// refreshOff disables the periodic TTL sweep (set once results are
	// finalized).
	refreshOff bool //cryptolint:guardedby mu

	completed atomic.Uint64
	// hits / misses count cache reads (CollectWallet), for the cache-hit-rate
	// benchmark and observability.
	hits   atomic.Uint64
	misses atomic.Uint64

	wake   chan struct{}
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// log is the component logger (never nil; silent by default).
	log *slog.Logger
}

// New builds a scheduler (not yet crawling; call Start).
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:     cfg,
		clock:   cfg.Clock,
		queued:  map[string]bool{},
		cache:   map[string]*Entry{},
		buckets: map[string]*tokenBucket{},
		pools:   map[string]*poolCounters{},
		wake:    make(chan struct{}, 1),
	}
	s.log = obs.Component(cfg.Logger, "probe")
	for _, name := range cfg.Source.Pools() {
		s.buckets[name] = newTokenBucket(cfg.RatePerPool, s.clock.Now())
		s.pools[name] = &poolCounters{}
	}
	if cfg.Metrics != nil {
		s.registerMetrics(cfg.Metrics)
	}
	return s
}

// registerMetrics wires the crawl telemetry into the registry. Everything
// bridges existing counters and state via CounterFunc/GaugeFunc, so the
// crawl itself pays nothing at probe time.
func (s *Scheduler) registerMetrics(reg *obs.Registry) {
	reg.GaugeFunc("probe_queue_depth", "Wallet probes queued.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.queue))
	})
	reg.GaugeFunc("probe_inflight", "Wallet probes currently crawling.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.inflight)
	})
	reg.GaugeFunc("probe_cache_size", "Wallets with a cached probe result.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.cache))
	})
	reg.GaugeFunc("probe_cache_errors", "Cached entries with unreachable pools recorded.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, ent := range s.cache {
			if ent.Err != "" {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("probe_cache_oldest_age_seconds",
		"Age of the stalest cache entry (0 with an empty cache).",
		func() float64 {
			now := s.clock.Now()
			s.mu.Lock()
			defer s.mu.Unlock()
			var oldest float64
			for _, ent := range s.cache {
				if age := now.Sub(ent.FetchedAt).Seconds(); age > oldest {
					oldest = age
				}
			}
			return oldest
		})
	reg.CounterFunc("probe_completed_total", "Probes ever finished (refreshes included).",
		func() float64 { return float64(s.completed.Load()) })
	reg.CounterFunc("probe_cache_hits_total", "CollectWallet reads served from the cache.",
		func() float64 { return float64(s.hits.Load()) })
	reg.CounterFunc("probe_cache_misses_total", "CollectWallet reads missing the cache.",
		func() float64 { return float64(s.misses.Load()) })
	for name, pc := range s.pools {
		lbl := obs.L("pool", name)
		reg.CounterFunc("probe_pool_requests_total", "Fetch attempts against the pool.",
			func() float64 { return float64(pc.requests.Load()) }, lbl)
		reg.CounterFunc("probe_pool_retries_total", "Backoff retry rounds against the pool.",
			func() float64 { return float64(pc.retries.Load()) }, lbl)
		reg.CounterFunc("probe_pool_failed_total",
			"Probes that exhausted retries against the pool (terminal errors).",
			func() float64 { return float64(pc.failed.Load()) }, lbl)
		reg.CounterFunc("probe_pool_throttled_seconds_total",
			"Cumulative time spent waiting on the pool's rate limiter.",
			func() float64 { return time.Duration(pc.throttledNanos.Load()).Seconds() }, lbl)
	}
}

// SetOnUpdate registers the completion consumer (at most one; the streaming
// engine). Must be called before Start.
func (s *Scheduler) SetOnUpdate(fn func(Update)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onUpdate = fn
}

// Start launches the workers and the TTL refresh loop. Idempotent.
func (s *Scheduler) Start(ctx context.Context) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()

	ctx, s.cancel = context.WithCancel(ctx)
	s.log.Info("crawler started",
		"workers", s.cfg.Workers, "ttl", s.cfg.TTL,
		"rate_per_pool", s.cfg.RatePerPool, "pools", len(s.pools))
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(ctx)
	}
	if s.cfg.TTL > 0 {
		s.wg.Add(1)
		go s.refreshLoop(ctx)
	}
}

// Close stops the crawl and waits for in-flight probes to wind down.
func (s *Scheduler) Close() {
	s.mu.Lock()
	cancel := s.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.wg.Wait()
}

// Enqueue schedules a wallet's first probe. Wallets already cached or
// already queued are left alone — freshness is the TTL loop's business, and
// forced re-probes go through Refresh.
func (s *Scheduler) Enqueue(wallet string) {
	if wallet == "" {
		return
	}
	s.mu.Lock()
	if s.queued[wallet] || s.cache[wallet] != nil {
		s.mu.Unlock()
		return
	}
	s.push(task{wallet: wallet, never: true})
	s.mu.Unlock()
	s.signal()
}

// Refresh force-re-probes one wallet, whether or not its entry is fresh
// (no-op if a probe is already queued or running). It reports whether a probe
// was scheduled.
func (s *Scheduler) Refresh(wallet string) bool {
	if wallet == "" {
		return false
	}
	s.mu.Lock()
	defer func() { s.mu.Unlock(); s.signal() }()
	if s.queued[wallet] {
		return false
	}
	t := task{wallet: wallet, never: true}
	if ent := s.cache[wallet]; ent != nil {
		t.never = false
		t.fetchedAt = ent.FetchedAt
	}
	s.push(t)
	return true
}

// RefreshStale re-enqueues every cache entry older than the TTL (or with a
// recorded error, so partially failed probes heal on the next sweep) and
// returns how many were scheduled. With TTL 0 only errored entries qualify.
func (s *Scheduler) RefreshStale() int {
	now := s.clock.Now()
	s.mu.Lock()
	defer func() { s.mu.Unlock(); s.signal() }()
	n := 0
	for w, ent := range s.cache {
		if s.queued[w] {
			continue
		}
		stale := ent.Err != "" || (s.cfg.TTL > 0 && now.Sub(ent.FetchedAt) >= s.cfg.TTL)
		if !stale {
			continue
		}
		s.push(task{wallet: w, fetchedAt: ent.FetchedAt})
		n++
	}
	return n
}

// RefreshAll re-enqueues every cached wallet and returns how many were
// scheduled.
func (s *Scheduler) RefreshAll() int {
	s.mu.Lock()
	defer func() { s.mu.Unlock(); s.signal() }()
	n := 0
	for w, ent := range s.cache {
		if s.queued[w] {
			continue
		}
		s.push(task{wallet: w, fetchedAt: ent.FetchedAt})
		n++
	}
	return n
}

// EnsureFresh schedules probes for exactly the wallets that need one: never
// probed, TTL-expired, or previously errored. A restored engine calls this
// with every wallet it has seen, so a restart mid-convergence resumes the
// remaining probes without re-hammering pools for fresh entries. Returns how
// many probes were scheduled.
func (s *Scheduler) EnsureFresh(wallets []string) int {
	now := s.clock.Now()
	s.mu.Lock()
	defer func() { s.mu.Unlock(); s.signal() }()
	n := 0
	for _, w := range wallets {
		if w == "" || s.queued[w] {
			continue
		}
		ent := s.cache[w]
		if ent == nil {
			s.push(task{wallet: w, never: true})
			n++
			continue
		}
		if ent.Err != "" || (s.cfg.TTL > 0 && now.Sub(ent.FetchedAt) >= s.cfg.TTL) {
			s.push(task{wallet: w, fetchedAt: ent.FetchedAt})
			n++
		}
	}
	return n
}

// push adds one task (caller holds s.mu).
func (s *Scheduler) push(t task) {
	s.seq++
	t.seq = s.seq
	s.queued[t.wallet] = true
	heap.Push(&s.queue, t)
}

// signal wakes one idle worker.
func (s *Scheduler) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Peek returns the cache entry for a wallet, if any.
func (s *Scheduler) Peek(wallet string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent := s.cache[wallet]; ent != nil {
		return *ent, true
	}
	return Entry{}, false
}

// CollectWallet serves a wallet's activity from the cache — the engine's
// profit source. A wallet not probed yet yields empty activity (it prices as
// zero until its probe lands).
func (s *Scheduler) CollectWallet(wallet string) profit.WalletActivity {
	s.mu.Lock()
	ent := s.cache[wallet]
	s.mu.Unlock()
	if ent == nil {
		s.misses.Add(1)
		return profit.WalletActivity{Wallet: wallet}
	}
	s.hits.Add(1)
	return ent.Activity
}

// Converged reports whether the crawl has drained: nothing queued, nothing in
// flight. Only the probe and api tests poll it; binaries read Stats.
func (s *Scheduler) Converged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) == 0 && s.inflight == 0
}

// WaitConverged blocks until the crawl drains (or ctx expires).
func (s *Scheduler) WaitConverged(ctx context.Context) error {
	//cryptolint:allow guardedby the predicate closure runs under s.mu inside wait
	return s.wait(ctx, func() bool { return len(s.queue) == 0 && s.inflight == 0 })
}

// WaitCached blocks until every listed wallet has a cache entry (or ctx
// expires). This is the engine's pre-finalize barrier: unlike WaitConverged
// it is insensitive to TTL churn — a refresh leaves the existing entry in
// place while its re-probe queues, so a crawl slower than its own TTL still
// lets the wait terminate.
func (s *Scheduler) WaitCached(ctx context.Context, wallets []string) error {
	return s.wait(ctx, func() bool {
		for _, w := range wallets {
			//cryptolint:allow guardedby the predicate closure runs under s.mu inside wait
			if w != "" && s.cache[w] == nil {
				return false
			}
		}
		return true
	})
}

// wait parks until done (evaluated under s.mu) holds; waiters are re-woken
// on every probe completion and re-check their predicate.
func (s *Scheduler) wait(ctx context.Context, done func() bool) error {
	for {
		s.mu.Lock()
		if done() {
			s.mu.Unlock()
			return nil
		}
		ch := make(chan struct{})
		s.waiters = append(s.waiters, ch)
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// DisableRefresh turns the periodic TTL sweep off (manual Refresh calls
// still work). The engine calls it once results are finalized: automatic
// re-probes past that point would be discarded anyway, and crawling live
// pools for discarded answers is impolite.
func (s *Scheduler) DisableRefresh() {
	s.mu.Lock()
	s.refreshOff = true
	s.mu.Unlock()
}

// worker drains the queue: pop the highest-priority wallet, crawl it across
// every pool, cache the result, notify the consumer.
func (s *Scheduler) worker(ctx context.Context) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		if len(s.queue) == 0 {
			s.mu.Unlock()
			select {
			case <-ctx.Done():
				return
			case <-s.wake:
				continue
			}
		}
		t := heap.Pop(&s.queue).(task)
		s.inflight++
		more := len(s.queue) > 0
		s.mu.Unlock()
		if more {
			s.signal() // other idle workers can pick up the rest
		}

		s.probe(ctx, t.wallet)

		s.mu.Lock()
		s.inflight--
		delete(s.queued, t.wallet)
		// Wake every waiter on each completion; they re-check their own
		// predicate (convergence, cache coverage) and re-park if unmet.
		var waiters []chan struct{}
		waiters, s.waiters = s.waiters, nil
		s.mu.Unlock()
		for _, ch := range waiters {
			close(ch)
		}
		if ctx.Err() != nil {
			return
		}
	}
}

// probe crawls one wallet across every pool (in sorted pool order, so the
// activity aggregation is deterministic), caches the entry and fires the
// update hook. Aborted probes (context cancellation mid-crawl) cache
// nothing.
func (s *Scheduler) probe(ctx context.Context, wallet string) {
	var perPool []model.WalletStats
	var unreachable []string
	for _, poolName := range s.cfg.Source.Pools() {
		stats, class := s.fetchWithRetry(ctx, poolName, wallet)
		switch class {
		case ErrorNone:
			perPool = append(perPool, stats)
		case ErrorUnreachable:
			if ctx.Err() != nil {
				return // shutdown, not a pool fault: leave the cache alone
			}
			unreachable = append(unreachable, poolName)
		}
	}
	ent := &Entry{
		Wallet:    wallet,
		Activity:  profit.BuildActivity(wallet, perPool, s.cfg.Rates),
		FetchedAt: s.clock.Now(),
	}
	if len(unreachable) > 0 {
		ent.Err = "unreachable: " + strings.Join(unreachable, ", ")
		s.log.Warn("probe finished with unreachable pools",
			"wallet", wallet, "unreachable", unreachable)
	} else {
		s.log.Debug("probe finished",
			"wallet", wallet, "xmr", ent.Activity.TotalXMR, "pools", len(perPool))
	}
	s.mu.Lock()
	s.cache[wallet] = ent
	fn := s.onUpdate
	s.mu.Unlock()
	s.completed.Add(1)
	if fn != nil {
		// Deliberately outside s.mu: the consumer takes its own locks, and
		// nothing may hold the scheduler lock while waiting on them.
		fn(Update{Wallet: wallet, Activity: ent.Activity, FetchedAt: ent.FetchedAt, Err: ent.Err})
	}
}

// fetchWithRetry queries one (wallet, pool) pair within the pool's rate
// limit, retrying transient failures with exponential backoff up to
// maxAttempts.
func (s *Scheduler) fetchWithRetry(ctx context.Context, poolName, wallet string) (model.WalletStats, ErrorClass) {
	pc := s.pools[poolName]
	bucket := s.buckets[poolName]
	backoff := backoffBase
	class := ErrorUnreachable
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if wait := bucket.reserve(s.clock.Now()); wait > 0 {
			pc.throttledNanos.Add(int64(wait))
			select {
			case <-s.clock.After(wait):
			case <-ctx.Done():
				return model.WalletStats{}, ErrorUnreachable
			}
		}
		pc.requests.Add(1)
		stats, err := s.cfg.Source.Fetch(ctx, poolName, wallet)
		class = Classify(err)
		switch class {
		case ErrorNone:
			pc.ok.Add(1)
			return stats, ErrorNone
		case ErrorUnknownWallet:
			pc.unknownWallet.Add(1)
			return model.WalletStats{}, class
		case ErrorOpaquePool:
			pc.opaquePool.Add(1)
			return model.WalletStats{}, class
		}
		if ctx.Err() != nil {
			return model.WalletStats{}, ErrorUnreachable
		}
		if attempt+1 < maxAttempts {
			pc.retries.Add(1)
			select {
			case <-s.clock.After(backoff):
			case <-ctx.Done():
				return model.WalletStats{}, ErrorUnreachable
			}
			backoff *= 2
		}
	}
	pc.failed.Add(1)
	return model.WalletStats{}, class
}

// refreshLoop periodically re-enqueues TTL-expired entries. The sweep period
// is a quarter of the TTL, so a stale entry waits at most 1.25 TTL before its
// refresh probe is queued.
func (s *Scheduler) refreshLoop(ctx context.Context) {
	defer s.wg.Done()
	period := s.cfg.TTL / 4
	if period <= 0 {
		period = s.cfg.TTL
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.clock.After(period):
			s.mu.Lock()
			off := s.refreshOff
			s.mu.Unlock()
			if !off {
				s.RefreshStale()
			}
		}
	}
}

// PoolStats is one pool's crawl telemetry.
type PoolStats struct {
	Pool string
	// Requests counts fetch attempts; OK / UnknownWallet / OpaquePool /
	// Failed classify their outcomes (Failed = transient errors that
	// exhausted retries); Retries counts backoff rounds.
	Requests      uint64
	OK            uint64
	UnknownWallet uint64
	OpaquePool    uint64
	Retries       uint64
	Failed        uint64
	// Throttled is the cumulative time spent waiting on this pool's rate
	// limiter.
	Throttled time.Duration
}

// AgeBucket counts cache entries whose age is <= UpTo (the last bucket has
// UpTo 0, meaning unbounded).
type AgeBucket struct {
	UpTo  time.Duration
	Count int
}

// Stats is a point-in-time snapshot of the crawl.
type Stats struct {
	// QueueDepth / InFlight describe pending work; Converged is both zero.
	QueueDepth int
	InFlight   int
	Converged  bool
	// CacheSize / CacheErrors describe the wallet cache; Completed counts
	// probes ever finished (refreshes included).
	CacheSize   int
	CacheErrors int
	Completed   uint64
	// CacheHits / CacheMisses count CollectWallet reads served from /
	// missing the cache.
	CacheHits   uint64
	CacheMisses uint64
	// Pools is the per-pool telemetry, sorted by pool name.
	Pools []PoolStats
	// Ages is the cache age distribution at snapshot time.
	Ages []AgeBucket
}

// ageBounds are the cache-age histogram buckets (a trailing unbounded bucket
// is appended by Stats).
var ageBounds = []time.Duration{time.Minute, 5 * time.Minute, time.Hour}

// Stats snapshots the scheduler's telemetry.
func (s *Scheduler) Stats() Stats {
	now := s.clock.Now()
	s.mu.Lock()
	st := Stats{
		QueueDepth:  len(s.queue),
		InFlight:    s.inflight,
		Converged:   len(s.queue) == 0 && s.inflight == 0,
		CacheSize:   len(s.cache),
		Completed:   s.completed.Load(),
		CacheHits:   s.hits.Load(),
		CacheMisses: s.misses.Load(),
	}
	ages := make([]AgeBucket, len(ageBounds)+1)
	for i, b := range ageBounds {
		ages[i].UpTo = b
	}
	for _, ent := range s.cache {
		if ent.Err != "" {
			st.CacheErrors++
		}
		age := now.Sub(ent.FetchedAt)
		placed := false
		for i, b := range ageBounds {
			if age <= b {
				ages[i].Count++
				placed = true
				break
			}
		}
		if !placed {
			ages[len(ages)-1].Count++
		}
	}
	st.Ages = ages
	names := make([]string, 0, len(s.pools))
	for name := range s.pools {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		pc := s.pools[name]
		st.Pools = append(st.Pools, PoolStats{
			Pool:          name,
			Requests:      pc.requests.Load(),
			OK:            pc.ok.Load(),
			UnknownWallet: pc.unknownWallet.Load(),
			OpaquePool:    pc.opaquePool.Load(),
			Retries:       pc.retries.Load(),
			Failed:        pc.failed.Load(),
			Throttled:     time.Duration(pc.throttledNanos.Load()),
		})
	}
	return st
}
