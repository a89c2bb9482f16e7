package probe_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cryptomining/internal/model"
	"cryptomining/internal/pool"
	"cryptomining/internal/probe"
)

// fakeSource is a scriptable probe.Source that records every fetch with the
// scheduler clock's timestamp.
type fakeSource struct {
	pools []string
	clock probe.Clock
	// respond decides each fetch's outcome; nil answers ErrUnknownUser.
	respond func(pool, wallet string, attempt int) (model.WalletStats, error)

	mu       sync.Mutex
	fetches  map[string][]time.Time // pool -> fetch times
	order    []string               // wallets in first-fetch order
	attempts map[string]int         // pool|wallet -> fetch count
}

func newFakeSource(clock probe.Clock, pools ...string) *fakeSource {
	return &fakeSource{
		pools:    pools,
		clock:    clock,
		fetches:  map[string][]time.Time{},
		attempts: map[string]int{},
	}
}

func (s *fakeSource) Pools() []string { return s.pools }

func (s *fakeSource) Fetch(_ context.Context, poolName, wallet string) (model.WalletStats, error) {
	s.mu.Lock()
	s.fetches[poolName] = append(s.fetches[poolName], s.clock.Now())
	key := poolName + "|" + wallet
	if s.attempts[key] == 0 {
		s.order = append(s.order, wallet)
	}
	s.attempts[key]++
	attempt := s.attempts[key]
	s.mu.Unlock()
	if s.respond == nil {
		return model.WalletStats{}, pool.ErrUnknownUser
	}
	return s.respond(poolName, wallet, attempt)
}

func (s *fakeSource) fetchTimes(pool string) []time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Time(nil), s.fetches[pool]...)
}

func (s *fakeSource) firstFetchOrder() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// waitConverged waits (in real time) for the crawl to drain, advancing the
// fake clock in small steps so rate-limit and backoff timers keep firing.
func waitConverged(t *testing.T, s *probe.Scheduler, clk *probe.FakeClock, step time.Duration) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !s.Converged() {
		if time.Now().After(deadline) {
			st := s.Stats()
			t.Fatalf("crawl never converged (queue=%d in_flight=%d)", st.QueueDepth, st.InFlight)
		}
		if clk != nil {
			clk.Advance(step)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRateLimitNeverExceeded is the politeness guarantee: with a 1 req/sec
// token bucket and four concurrent workers hammering one pool, consecutive
// requests observed by the pool are never closer than the bucket interval.
// The fake clock makes the spacing exact.
func TestRateLimitNeverExceeded(t *testing.T) {
	clk := probe.NewFakeClock(time.Date(2019, 4, 30, 0, 0, 0, 0, time.UTC))
	src := newFakeSource(clk, "pool-a")
	s := probe.New(probe.Config{
		Source:      src,
		Clock:       clk,
		RatePerPool: 1,
		Workers:     4,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Close()

	const wallets = 6
	for i := 0; i < wallets; i++ {
		s.Enqueue(fmt.Sprintf("wallet-%02d", i))
	}
	waitConverged(t, s, clk, 250*time.Millisecond)

	times := src.fetchTimes("pool-a")
	if len(times) != wallets {
		t.Fatalf("got %d fetches, want %d", len(times), wallets)
	}
	for i := 1; i < len(times); i++ {
		if d := times[i].Sub(times[i-1]); d < time.Second {
			t.Fatalf("requests %d and %d only %v apart; rate limit is 1/sec", i-1, i, d)
		}
	}
	st := s.Stats()
	if len(st.Pools) != 1 || st.Pools[0].Throttled <= 0 {
		t.Fatalf("expected throttle time recorded, got %+v", st.Pools)
	}
	if !st.Converged || st.CacheSize != wallets {
		t.Fatalf("unexpected post-crawl stats: %+v", st)
	}
}

// TestPriorityNeverProbedFirst checks the queue discipline: wallets without
// a cache entry outrank refreshes (FIFO among themselves), refreshes run
// stalest-first.
func TestPriorityNeverProbedFirst(t *testing.T) {
	clk := probe.NewFakeClock(time.Date(2019, 4, 30, 0, 0, 0, 0, time.UTC))
	src := newFakeSource(clk, "pool-a")
	s := probe.New(probe.Config{Source: src, Clock: clk, Workers: 1})

	// Seed two cached wallets with different ages, then queue work before
	// any worker runs.
	s.RestoreCache(&probe.CacheState{Entries: []probe.EntryState{
		{Wallet: "old", FetchedAtUnixNano: clk.Now().Add(-2 * time.Hour).UnixNano()},
		{Wallet: "recent", FetchedAtUnixNano: clk.Now().Add(-time.Hour).UnixNano()},
	}})
	if !s.Refresh("recent") || !s.Refresh("old") {
		t.Fatal("refresh of cached wallets not scheduled")
	}
	s.Enqueue("fresh-a")
	s.Enqueue("fresh-b")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Close()
	waitConverged(t, s, clk, 0)

	want := []string{"fresh-a", "fresh-b", "old", "recent"}
	got := src.firstFetchOrder()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("probe order %v, want %v", got, want)
	}
}

// TestTransientRetryWithBackoff: a pool that fails twice with a transport
// error and then answers must yield a clean cache entry after exactly three
// attempts, with the retries counted and the backoff doubling from 50 ms.
func TestTransientRetryWithBackoff(t *testing.T) {
	clk := probe.NewFakeClock(time.Date(2019, 4, 30, 0, 0, 0, 0, time.UTC))
	src := newFakeSource(clk, "pool-a")
	src.respond = func(_, _ string, attempt int) (model.WalletStats, error) {
		if attempt < 3 {
			return model.WalletStats{}, errors.New("connection refused")
		}
		return model.WalletStats{Pool: "pool-a", User: "w", TotalPaid: 1.5}, nil
	}
	s := probe.New(probe.Config{Source: src, Clock: clk, Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Close()
	s.Enqueue("w")
	waitConverged(t, s, clk, 10*time.Millisecond)

	ent, ok := s.Peek("w")
	if !ok || ent.Err != "" {
		t.Fatalf("expected clean entry after retries, got %+v (ok=%v)", ent, ok)
	}
	if ent.Activity.TotalXMR != 1.5 {
		t.Fatalf("activity not collected after retry: %+v", ent.Activity)
	}
	st := s.Stats()
	pc := st.Pools[0]
	if pc.Requests != 3 || pc.Retries != 2 || pc.OK != 1 || pc.Failed != 0 {
		t.Fatalf("unexpected pool counters: %+v", pc)
	}
	times := src.fetchTimes("pool-a")
	if len(times) != 3 {
		t.Fatalf("got %d fetches, want 3", len(times))
	}
	for i, want := range []time.Duration{50 * time.Millisecond, 100 * time.Millisecond} {
		if d := times[i+1].Sub(times[i]); d < want {
			t.Errorf("retry %d came %v after its attempt, want at least %v of backoff", i+1, d, want)
		}
	}
}

// TestTerminalClassification: unknown wallets and opaque pools are terminal
// (single attempt, no retries, no entry error); a pool that stays down
// exhausts all three attempts and is recorded on the entry.
func TestTerminalClassification(t *testing.T) {
	clk := probe.NewFakeClock(time.Date(2019, 4, 30, 0, 0, 0, 0, time.UTC))
	src := newFakeSource(clk, "opaque", "down", "unknown")
	src.respond = func(poolName, _ string, _ int) (model.WalletStats, error) {
		switch poolName {
		case "opaque":
			return model.WalletStats{}, pool.ErrOpaquePool
		case "down":
			return model.WalletStats{}, errors.New("dial tcp: connection refused")
		default:
			return model.WalletStats{}, pool.ErrUnknownUser
		}
	}
	s := probe.New(probe.Config{Source: src, Clock: clk, Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Close()
	s.Enqueue("w")
	waitConverged(t, s, clk, 10*time.Millisecond)

	ent, _ := s.Peek("w")
	if !strings.Contains(ent.Err, "down") || strings.Contains(ent.Err, "unknown") || strings.Contains(ent.Err, "opaque") {
		t.Fatalf("entry error should name only the unreachable pool: %q", ent.Err)
	}
	st := s.Stats()
	if st.CacheErrors != 1 {
		t.Fatalf("CacheErrors = %d, want 1", st.CacheErrors)
	}
	for _, pc := range st.Pools {
		switch pc.Pool {
		case "opaque":
			if pc.Requests != 1 || pc.OpaquePool != 1 || pc.Retries != 0 {
				t.Fatalf("opaque pool counters: %+v", pc)
			}
		case "unknown":
			if pc.Requests != 1 || pc.UnknownWallet != 1 || pc.Retries != 0 {
				t.Fatalf("unknown pool counters: %+v", pc)
			}
		case "down":
			if pc.Requests != 3 || pc.Retries != 2 || pc.Failed != 1 {
				t.Fatalf("down pool counters: %+v", pc)
			}
		}
	}
}

// TestTTLRefresh: with a TTL, the refresh loop re-probes entries once they
// expire — and only then.
func TestTTLRefresh(t *testing.T) {
	clk := probe.NewFakeClock(time.Date(2019, 4, 30, 0, 0, 0, 0, time.UTC))
	src := newFakeSource(clk, "pool-a")
	s := probe.New(probe.Config{Source: src, Clock: clk, Workers: 1, TTL: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Close()

	s.Enqueue("w")
	waitConverged(t, s, nil, 0)
	if got := len(src.fetchTimes("pool-a")); got != 1 {
		t.Fatalf("initial crawl made %d fetches, want 1", got)
	}

	// Inside the TTL nothing is re-probed, however many sweeps run.
	for i := 0; i < 3; i++ {
		clk.Advance(15 * time.Second) // sweep period = TTL/4
		time.Sleep(5 * time.Millisecond)
	}
	waitConverged(t, s, nil, 0)
	if got := len(src.fetchTimes("pool-a")); got != 1 {
		t.Fatalf("re-probed a fresh entry: %d fetches", got)
	}

	// Crossing the TTL re-enqueues the wallet on the next sweep.
	deadline := time.Now().Add(30 * time.Second)
	for len(src.fetchTimes("pool-a")) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("TTL expiry never triggered a re-probe")
		}
		clk.Advance(15 * time.Second)
		time.Sleep(time.Millisecond)
	}
}

// TestEnsureFreshAndCacheRoundTrip: an exported cache restored into a new
// scheduler re-probes only what EnsureFresh deems stale — never the whole
// set.
func TestEnsureFreshAndCacheRoundTrip(t *testing.T) {
	start := time.Date(2019, 4, 30, 0, 0, 0, 0, time.UTC)
	clk := probe.NewFakeClock(start)
	src := newFakeSource(clk, "pool-a")
	s := probe.New(probe.Config{Source: src, Clock: clk, Workers: 1, TTL: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	s.Enqueue("w1")
	s.Enqueue("w2")
	waitConverged(t, s, nil, 0)
	st := s.ExportCache()
	s.Close()
	if len(st.Entries) != 2 {
		t.Fatalf("exported %d entries, want 2", len(st.Entries))
	}

	// Restart 30 minutes later: both entries are inside the TTL, so only the
	// never-probed wallet is scheduled.
	clk2 := probe.NewFakeClock(start.Add(30 * time.Minute))
	src2 := newFakeSource(clk2, "pool-a")
	s2 := probe.New(probe.Config{Source: src2, Clock: clk2, Workers: 1, TTL: time.Hour})
	s2.RestoreCache(st)
	if n := s2.EnsureFresh([]string{"w1", "w2", "w3"}); n != 1 {
		t.Fatalf("EnsureFresh scheduled %d probes, want 1 (only the unknown wallet)", n)
	}
	s2.Start(ctx)
	defer s2.Close()
	waitConverged(t, s2, nil, 0)
	if got := src2.firstFetchOrder(); fmt.Sprint(got) != "[w3]" {
		t.Fatalf("restored crawl probed %v, want only w3", got)
	}

	// Past the TTL the restored entries do qualify (w3, probed 40 minutes
	// ago by this scheduler, is still fresh).
	clk2.Advance(40 * time.Minute)
	if n := s2.EnsureFresh([]string{"w1", "w2", "w3"}); n != 2 {
		t.Fatalf("EnsureFresh after TTL scheduled %d probes, want 2", n)
	}
	waitConverged(t, s2, nil, 0)
}

// TestCollectWalletHitRate: cache reads are counted so the hit rate is
// observable.
func TestCollectWalletHitRate(t *testing.T) {
	clk := probe.NewFakeClock(time.Date(2019, 4, 30, 0, 0, 0, 0, time.UTC))
	src := newFakeSource(clk, "pool-a")
	s := probe.New(probe.Config{Source: src, Clock: clk, Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Close()

	if act := s.CollectWallet("w"); act.TotalXMR != 0 || act.Wallet != "w" {
		t.Fatalf("unexpected empty-cache activity: %+v", act)
	}
	s.Enqueue("w")
	waitConverged(t, s, nil, 0)
	s.CollectWallet("w")
	st := s.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
}

// TestWaitCachedUnaffectedByRefreshChurn pins the Finish-termination
// property: once a wallet has a cache entry, WaitCached returns even while a
// forced re-probe of that same wallet is still in flight (the situation a
// TTL shorter than a full crawl produces continuously).
func TestWaitCachedUnaffectedByRefreshChurn(t *testing.T) {
	gate := make(chan struct{})
	src := newFakeSource(probe.RealClock(), "pool-a")
	src.respond = func(_, wallet string, _ int) (model.WalletStats, error) {
		if wallet == "slow" {
			<-gate
		}
		return model.WalletStats{}, pool.ErrUnknownUser
	}
	s := probe.New(probe.Config{Source: src, Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Close()
	defer close(gate)

	s.Enqueue("fast")
	waitConverged(t, s, nil, 0)

	// A probe of "slow" now blocks the single worker; "fast" stays cached.
	s.Refresh("slow")
	wctx, wcancel := context.WithTimeout(ctx, 5*time.Second)
	defer wcancel()
	if err := s.WaitCached(wctx, []string{"fast"}); err != nil {
		t.Fatalf("WaitCached blocked on an already-cached wallet: %v", err)
	}
	if s.Converged() {
		t.Fatal("fixture broken: crawl should still be busy")
	}
	// And WaitCached on the in-flight wallet must respect the context.
	wctx2, wcancel2 := context.WithTimeout(ctx, 50*time.Millisecond)
	defer wcancel2()
	if err := s.WaitCached(wctx2, []string{"slow"}); err == nil {
		t.Fatal("WaitCached returned before the slow wallet was cached")
	}
}

// TestDisableRefreshStopsSweep: after DisableRefresh the TTL sweep no longer
// re-probes expired entries (manual Refresh still does).
func TestDisableRefreshStopsSweep(t *testing.T) {
	clk := probe.NewFakeClock(time.Date(2019, 4, 30, 0, 0, 0, 0, time.UTC))
	src := newFakeSource(clk, "pool-a")
	s := probe.New(probe.Config{Source: src, Clock: clk, Workers: 1, TTL: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Close()

	s.Enqueue("w")
	waitConverged(t, s, nil, 0)
	s.DisableRefresh()

	for i := 0; i < 12; i++ { // 3 TTLs worth of sweep periods
		clk.Advance(15 * time.Second)
		time.Sleep(2 * time.Millisecond)
	}
	waitConverged(t, s, nil, 0)
	if got := len(src.fetchTimes("pool-a")); got != 1 {
		t.Fatalf("sweep re-probed after DisableRefresh: %d fetches", got)
	}
	if !s.Refresh("w") {
		t.Fatal("manual refresh rejected after DisableRefresh")
	}
	waitConverged(t, s, nil, 0)
	if got := len(src.fetchTimes("pool-a")); got != 2 {
		t.Fatalf("manual refresh did not run: %d fetches", got)
	}
}
