package stream_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"cryptomining/internal/core"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/probe"
	"cryptomining/internal/profit"
	"cryptomining/internal/stream"
)

// TestProbeModeMatchesBatch is the probe subsystem's exact-equivalence
// acceptance: an engine whose wallet statistics arrive through the
// asynchronous DirectorySource crawler must, once the probe cache has
// converged (Finish waits for it), produce campaigns and profit figures
// bit-identical to the synchronous batch pipeline — under shuffled,
// concurrent ingestion, and with probe events published along the way. Run
// under -race it doubles as the probe/collector concurrency test.
func TestProbeModeMatchesBatch(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig())
	batch, err := core.NewFromUniverse(u).Run()
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}

	cfg := core.NewFromUniverse(u).StreamConfig()
	cfg.Shards = 4
	cfg.QueueDepth = 8
	prober := probe.New(probe.Config{
		Source:  probe.NewDirectorySource(cfg.Pools, cfg.QueryTime),
		Workers: 4,
	})
	cfg.Prober = prober
	eng := stream.New(cfg)
	ctx := context.Background()
	eng.Start(ctx)
	prober.Start(ctx)
	defer prober.Close()

	events, cancelEvents := eng.Subscribe(1 << 16)
	defer cancelEvents()

	hashes := u.Corpus.Hashes()
	rng := rand.New(rand.NewSource(99))
	rng.Shuffle(len(hashes), func(i, j int) { hashes[i], hashes[j] = hashes[j], hashes[i] })
	for _, h := range hashes {
		sample, ok := u.Corpus.Get(h)
		if !ok {
			continue
		}
		if err := eng.Submit(ctx, sample); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	res, err := eng.Finish(ctx)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	// Finish blocks until every seen wallet is cached; the crawl itself
	// drains moments later (the last worker may still be unwinding).
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := prober.WaitConverged(wctx); err != nil {
		t.Fatalf("crawl never drained after Finish: %v", err)
	}

	// Campaign partition and profit: exact, field for field.
	if len(res.Campaigns) != len(batch.Campaigns) {
		t.Fatalf("campaigns: got %d want %d", len(res.Campaigns), len(batch.Campaigns))
	}
	for i, want := range batch.Campaigns {
		got := res.Campaigns[i]
		if got.ID != want.ID ||
			!reflect.DeepEqual(got.Wallets, want.Wallets) ||
			!reflect.DeepEqual(got.Pools, want.Pools) ||
			got.XMRMined != want.XMRMined ||
			got.USDEarned != want.USDEarned ||
			got.PaymentCount != want.PaymentCount ||
			got.Active != want.Active {
			t.Fatalf("campaign %d differs:\nprobe: %+v\nbatch: %+v", i, got, want)
		}
	}
	if res.TotalXMR != batch.TotalXMR || res.TotalUSD != batch.TotalUSD ||
		res.CirculationShare != batch.CirculationShare {
		t.Fatalf("totals differ: probe (%v XMR, %v USD, %v share) batch (%v XMR, %v USD, %v share)",
			res.TotalXMR, res.TotalUSD, res.CirculationShare,
			batch.TotalXMR, batch.TotalUSD, batch.CirculationShare)
	}
	if len(res.Profits) != len(batch.Profits) {
		t.Fatalf("profits: got %d want %d", len(res.Profits), len(batch.Profits))
	}
	for i := range res.Profits {
		if res.Profits[i].XMR != batch.Profits[i].XMR || res.Profits[i].USD != batch.Profits[i].USD {
			t.Fatalf("profit %d differs: probe (%v, %v) batch (%v, %v)", i,
				res.Profits[i].XMR, res.Profits[i].USD, batch.Profits[i].XMR, batch.Profits[i].USD)
		}
	}

	// The live running totals accumulate per-wallet deltas in probe order, so
	// they agree with the final figure up to float summation order.
	st := eng.Stats()
	if math.Abs(st.TotalXMR-res.TotalXMR) > 1e-6*(1+math.Abs(res.TotalXMR)) {
		t.Fatalf("live TotalXMR %v diverges from final %v", st.TotalXMR, res.TotalXMR)
	}
	if st.Wallets == 0 {
		t.Fatal("no wallets counted as priced")
	}

	// Probe completions surfaced on the event stream.
	profitEvents := 0
	for ev := range events {
		switch ev.Type {
		case stream.EventProfitUpdated:
			profitEvents++
		case stream.EventProbeError:
			t.Fatalf("unexpected probe error event: %+v", ev)
		}
	}
	if profitEvents == 0 {
		t.Fatal("no profit_updated events published")
	}
}

// probedRun is an engine wired to a DirectorySource crawler over a small
// universe, with every sample absorbed. The crawler is not started yet, so
// every wallet the collector enqueued is still waiting for its probe.
type probedRun struct {
	eng    *stream.Engine
	prober *probe.Scheduler
	// slow, once set, makes every wallet read of the collector's pricing
	// take a while, widening the gap between applying a probe update and
	// publishing the view that covers it.
	slow atomic.Bool
}

func newProbedRun(t *testing.T, ctx context.Context) *probedRun {
	t.Helper()
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	cfg := core.NewFromUniverse(u).StreamConfig()
	cfg.Shards = 2
	r := &probedRun{prober: probe.New(probe.Config{
		Source:  probe.NewDirectorySource(cfg.Pools, cfg.QueryTime),
		Workers: 4,
	})}
	cfg.Prober = r.prober
	r.eng = stream.New(cfg)
	r.eng.SetCollect(func(w string) profit.WalletActivity {
		if r.slow.Load() {
			time.Sleep(5 * time.Millisecond)
		}
		return r.prober.CollectWallet(w)
	})
	r.eng.Start(ctx)
	for _, h := range u.Corpus.Hashes() {
		s, _ := u.Corpus.Get(h)
		if err := r.eng.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	waitProcessed(t, r.eng, int64(u.Corpus.Len()))
	if len(r.eng.SeenWallets()) == 0 {
		t.Fatal("the universe has no wallets to probe")
	}
	return r
}

// crawl starts the crawler and waits for it to drain.
func (r *probedRun) crawl(t *testing.T, ctx context.Context) {
	t.Helper()
	r.prober.Start(ctx)
	t.Cleanup(r.prober.Close)
	wctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := r.prober.WaitConverged(wctx); err != nil {
		t.Fatalf("crawl never converged: %v", err)
	}
}

// TestProbeUpdatesCoalesce: probe completions that queue up while the
// collector is busy are absorbed as one batch and publish one view, not one
// view each.
func TestProbeUpdatesCoalesce(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	eng := stream.New(core.NewFromUniverse(u).StreamConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng.Start(ctx)
	for _, h := range u.Corpus.Hashes() {
		s, _ := u.Corpus.Get(h)
		if err := eng.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	waitProcessed(t, eng, int64(u.Corpus.Len()))
	seen := eng.SeenWallets()
	const k = 5
	if len(seen) < k {
		t.Fatalf("%d seen wallets, need %d", len(seen), k)
	}

	before := eng.CurrentView().Epoch
	release := eng.HoldCollectorLock()
	var waits []func()
	for _, w := range seen[:k] {
		act := profit.WalletActivity{Wallet: w, TotalXMR: 1, TotalUSD: 2}
		waits = append(waits, eng.QueueProbeUpdate(probe.Update{Wallet: w, Activity: act}, nil))
	}
	release()
	for _, wait := range waits {
		wait()
	}
	if got := eng.CurrentView().Epoch - before; got != 1 {
		t.Fatalf("%d probe updates queued behind the collector published %d views, want 1", k, got)
	}
}

// TestConvergedViewMatchesReference: once every sample is absorbed and the
// crawl has converged — before Finish — the published view already covers
// every probe: the prober's in-flight count drops only after the view that
// covers the probe is published.
func TestConvergedViewMatchesReference(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := newProbedRun(t, ctx)
	before := r.eng.CurrentView().Epoch
	r.slow.Store(true)
	r.crawl(t, ctx)
	v := r.eng.CurrentView()
	r.slow.Store(false)
	ref, last := r.eng.Reference()
	if last != v {
		t.Fatalf("epoch %d read once the crawl converged, epoch %d published after", v.Epoch, last.Epoch)
	}
	if d := diffReference(ref, v, true); d != "" {
		t.Fatalf("converged crawl, epoch %d: %s", v.Epoch, d)
	}
	if v.Epoch == before {
		t.Fatal("the crawl published no view")
	}
}

// TestProbeEventPerCompletion: every probe completion before the seal
// publishes exactly one profit_updated or probe_error event, also when
// completions are absorbed in one batch — as the ones queued behind the held
// collector mutex here are.
func TestProbeEventPerCompletion(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := newProbedRun(t, ctx)
	events, stop := r.eng.Subscribe(1 << 16)
	defer stop()
	// Fewer than the probe channel holds (Config.QueueDepth), so no send
	// waits on the held mutex.
	seen := r.eng.SeenWallets()
	seen = seen[:min(len(seen), 8)]
	release := r.eng.HoldCollectorLock()
	var waits []func()
	for _, w := range seen {
		waits = append(waits, r.eng.QueueProbeUpdate(probe.Update{Wallet: w, Err: "unreachable: test"}, nil))
	}
	release()
	for _, wait := range waits {
		wait()
	}
	r.crawl(t, ctx)
	want := uint64(len(seen)) + r.prober.Stats().Completed
	if _, err := r.eng.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	var probed uint64
	for ev := range events {
		if ev.Type == stream.EventProfitUpdated || ev.Type == stream.EventProbeError {
			probed++
		}
	}
	if probed != want {
		t.Fatalf("%d probe events for %d probe completions", probed, want)
	}
}

// TestProbeAfterCollectorExitDoesNotBlock: once the collector has exited —
// the run is sealed, or its context ended — a probe completion returns at
// once and is dropped, so the crawl still converges and Close returns.
func TestProbeAfterCollectorExitDoesNotBlock(t *testing.T) {
	for _, how := range []string{"sealed", "cancelled"} {
		t.Run(how, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := newProbedRun(t, ctx)
			r.crawl(t, context.Background())
			if how == "sealed" {
				if _, err := r.eng.Finish(ctx); err != nil {
					t.Fatal(err)
				}
			} else {
				cancel()
				if _, err := r.eng.Finish(context.Background()); err == nil {
					t.Fatal("Finish after the run's context ended sealed the run")
				}
			}
			epoch := r.eng.CurrentView().Epoch
			var ran atomic.Bool
			closed := make(chan struct{})
			go func() {
				defer close(closed)
				w := r.eng.SeenWallets()[0]
				r.eng.InjectProbeUpdate(probe.Update{Wallet: w}, func() { ran.Store(true) })
				if r.prober.RefreshAll() == 0 {
					t.Error("nothing to re-probe")
				}
				wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer wcancel()
				if err := r.prober.WaitConverged(wctx); err != nil {
					t.Errorf("re-probes never converged: %v", err)
				}
				r.prober.Close()
			}()
			select {
			case <-closed:
			case <-time.After(time.Minute):
				t.Fatal("probe completions blocked on an exited collector")
			}
			if ran.Load() {
				t.Error("the update ran on an exited collector")
			}
			if got := r.eng.CurrentView().Epoch; got != epoch {
				t.Fatalf("an exited collector published epoch %d over %d", got, epoch)
			}
		})
	}
}
