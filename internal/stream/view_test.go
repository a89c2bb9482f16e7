package stream_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cryptomining/internal/api"
	"cryptomining/internal/core"
	"cryptomining/internal/dnssim"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/exchange"
	"cryptomining/internal/model"
	"cryptomining/internal/osint"
	"cryptomining/internal/pool"
	"cryptomining/internal/probe"
	"cryptomining/internal/profit"
	"cryptomining/internal/stream"
)

// TestViewCoversQuiescedEngine pins the snapshot ordering guarantee: once
// the counters report every submission handled, the published view reflects
// all of them (counters are bumped strictly after the view swap).
func TestViewCoversQuiescedEngine(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	eng := stream.New(core.NewFromUniverse(u).StreamConfig())
	ctx := context.Background()
	eng.Start(ctx)

	if v := eng.CurrentView(); v.Epoch != 0 || len(v.Campaigns) != 0 {
		t.Fatalf("fresh engine view: epoch %d, %d campaigns, want empty epoch 0", v.Epoch, len(v.Campaigns))
	}

	for _, h := range u.Corpus.Hashes() {
		s, _ := u.Corpus.Get(h)
		if err := eng.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	waitProcessed(t, eng, int64(u.Corpus.Len()))

	v := eng.CurrentView()
	if v.Epoch == 0 {
		t.Fatal("no view published after full ingestion")
	}
	for i := 1; i < len(v.Campaigns); i++ {
		if v.Campaigns[i].XMR > v.Campaigns[i-1].XMR {
			t.Fatalf("view not sorted by XMR at %d", i)
		}
	}
	for _, cv := range v.Campaigns {
		if _, ok := v.Detail(cv.ID); !ok {
			t.Fatalf("campaign %d listed but has no detail view", cv.ID)
		}
	}

	res, err := eng.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	final := eng.CurrentView()
	if final.Epoch <= v.Epoch {
		t.Fatalf("finalize did not publish: epoch %d after %d", final.Epoch, v.Epoch)
	}
	if len(final.Campaigns) != len(res.Campaigns) {
		t.Fatalf("final view %d campaigns, results %d", len(final.Campaigns), len(res.Campaigns))
	}
}

// TestViewReadsDuringIngest hammers the lock-free read surface while the
// engine ingests, checking the invariants every published view must hold:
// epochs never go backwards, listings stay sorted, and details stay in sync
// with the listing. Run with -race this also proves the swap is sound.
func TestViewReadsDuringIngest(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	eng := stream.New(core.NewFromUniverse(u).StreamConfig())
	ctx := context.Background()
	eng.Start(ctx)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := eng.CurrentView()
				if v.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", v.Epoch, lastEpoch)
					return
				}
				lastEpoch = v.Epoch
				for i := 1; i < len(v.Campaigns); i++ {
					if v.Campaigns[i].XMR > v.Campaigns[i-1].XMR {
						t.Errorf("epoch %d: listing unsorted at %d", v.Epoch, i)
						return
					}
				}
				for _, cv := range v.Campaigns {
					d, ok := v.Detail(cv.ID)
					if !ok || d.ID != cv.ID || d.XMR != cv.XMR {
						t.Errorf("epoch %d: detail/listing mismatch for %d", v.Epoch, cv.ID)
						return
					}
				}
				// Exercise the filter the listing handler applies too.
				f := stream.CampaignFilter{MinXMR: 0.001}
				for _, cv := range v.Campaigns {
					if f.Matches(cv) != (cv.XMR >= f.MinXMR) {
						t.Errorf("epoch %d: filter disagrees with XMR %v for %d", v.Epoch, cv.XMR, cv.ID)
						return
					}
				}
			}
		}()
	}

	for _, h := range u.Corpus.Hashes() {
		s, _ := u.Corpus.Get(h)
		if err := eng.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	waitProcessed(t, eng, int64(u.Corpus.Len()))
	close(stop)
	wg.Wait()
	if _, err := eng.Finish(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestReadsDoNotBlockOnCollectorMutex pins the zero-mutex guarantee at the
// engine level: with the collector mutex held, every read-tier method
// returns promptly.
func TestReadsDoNotBlockOnCollectorMutex(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	eng := stream.New(core.NewFromUniverse(u).StreamConfig())
	ctx := context.Background()
	eng.Start(ctx)
	for _, h := range u.Corpus.Hashes() {
		s, _ := u.Corpus.Get(h)
		if err := eng.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	waitProcessed(t, eng, int64(u.Corpus.Len()))

	release := eng.HoldCollectorLock()
	defer release()

	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.Stats()
		if v := eng.CurrentView(); len(v.Campaigns) > 0 {
			v.Detail(v.Campaigns[0].ID)
			eng.CampaignTimeline(v.Campaigns[0].ID, stream.TimeseriesQuery{})
		}
		eng.Timeseries(stream.TimeseriesQuery{})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("read-tier methods blocked on the held collector mutex")
	}
}

// diffReference compares a published view with the full rebuild of the same
// instant (stream.Engine.Reference), field by field and as the bytes
// internal/api would serve, and returns the first difference ("" for none).
func diffReference(ref stream.ReferenceView, v *stream.View, timeseries bool) string {
	if len(v.Campaigns) != len(ref.Campaigns) || len(v.Details) != len(ref.Details) {
		return fmt.Sprintf("view lists %d campaigns and %d details, reference %d and %d",
			len(v.Campaigns), len(v.Details), len(ref.Campaigns), len(ref.Details))
	}
	for i := range ref.Campaigns {
		if !reflect.DeepEqual(v.Campaigns[i], ref.Campaigns[i]) {
			return fmt.Sprintf("listing row %d:\nview      %+v\nreference %+v", i, v.Campaigns[i], ref.Campaigns[i])
		}
	}
	for id := 1; id <= len(ref.Details); id++ {
		want, ok := ref.Details[id]
		if !ok {
			return fmt.Sprintf("reference IDs are not dense: no campaign %d of %d", id, len(ref.Details))
		}
		got, ok := v.Detail(id)
		if !ok || !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("detail %d:\nview      %+v\nreference %+v", id, got, want)
		}
		gotWire, _ := json.Marshal(api.DetailToWire(got))
		wantWire, _ := json.Marshal(api.DetailToWire(want))
		if !bytes.Equal(gotWire, wantWire) {
			return fmt.Sprintf("detail %d on the wire:\nview      %s\nreference %s", id, gotWire, wantWire)
		}
		gotKey, hasKey := v.TimelineKey(id)
		wantKey, wantHas := ref.TimelineKeys[id]
		if gotKey != wantKey || hasKey != wantHas {
			return fmt.Sprintf("timeline key %d: view %q (%t), reference %q (%t)", id, gotKey, hasKey, wantKey, wantHas)
		}
	}
	if _, ok := v.Detail(len(ref.Details) + 1); ok {
		return "view has a detail past the last campaign"
	}
	if timeseries != (v.TimelineKeys != nil) || timeseries != (v.Years != nil) {
		return fmt.Sprintf("timeseries %t, but TimelineKeys nil=%t and Years nil=%t", timeseries, v.TimelineKeys == nil, v.Years == nil)
	}
	if !reflect.DeepEqual(v.Years, ref.Years) {
		return fmt.Sprintf("years:\nview      %+v\nreference %+v", v.Years, ref.Years)
	}
	gotWire, _ := json.Marshal(api.CampaignsToWire(v.Campaigns))
	wantWire, _ := json.Marshal(api.CampaignsToWire(ref.Campaigns))
	if !bytes.Equal(gotWire, wantWire) {
		return "listing differs on the wire"
	}
	gotWire, _ = json.Marshal(api.TimeseriesToWire(stream.TimeseriesSnapshot{Years: v.Years}))
	wantWire, _ = json.Marshal(api.TimeseriesToWire(stream.TimeseriesSnapshot{Years: ref.Years}))
	if !bytes.Equal(gotWire, wantWire) {
		return "years differ on the wire"
	}
	return ""
}

// historyCorpus is one generated ecosystem: the engine configuration it is
// analysed under and its samples.
type historyCorpus struct {
	cfg     func() stream.Config
	samples []*model.Sample
}

// streamedCorpus is the wide benchmark corpus in small: ~0.9 KB bodies over
// many short-lived campaigns.
func streamedCorpus(n int) historyCorpus {
	gen := ecosim.NewStream(ecosim.StreamConfig{Seed: 2019, Ledger: true, ActiveCampaigns: 24})
	samples := make([]*model.Sample, n)
	for i := range samples {
		samples[i] = gen.Next().Sample
	}
	return historyCorpus{samples: samples, cfg: func() stream.Config {
		return stream.Config{
			AV:        gen.AVProvider(),
			Resolver:  dnssim.NewResolver(gen.Zone()),
			Zone:      gen.Zone(),
			Pools:     gen.Pools(),
			Network:   gen.Network(),
			QueryTime: gen.QueryTime(),
		}
	}}
}

// universeCorpus is the materialised universe: droppers, stock tools, PPI
// botnets, CNAME aliases and proxies, so every detail field is exercised.
func universeCorpus() historyCorpus {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	var samples []*model.Sample
	for _, h := range u.Corpus.Hashes() {
		if s, ok := u.Corpus.Get(h); ok {
			samples = append(samples, s)
		}
	}
	return historyCorpus{samples: samples, cfg: func() stream.Config { return core.NewFromUniverse(u).StreamConfig() }}
}

// history drives one engine through a seeded random history and, after every
// step — each is at most one publication — compares the published view with
// the full rebuild.
type history struct {
	t        *testing.T
	name     string
	rng      *rand.Rand
	corpus   historyCorpus
	probed   bool
	truth    *profit.Collector // what the pools really hold
	pools    *pool.Directory
	at       time.Time // the analysis query time
	donation []string

	eng    atomic.Pointer[stream.Engine]
	cancel context.CancelFunc
	prober *probe.Scheduler
	// acts is what the engine's collect seam serves in probed mode. It is
	// only touched under the collector mutex (by collect, and by the pre hook
	// of InjectProbeUpdate).
	acts map[string]profit.WalletActivity

	fed       []*model.Sample // submitted so far, duplicates aside
	processed int64           // analyzed + duplicates the engine must reach
	last      *stream.View
	cover     historyCoverage
}

// historyCoverage counts what the generated histories actually contained, so
// the comparison cannot pass vacuously.
type historyCoverage struct {
	publications, shifted, merged, insertedAhead, ties, firstEarnings, changedEarnings, restores int
}

func (c *historyCoverage) add(o historyCoverage) {
	c.publications += o.publications
	c.shifted += o.shifted
	c.merged += o.merged
	c.insertedAhead += o.insertedAhead
	c.ties += o.ties
	c.firstEarnings += o.firstEarnings
	c.changedEarnings += o.changedEarnings
	c.restores += o.restores
}

func (h *history) engine() *stream.Engine { return h.eng.Load() }

// boot creates and starts an engine (restoring st when given) wired like the
// history's mode.
func (h *history) boot(st *stream.EngineState) {
	cfg := h.corpus.cfg()
	cfg.Shards = 2
	if cfg.OSINT == nil {
		cfg.OSINT = osint.NewDefaultStore()
	}
	if cfg.Rates == nil {
		cfg.Rates = exchange.NewDefaultHistory()
	}
	if h.probed {
		h.prober = probe.New(probe.Config{Source: probe.NewDirectorySource(cfg.Pools, cfg.QueryTime), Workers: 3})
		cfg.Prober = h.prober
	}
	eng := stream.New(cfg)
	if h.probed {
		eng.SetCollect(func(w string) profit.WalletActivity {
			if act, ok := h.acts[w]; ok {
				return act
			}
			return profit.WalletActivity{Wallet: w}
		})
		h.prober.SetOnUpdate(func(u probe.Update) { h.deliver(eng, u) })
	}
	if st != nil {
		if err := eng.RestoreState(st); err != nil {
			h.t.Fatalf("%s: restore: %v", h.name, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	eng.Start(ctx)
	h.eng.Store(eng)
	h.cancel = cancel
	h.truth = profit.NewCollector(cfg.Pools, cfg.Rates, cfg.QueryTime)
	h.pools, h.at = cfg.Pools, cfg.QueryTime
	h.donation = cfg.OSINT.DonationWallets()
}

// deliver hands the engine one probe completion and, in the same hold of the
// collector mutex, makes the collect seam serve its activity.
func (h *history) deliver(eng *stream.Engine, u probe.Update) {
	eng.InjectProbeUpdate(u, func() { h.acts[u.Wallet] = u.Activity })
}

// check compares the current view with the reference and returns it.
func (h *history) check(step string) *stream.View {
	h.t.Helper()
	ref, v := h.engine().Reference()
	if d := diffReference(ref, v, true); d != "" {
		h.t.Fatalf("%s: after %s (epoch %d): %s", h.name, step, v.Epoch, d)
	}
	for i := 1; i < len(v.Campaigns); i++ {
		if v.Campaigns[i].XMR == v.Campaigns[i-1].XMR && v.Campaigns[i].XMR > 0 {
			h.cover.ties++
			break
		}
	}
	return v
}

// step runs one history step, requires it to have published exactly want
// views, and checks the result.
func (h *history) step(name string, want uint64, do func()) {
	h.t.Helper()
	before := h.engine().CurrentView().Epoch
	do()
	waitProcessed(h.t, h.engine(), h.processed)
	v := h.check(name)
	if got := v.Epoch - before; got != want {
		h.t.Fatalf("%s: %s published %d views, want %d", h.name, name, got, want)
	}
	h.cover.publications += int(want)
	h.observe(v)
}

// observe classifies what changed between the last checked view and v.
func (h *history) observe(v *stream.View) {
	if h.last != nil {
		type was struct {
			id  int
			xmr float64
		}
		prev := map[string]was{}
		for _, d := range h.last.Details {
			for _, sha := range append(append([]string(nil), d.SampleHashes...), d.AncillaryHashes...) {
				prev[sha] = was{d.ID, d.XMR}
			}
		}
		for _, d := range v.Details {
			from := map[int]float64{}
			for _, sha := range append(append([]string(nil), d.SampleHashes...), d.AncillaryHashes...) {
				if p, ok := prev[sha]; ok {
					from[p.id] = p.xmr
				}
			}
			switch len(from) {
			case 0:
				if d.ID < len(v.Details) {
					h.cover.insertedAhead++
				}
			case 1:
				for id, xmr := range from {
					if id != d.ID {
						h.cover.shifted++
					}
					if xmr == 0 && d.XMR > 0 {
						h.cover.firstEarnings++
					} else if xmr > 0 && d.XMR != xmr {
						h.cover.changedEarnings++
					}
				}
			default:
				h.cover.merged++
			}
		}
	}
	h.last = v
}

func (h *history) submit(s *model.Sample) {
	if err := h.engine().Submit(context.Background(), s); err != nil {
		h.t.Fatalf("%s: submit: %v", h.name, err)
	}
	h.processed++
}

// scaled returns the wallet's true activity with its totals scaled.
func (h *history) scaled(wallet string, f float64) profit.WalletActivity {
	act := h.truth.CollectWallet(wallet)
	act.TotalXMR *= f
	act.TotalUSD *= f
	return act
}

// run plays the whole history: every sample of the corpus in seeded order,
// interleaved with duplicates, re-pricings, restores, and the finalize.
func (h *history) run() {
	h.boot(nil)
	defer func() { h.cancel() }()
	order := h.rng.Perm(len(h.corpus.samples))
	restoreAt := map[int]bool{len(order) / 3: true, 2 * len(order) / 3: true}
	for n, i := range order {
		s := h.corpus.samples[i]
		h.fed = append(h.fed, s)
		h.step("submit", 1, func() { h.submit(s) })
		switch h.rng.Intn(6) {
		case 0:
			dup := h.fed[h.rng.Intn(len(h.fed))]
			h.step("duplicate submit", 0, func() { h.submit(dup) })
		case 1, 2:
			h.reprice()
		}
		if restoreAt[n] {
			h.restore()
		}
	}
	h.finish()
}

// reprice changes what one or two seen wallets earn and tells the engine:
// through probe completions in probed mode (first the true figure, later
// scaled ones, now and then the exact figure of another wallet, so earnings
// tie), through RepriceScenarioWallets over rewritten pool ledgers otherwise.
// A donation wallet and a wallet the dataset never saw ride along.
func (h *history) reprice() {
	seen := h.engine().SeenWallets()
	if len(seen) == 0 {
		return
	}
	w := seen[h.rng.Intn(len(seen))]
	if !h.probed {
		at := h.at.AddDate(0, -h.rng.Intn(36), 0)
		for _, p := range h.pools.Pools() {
			p.RetractEarningsFrom(w, at)
		}
		wallets := []string{w, "4Anever-seen"}
		if len(h.donation) > 0 {
			wallets = append(wallets, h.donation[0])
		}
		h.step("scenario re-price", 1, func() {
			if err := h.engine().RepriceScenarioWallets(wallets); err != nil {
				h.t.Fatalf("%s: re-price: %v", h.name, err)
			}
		})
		return
	}
	act := h.scaled(w, 1)
	switch h.rng.Intn(4) {
	case 0:
		act = h.scaled(w, 0.25+h.rng.Float64())
	case 1:
		other := h.scaled(seen[h.rng.Intn(len(seen))], 1)
		act.TotalXMR, act.TotalUSD = other.TotalXMR, other.TotalUSD
	}
	h.step("probe update", 1, func() { h.deliver(h.engine(), probe.Update{Wallet: w, Activity: act}) })
	h.step("probe update, unseen wallet", 0, func() {
		h.deliver(h.engine(), probe.Update{Wallet: "4Anever-seen", Activity: act})
	})
	for _, d := range h.donation {
		if slices.Contains(seen, d) {
			h.step("probe update, donation wallet", 1, func() {
				h.deliver(h.engine(), probe.Update{Wallet: d, Activity: h.scaled(d, 1)})
			})
			break
		}
	}
}

// restore exports the state, sends it through gob as a checkpoint would, and
// carries on in a fresh engine restored from it. The entry cache is not part
// of the state: the restore publication rebuilds it.
func (h *history) restore() {
	st := h.engine().ExportState()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		h.t.Fatalf("%s: encode state: %v", h.name, err)
	}
	var decoded stream.EngineState
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		h.t.Fatalf("%s: decode state: %v", h.name, err)
	}
	h.cancel()
	h.boot(&decoded)
	v := h.check("restore")
	if v.Epoch != 1 {
		h.t.Fatalf("%s: restore published epoch %d, want 1", h.name, v.Epoch)
	}
	if len(v.Details) != len(h.last.Details) {
		h.t.Fatalf("%s: %d campaigns after restore, %d before", h.name, len(v.Details), len(h.last.Details))
	}
	h.cover.publications++
	h.cover.restores++
	h.observe(v)
}

// finish seals the run. In probed mode the crawler is only started now: its
// workers deliver every outstanding completion concurrently with a checker
// that keeps comparing whatever view is current, and Finish waits for them.
func (h *history) finish() {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if h.probed {
		h.prober.Start(context.Background())
		defer h.prober.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ref, v := h.engine().Reference()
				if d := diffReference(ref, v, true); d != "" {
					h.t.Errorf("%s: during the crawl (epoch %d): %s", h.name, v.Epoch, d)
					return
				}
			}
		}()
	}
	before := h.engine().CurrentView().Epoch
	res, err := h.engine().Finish(context.Background())
	close(stop)
	wg.Wait()
	if err != nil {
		h.t.Fatalf("%s: finish: %v", h.name, err)
	}
	if h.probed {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := h.prober.WaitConverged(ctx); err != nil {
			h.t.Fatalf("%s: crawl never drained: %v", h.name, err)
		}
	}
	v := h.check("finalize")
	if !h.probed && v.Epoch != before+1 {
		h.t.Fatalf("%s: finalize published %d views, want 1", h.name, v.Epoch-before)
	}
	if len(v.Campaigns) != len(res.Campaigns) {
		h.t.Fatalf("%s: sealed view lists %d campaigns, results %d", h.name, len(v.Campaigns), len(res.Campaigns))
	}
	h.observe(v)
}

// TestIncrementalViewMatchesFullRebuild: on generated histories, every view
// the engine publishes from its entry cache equals the view the full rebuild
// produces from the same state — field by field, and byte for byte through
// the wire conversion of internal/api — with the prober on and off. Run under
// -race it is also the concurrency test of the probe-update path.
func TestIncrementalViewMatchesFullRebuild(t *testing.T) {
	var total historyCoverage
	streamed := func() historyCorpus { return streamedCorpus(350) }
	cases := []struct {
		name   string
		corpus func() historyCorpus
		seed   int64
		probed bool
	}{
		{"streamed", streamed, 1, false},
		{"streamed", streamed, 1, true},
		{"universe", universeCorpus, 3, true},
		{"streamed", streamed, 2, false},
		{"streamed", streamed, 2, true},
		{"universe", universeCorpus, 3, false},
	}
	if raceEnabled {
		// The detector makes analysis and the per-step comparison ~10x
		// dearer; the first three histories still cover every case.
		cases = cases[:3]
	}
	for _, tc := range cases {
		h := &history{
			t:      t,
			name:   fmt.Sprintf("%s/seed=%d/prober=%t", tc.name, tc.seed, tc.probed),
			rng:    rand.New(rand.NewSource(tc.seed)),
			corpus: tc.corpus(),
			probed: tc.probed,
			acts:   map[string]profit.WalletActivity{},
		}
		h.run()
		t.Logf("%s: %+v", h.name, h.cover)
		total.add(h.cover)
	}
	if total.shifted == 0 || total.merged == 0 || total.insertedAhead == 0 || total.ties == 0 ||
		total.firstEarnings == 0 || total.changedEarnings == 0 || total.restores == 0 {
		t.Fatalf("the histories missed a case they exist to cover: %+v", total)
	}
}
