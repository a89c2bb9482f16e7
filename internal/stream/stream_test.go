package stream_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cryptomining/internal/core"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/model"
	"cryptomining/internal/stream"
)

// ingestShuffled pushes every corpus sample through a fresh engine in random
// order from several concurrent submitters, then finalizes.
func ingestShuffled(t *testing.T, u *ecosim.Universe, shards, submitters int, seed int64) *stream.Results {
	t.Helper()
	cfg := core.NewFromUniverse(u).StreamConfig()
	cfg.Shards = shards
	cfg.QueueDepth = 8
	eng := stream.New(cfg)
	ctx := context.Background()
	eng.Start(ctx)

	hashes := u.Corpus.Hashes()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(hashes), func(i, j int) { hashes[i], hashes[j] = hashes[j], hashes[i] })

	feed := make(chan string)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range feed {
				sample, ok := u.Corpus.Get(h)
				if !ok {
					continue
				}
				if err := eng.Submit(ctx, sample); err != nil {
					t.Errorf("submit %s: %v", h, err)
					return
				}
			}
		}()
	}
	for _, h := range hashes {
		feed <- h
	}
	close(feed)
	wg.Wait()

	res, err := eng.Finish(ctx)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return res
}

// TestStreamMatchesBatchShuffled is the equivalence guarantee of the
// streaming engine: a shuffled, concurrent ingestion must reproduce the batch
// pipeline's campaigns, wallets and profit figures exactly. Run under -race
// it doubles as the concurrency-correctness test.
func TestStreamMatchesBatchShuffled(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig())
	batch, err := core.NewFromUniverse(u).Run()
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}
	streamed := ingestShuffled(t, u, 8, 4, 1)

	if got, want := len(streamed.Outcomes), len(batch.Outcomes); got != want {
		t.Fatalf("outcomes: got %d want %d", got, want)
	}
	for h, bo := range batch.Outcomes {
		so, ok := streamed.Outcomes[h]
		if !ok {
			t.Fatalf("outcome %s missing from stream", model.ShortHash(h))
		}
		if so.Kept != bo.Kept || so.IsMalware != bo.IsMalware || so.IsMiner != bo.IsMiner ||
			so.Record.Type != bo.Record.Type || so.Record.User != bo.Record.User {
			t.Fatalf("outcome %s differs: stream %+v batch %+v", model.ShortHash(h), so, bo)
		}
	}

	if got, want := len(streamed.Records), len(batch.Records); got != want {
		t.Fatalf("records: got %d want %d", got, want)
	}
	if got, want := len(streamed.MinerRecords), len(batch.MinerRecords); got != want {
		t.Fatalf("miner records: got %d want %d", got, want)
	}
	if got, want := streamed.Identifiers, batch.Identifiers; got != want {
		t.Fatalf("identifiers: got %d want %d", got, want)
	}
	if !reflect.DeepEqual(streamed.CountsBySource, batch.CountsBySource) {
		t.Fatalf("counts by source differ: %v vs %v", streamed.CountsBySource, batch.CountsBySource)
	}
	if !reflect.DeepEqual(streamed.CountsByResource, batch.CountsByResource) {
		t.Fatalf("counts by resource differ: %v vs %v", streamed.CountsByResource, batch.CountsByResource)
	}

	// Campaign partition: identical count, IDs, membership and profit.
	if got, want := len(streamed.Campaigns), len(batch.Campaigns); got != want {
		t.Fatalf("campaign count: got %d want %d", got, want)
	}
	for i, bc := range batch.Campaigns {
		sc := streamed.Campaigns[i]
		if sc.ID != bc.ID {
			t.Fatalf("campaign %d: ID %d vs %d", i, sc.ID, bc.ID)
		}
		if !reflect.DeepEqual(sc.Wallets, bc.Wallets) || !reflect.DeepEqual(sc.Samples, bc.Samples) ||
			!reflect.DeepEqual(sc.Ancillaries, bc.Ancillaries) || !reflect.DeepEqual(sc.Pools, bc.Pools) {
			t.Fatalf("campaign C#%d membership differs:\nstream wallets=%v samples=%d anc=%d pools=%v\nbatch  wallets=%v samples=%d anc=%d pools=%v",
				bc.ID, sc.Wallets, len(sc.Samples), len(sc.Ancillaries), sc.Pools,
				bc.Wallets, len(bc.Samples), len(bc.Ancillaries), bc.Pools)
		}
		if sc.XMRMined != bc.XMRMined || sc.USDEarned != bc.USDEarned || sc.Active != bc.Active {
			t.Fatalf("campaign C#%d profit differs: %.8f/%.2f/%v vs %.8f/%.2f/%v",
				bc.ID, sc.XMRMined, sc.USDEarned, sc.Active, bc.XMRMined, bc.USDEarned, bc.Active)
		}
		if !reflect.DeepEqual(sc.StockTools, bc.StockTools) || !reflect.DeepEqual(sc.PPIBotnets, bc.PPIBotnets) ||
			!reflect.DeepEqual(sc.GroundTruthIDs, bc.GroundTruthIDs) {
			t.Fatalf("campaign C#%d enrichment differs", bc.ID)
		}
	}

	// Headline figures: totals and the top-earner ranking.
	if streamed.TotalXMR != batch.TotalXMR || streamed.TotalUSD != batch.TotalUSD {
		t.Fatalf("totals differ: %.8f/%.2f vs %.8f/%.2f",
			streamed.TotalXMR, streamed.TotalUSD, batch.TotalXMR, batch.TotalUSD)
	}
	if streamed.CirculationShare != batch.CirculationShare {
		t.Fatalf("circulation share differs")
	}
	if got, want := len(streamed.Profits), len(batch.Profits); got != want {
		t.Fatalf("profits: got %d want %d", got, want)
	}
	for i := range batch.Profits {
		if streamed.Profits[i].XMR != batch.Profits[i].XMR {
			t.Fatalf("profit rank %d: %.8f vs %.8f", i, streamed.Profits[i].XMR, batch.Profits[i].XMR)
		}
	}
	if streamed.Aggregation.DonationWalletsSkipped != batch.Aggregation.DonationWalletsSkipped {
		t.Fatalf("donation-wallet skip counts differ: %d vs %d",
			streamed.Aggregation.DonationWalletsSkipped, batch.Aggregation.DonationWalletsSkipped)
	}
}

// TestStreamShardCountInvariance cross-checks two concurrent runs with
// different shard counts and shuffle orders against each other.
func TestStreamShardCountInvariance(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.5))
	a := ingestShuffled(t, u, 2, 2, 7)
	b := ingestShuffled(t, u, 16, 8, 99)
	if len(a.Campaigns) != len(b.Campaigns) || a.TotalXMR != b.TotalXMR {
		t.Fatalf("shard-count variance: %d/%.8f vs %d/%.8f",
			len(a.Campaigns), a.TotalXMR, len(b.Campaigns), b.TotalXMR)
	}
}

// TestEngineStatsAndLive exercises the live-observability surface while an
// ingestion is in flight.
func TestEngineStatsAndLive(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.3))
	cfg := core.NewFromUniverse(u).StreamConfig()
	cfg.Shards = 4
	eng := stream.New(cfg)
	ctx := context.Background()
	eng.Start(ctx)

	hashes := u.Corpus.Hashes()
	half := len(hashes) / 2
	for _, h := range hashes[:half] {
		s, _ := u.Corpus.Get(h)
		if err := eng.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	// The published view must be readable mid-flight.
	_ = eng.CurrentView()
	st := eng.Stats()
	if st.Submitted < int64(half) {
		t.Fatalf("submitted counter %d < %d", st.Submitted, half)
	}
	if st.Shards != 4 {
		t.Fatalf("shards = %d", st.Shards)
	}
	for _, h := range hashes[half:] {
		s, _ := u.Corpus.Get(h)
		if err := eng.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.Analyzed != int64(len(hashes)) {
		t.Fatalf("analyzed %d != corpus %d", st.Analyzed, len(hashes))
	}
	if st.Campaigns != int64(len(res.Campaigns)) {
		t.Fatalf("live campaigns %d != final %d", st.Campaigns, len(res.Campaigns))
	}
	if st.Kept != int64(len(res.Records)) {
		t.Fatalf("live kept %d != records %d", st.Kept, len(res.Records))
	}
	for _, stage := range st.Stages {
		if stage.Processed != int64(len(hashes)) {
			t.Fatalf("stage %s processed %d != %d", stage.Name, stage.Processed, len(hashes))
		}
	}
	views := eng.CurrentView().Campaigns
	if len(views) != len(res.Campaigns) {
		t.Fatalf("view lists %d campaigns, final %d", len(views), len(res.Campaigns))
	}
	for i := 1; i < len(views); i++ {
		if views[i].XMR > views[i-1].XMR {
			t.Fatalf("Live views not sorted by earnings")
		}
	}
}

// TestDuplicateSubmissions feeds the corpus twice: a continuous feed
// re-observes samples, and resubmissions must not double-count anything.
func TestDuplicateSubmissions(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.3))
	once, err := core.NewFromUniverse(u).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.NewFromUniverse(u).StreamConfig()
	cfg.Shards = 4
	eng := stream.New(cfg)
	ctx := context.Background()
	eng.Start(ctx)
	for pass := 0; pass < 2; pass++ {
		for _, h := range u.Corpus.Hashes() {
			s, _ := u.Corpus.Get(h)
			if err := eng.Submit(ctx, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	twice, err := eng.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eng.Stats().Duplicates, int64(u.Corpus.Len()); got != want {
		t.Fatalf("duplicates counter = %d, want %d", got, want)
	}
	if len(twice.Records) != len(once.Records) || len(twice.Campaigns) != len(once.Campaigns) ||
		twice.TotalXMR != once.TotalXMR ||
		twice.Aggregation.DonationWalletsSkipped != once.Aggregation.DonationWalletsSkipped ||
		twice.Aggregation.Graph.EdgeCount() != once.Aggregation.Graph.EdgeCount() {
		t.Fatalf("duplicate ingestion changed results: %d/%d/%.8f vs %d/%d/%.8f",
			len(twice.Records), len(twice.Campaigns), twice.TotalXMR,
			len(once.Records), len(once.Campaigns), once.TotalXMR)
	}
}

// TestEngineCancellation verifies the dataflow unwinds on context cancel.
func TestEngineCancellation(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	cfg := core.NewFromUniverse(u).StreamConfig()
	cfg.Shards = 2
	cfg.QueueDepth = 1
	eng := stream.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	eng.Start(ctx)
	hashes := u.Corpus.Hashes()
	for _, h := range hashes[:10] {
		s, _ := u.Corpus.Get(h)
		if err := eng.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	// Submission must fail fast now (possibly after draining the buffer).
	var submitErr error
	for _, h := range hashes[10:] {
		s, _ := u.Corpus.Get(h)
		if submitErr = eng.Submit(ctx, s); submitErr != nil {
			break
		}
	}
	if submitErr == nil {
		t.Fatal("submit kept succeeding after cancel")
	}
	if _, err := eng.Finish(context.Background()); err == nil {
		t.Fatal("finish succeeded after cancel")
	}
}

// TestFinishSealsOnce: the engine seals a run exactly once. A Finish whose
// context is already cancelled gets the context's error and leaves the run
// unsealed for a later call; concurrent calls all get the one *Results, which
// the view publishes; a later call neither publishes again nor emits a
// second drained event.
func TestFinishSealsOnce(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.1))
	cfg := core.NewFromUniverse(u).StreamConfig()
	cfg.Shards = 2
	eng := stream.New(cfg)
	ctx := context.Background()
	eng.Start(ctx)
	for _, h := range u.Corpus.Hashes() {
		s, _ := u.Corpus.Get(h)
		if err := eng.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if res, err := eng.Finish(cancelled); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("Finish on a cancelled context = %p, %v; want nil, context.Canceled", res, err)
	}
	if eng.CurrentView().Results != nil {
		t.Fatal("a cancelled Finish sealed the run")
	}

	const callers = 8
	got := make([]*stream.Results, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.Finish(ctx)
			if err != nil {
				t.Errorf("Finish: %v", err)
			}
			got[i] = res
		}()
	}
	wg.Wait()
	sealed := got[0]
	if sealed == nil {
		t.Fatal("Finish returned no results")
	}
	for i, res := range got {
		if res != sealed {
			t.Fatalf("caller %d got Results %p, caller 0 got %p", i, res, sealed)
		}
	}
	v := eng.CurrentView()
	if v.Results != sealed {
		t.Fatalf("view carries Results %p, Finish returned %p", v.Results, sealed)
	}

	// drained returns the single event a late subscriber receives.
	drained := func() stream.Event {
		t.Helper()
		ch, _ := eng.Subscribe(4)
		var evs []stream.Event
		for ev := range ch {
			evs = append(evs, ev)
		}
		if len(evs) != 1 || evs[0].Type != stream.EventDrained {
			t.Fatalf("late subscriber got %+v, want one drained event", evs)
		}
		return evs[0]
	}
	first := drained()

	for _, c := range []context.Context{ctx, cancelled} {
		if res, err := eng.Finish(c); err != nil || res != sealed {
			t.Fatalf("Finish after the seal = %p, %v; want %p", res, err, sealed)
		}
	}
	if after := eng.CurrentView(); after.Epoch != v.Epoch {
		t.Errorf("Finish after the seal published epoch %d over %d", after.Epoch, v.Epoch)
	}
	if again := drained(); again.Seq != first.Seq {
		t.Errorf("Finish after the seal emitted drained seq %d over %d", again.Seq, first.Seq)
	}
}

// TestStreamSpeedupMultiCore asserts the headline scaling property — the
// sharded engine beats the one-shard batch pipeline by >= 2x — on hosts
// with enough cores to express it. Single-core hosts skip (there is no
// parallelism to win).
func TestStreamSpeedupMultiCore(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock speedup is not meaningful under the race detector")
	}
	cores := runtime.GOMAXPROCS(0)
	if cores < 4 {
		t.Skipf("need >= 4 cores for a stable >= 2x assertion, have %d", cores)
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	u := ecosim.Generate(ecosim.DefaultConfig().Scale(0.25))
	run := func(shards int) time.Duration {
		cfg := core.NewFromUniverse(u).StreamConfig()
		cfg.Shards = shards
		eng := stream.New(cfg)
		ctx := context.Background()
		start := time.Now()
		eng.Start(ctx)
		for _, h := range u.Corpus.Hashes() {
			s, _ := u.Corpus.Get(h)
			if err := eng.Submit(ctx, s); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Finish(ctx); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	batch := run(1)
	streamed := run(cores)
	speedup := float64(batch) / float64(streamed)
	t.Logf("batch %v, stream(%d shards) %v, speedup %.2fx", batch, cores, streamed, speedup)
	// Shared CI runners are noisy, so the always-on bound only catches the
	// engine losing its parallelism outright; dedicated multi-core hardware
	// (STREAM_SPEEDUP_STRICT=1) asserts the full >= 2x acceptance criterion.
	threshold := 1.3
	if os.Getenv("STREAM_SPEEDUP_STRICT") == "1" {
		threshold = 2
	}
	if speedup < threshold {
		t.Errorf("streaming speedup %.2fx < %.1fx on %d cores", speedup, threshold, cores)
	}
}

// TestSubmitBeforeStart covers the misuse guard.
func TestSubmitBeforeStart(t *testing.T) {
	eng := stream.New(stream.Config{})
	if err := eng.Submit(context.Background(), &model.Sample{SHA256: strings.Repeat("a", 64)}); err == nil {
		t.Fatal("expected ErrNotStarted")
	}
}
