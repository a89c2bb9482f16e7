package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"cryptomining/internal/api"
	"cryptomining/internal/core"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/stream"
	"cryptomining/pkg/apiv1"
	"cryptomining/pkg/client"
)

// testUniverse generates the shared corpus and its batch reference results
// once; both are treated read-only by every test.
var testUniverse = sync.OnceValues(func() (*ecosim.Universe, *stream.Results) {
	u := ecosim.Generate(ecosim.SmallConfig())
	batch, err := core.NewFromUniverse(u).Run()
	if err != nil {
		panic(err)
	}
	return u, batch
})

// daemon is a live engine behind a real HTTP server, driven through the SDK.
type daemon struct {
	u   *ecosim.Universe
	eng *stream.Engine
	ts  *httptest.Server
	cl  *client.Client
}

func newDaemon(t *testing.T, mutate func(*api.Config)) *daemon {
	t.Helper()
	u, _ := testUniverse()
	scfg := core.NewFromUniverse(u).StreamConfig()
	scfg.Shards = 4
	return newDaemonWithEngine(t, stream.New(scfg), mutate)
}

// newDaemonWithEngine is newDaemon over a caller-built engine (so tests can
// attach a prober to the stream config before the engine exists).
func newDaemonWithEngine(t *testing.T, eng *stream.Engine, mutate func(*api.Config)) *daemon {
	t.Helper()
	u, _ := testUniverse()
	d := &daemon{u: u, eng: eng}
	d.eng.Start(context.Background())
	cfg := api.Config{Engine: d.eng, Submit: d.eng.Submit}
	if mutate != nil {
		mutate(&cfg)
	}
	d.ts = httptest.NewServer(api.New(cfg).Handler())
	t.Cleanup(d.ts.Close)
	var err error
	d.cl, err = client.New(d.ts.URL)
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}
	return d
}

// wireCorpus converts the corpus to ingestion requests in shuffled,
// seed-deterministic order.
func wireCorpus(u *ecosim.Universe, seed int64) []apiv1.Sample {
	hashes := u.Corpus.Hashes()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(hashes), func(i, j int) { hashes[i], hashes[j] = hashes[j], hashes[i] })
	out := make([]apiv1.Sample, 0, len(hashes))
	for _, h := range hashes {
		s, ok := u.Corpus.Get(h)
		if !ok {
			continue
		}
		out = append(out, api.SampleToWire(s))
	}
	return out
}

func (d *daemon) finish(t *testing.T) *stream.Results {
	t.Helper()
	res, err := d.eng.Finish(context.Background())
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return res
}

// TestBulkIngestMatchesBatchBitIdentical is the acceptance criterion of the
// API redesign: bulk NDJSON upload of a shuffled feed must produce
// /api/v1/results byte-identical to what the batch pipeline's results
// serialize to, and the campaign listing must match the batch campaigns
// exactly.
func TestBulkIngestMatchesBatchBitIdentical(t *testing.T) {
	u, batch := testUniverse()
	d := newDaemon(t, nil)
	ctx := context.Background()

	// Upload the shuffled feed in a few bulk chunks (exercises several
	// NDJSON request bodies, not just one).
	samples := wireCorpus(u, 99)
	total := 0
	for start := 0; start < len(samples); start += 100 {
		end := min(start+100, len(samples))
		res, err := d.cl.SubmitSamples(ctx, samples[start:end])
		if err != nil {
			t.Fatalf("bulk submit [%d:%d]: %v", start, end, err)
		}
		total += res.Accepted
	}
	if total != len(samples) {
		t.Fatalf("accepted %d of %d", total, len(samples))
	}

	d.finish(t)

	// Byte-level comparison of the served results against the batch run
	// rendered through the same wire struct and encoder settings.
	resp, err := http.Get(d.ts.URL + "/api/v1/results")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/v1/results: status %d: %s", resp.StatusCode, got)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(api.ResultsToWire(batch)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("/api/v1/results not bit-identical to batch:\ngot:  %s\nwant: %s", got, want.Bytes())
	}

	// The typed accessor agrees.
	res, err := d.cl.Results(ctx)
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	if res != api.ResultsToWire(batch) {
		t.Fatalf("typed results differ: %+v vs %+v", res, api.ResultsToWire(batch))
	}

	// Campaign listing equals the batch partition, including IDs, counts,
	// membership identifiers and bit-identical profit figures.
	page, err := d.cl.Campaigns(ctx, client.CampaignQuery{})
	if err != nil {
		t.Fatalf("Campaigns: %v", err)
	}
	want2 := api.ViewsFromResults(batch)
	if page.Total != len(want2) || len(page.Campaigns) != len(want2) {
		t.Fatalf("campaigns: total=%d len=%d want %d", page.Total, len(page.Campaigns), len(want2))
	}
	gotJSON, err := json.Marshal(page.Campaigns)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		for i := range want2 {
			g, _ := json.Marshal(page.Campaigns[i])
			w, _ := json.Marshal(want2[i])
			if !bytes.Equal(g, w) {
				t.Fatalf("campaign %d differs from batch:\ngot:  %s\nwant: %s", i, g, w)
			}
		}
		t.Fatalf("campaign listing differs from batch")
	}
}

func TestPaginationAndFilters(t *testing.T) {
	u, _ := testUniverse()
	d := newDaemon(t, nil)
	ctx := context.Background()
	if _, err := d.cl.SubmitSamples(ctx, wireCorpus(u, 7)); err != nil {
		t.Fatalf("bulk submit: %v", err)
	}
	d.finish(t)

	all, err := d.cl.Campaigns(ctx, client.CampaignQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if all.Total < 5 {
		t.Fatalf("universe too small for pagination test: %d campaigns", all.Total)
	}

	// Windows tile the full listing.
	pageA, err := d.cl.Campaigns(ctx, client.CampaignQuery{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	pageB, err := d.cl.Campaigns(ctx, client.CampaignQuery{Limit: 2, Cursor: pageA.NextCursor})
	if err != nil {
		t.Fatal(err)
	}
	if len(pageA.Campaigns) != 2 || len(pageB.Campaigns) != 2 {
		t.Fatalf("window sizes: %d, %d", len(pageA.Campaigns), len(pageB.Campaigns))
	}
	joined := append(append([]apiv1.Campaign{}, pageA.Campaigns...), pageB.Campaigns...)
	if !reflect.DeepEqual(joined, all.Campaigns[:4]) {
		t.Fatalf("paged windows do not tile the listing")
	}
	if pageB.Total != all.Total || pageB.Offset != 2 || pageB.Limit != 2 {
		t.Fatalf("page metadata: %+v", pageB)
	}

	// Wallet filter: every campaign listing one of its wallets must match
	// exactly the campaigns carrying it.
	var wallet string
	for _, c := range all.Campaigns {
		if len(c.Wallets) > 0 {
			wallet = c.Wallets[0]
			break
		}
	}
	if wallet == "" {
		t.Fatal("no campaign with a wallet")
	}
	byWallet, err := d.cl.Campaigns(ctx, client.CampaignQuery{Wallet: wallet})
	if err != nil {
		t.Fatal(err)
	}
	wantCount := 0
	for _, c := range all.Campaigns {
		for _, w := range c.Wallets {
			if w == wallet {
				wantCount++
				break
			}
		}
	}
	if byWallet.Total != wantCount || wantCount == 0 {
		t.Fatalf("wallet filter: total %d, want %d", byWallet.Total, wantCount)
	}

	// A cursor outlives the listing it was cut from: applied to a listing
	// that is shorter than its position (the same position under the narrower
	// wallet filter) it yields an explicit empty page with the total intact,
	// not an error.
	ahead, err := d.cl.Campaigns(ctx, client.CampaignQuery{Limit: wantCount})
	if err != nil || ahead.NextCursor == "" {
		t.Fatalf("page of %d minted no cursor (err %v)", wantCount, err)
	}
	past, err := d.cl.Campaigns(ctx, client.CampaignQuery{Wallet: wallet, Cursor: ahead.NextCursor})
	if err != nil {
		t.Fatal(err)
	}
	if past.Campaigns == nil || len(past.Campaigns) != 0 || past.Total != wantCount || past.Offset != wantCount {
		t.Fatalf("past-the-end page: %+v", past)
	}

	// Pool filter narrows, min_xmr keeps only earners above the bar.
	var pool string
	for _, c := range all.Campaigns {
		if len(c.Pools) > 0 {
			pool = c.Pools[0]
			break
		}
	}
	if pool != "" {
		byPool, err := d.cl.Campaigns(ctx, client.CampaignQuery{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if byPool.Total == 0 || byPool.Total > all.Total {
			t.Fatalf("pool filter total %d of %d", byPool.Total, all.Total)
		}
		for _, c := range byPool.Campaigns {
			found := false
			for _, p := range c.Pools {
				found = found || p == pool
			}
			if !found {
				t.Fatalf("campaign %d does not mine at %q", c.ID, pool)
			}
		}
	}
	bar := all.Campaigns[0].XMR // only the top earner(s) clear their own bar
	rich, err := d.cl.Campaigns(ctx, client.CampaignQuery{MinXMR: bar})
	if err != nil {
		t.Fatal(err)
	}
	if rich.Total == 0 || rich.Total >= all.Total {
		t.Fatalf("min_xmr filter total %d of %d", rich.Total, all.Total)
	}
	for _, c := range rich.Campaigns {
		if c.XMR < bar {
			t.Fatalf("campaign %d below the bar: %f < %f", c.ID, c.XMR, bar)
		}
	}

	// Detail for every first-page campaign round-trips.
	for _, c := range all.Campaigns[:3] {
		detail, err := d.cl.Campaign(ctx, c.ID)
		if err != nil {
			t.Fatalf("Campaign(%d): %v", c.ID, err)
		}
		if !reflect.DeepEqual(detail.Campaign, c) {
			t.Fatalf("detail summary mismatch for %d: %+v vs %+v", c.ID, detail.Campaign, c)
		}
		if len(detail.SampleHashes) != c.Samples || len(detail.AncillaryHashes) != c.Ancillaries {
			t.Fatalf("detail membership counts for %d", c.ID)
		}
	}
}

func TestErrorDecoding(t *testing.T) {
	ckptErr := errors.New("disk full")
	d := newDaemon(t, func(cfg *api.Config) {
		cfg.Checkpoint = func() (apiv1.Checkpoint, error) { return apiv1.Checkpoint{}, ckptErr }
	})
	ctx := context.Background()

	// Pending results surface as a typed, retryable APIError.
	_, err := d.cl.Results(ctx)
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("Results error: %v", err)
	}
	if ae.StatusCode != http.StatusServiceUnavailable || ae.Code != apiv1.CodeResultsPending {
		t.Fatalf("pending error: %+v", ae)
	}
	if !client.IsPending(err) {
		t.Fatalf("IsPending(%v) = false", err)
	}
	if ae.RetryAfter != time.Second {
		t.Fatalf("RetryAfter %v", ae.RetryAfter)
	}

	// Checkpoint errors map to 500 internal.
	_, err = d.cl.Checkpoint(ctx)
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusInternalServerError || ae.Code != apiv1.CodeInternal {
		t.Fatalf("checkpoint error: %v", err)
	}
	if ae.Message != "disk full" {
		t.Fatalf("checkpoint message %q", ae.Message)
	}

	// Unknown campaign id.
	_, err = d.cl.Campaign(ctx, 424242)
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound || ae.Code != apiv1.CodeNotFound {
		t.Fatalf("not-found error: %v", err)
	}
	if client.IsPending(err) {
		t.Fatal("IsPending on a 404")
	}

	// Invalid sample.
	_, err = d.cl.SubmitSample(ctx, apiv1.Sample{MD5: "only"})
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest || ae.Code != apiv1.CodeBadRequest {
		t.Fatalf("bad-sample error: %v", err)
	}
}

// TestEventStreamAfterDrain checks the terminal semantics: a subscription
// opened after the run drained immediately receives the drained event and
// then EOF, so the documented iteration pattern always terminates.
func TestEventStreamAfterDrain(t *testing.T) {
	u, batch := testUniverse()
	d := newDaemon(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if _, err := d.cl.SubmitSamples(ctx, wireCorpus(u, 3)); err != nil {
		t.Fatalf("bulk submit: %v", err)
	}
	d.finish(t)

	events, err := d.cl.Events(ctx)
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	defer events.Close()
	ev, err := events.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if ev.Type != apiv1.EventDrained || ev.Campaigns != len(batch.Campaigns) {
		t.Fatalf("late subscription got %+v, want terminal drained with %d campaigns", ev, len(batch.Campaigns))
	}
	if _, err := events.Next(); err != io.EOF {
		t.Fatalf("after drained: err %v, want io.EOF", err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	want := apiv1.Checkpoint{Path: "/data/snap-42.snap", Bytes: 1234, Logged: 42, Processed: 40}
	d := newDaemon(t, func(cfg *api.Config) {
		cfg.Checkpoint = func() (apiv1.Checkpoint, error) { return want, nil }
	})
	got, err := d.cl.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("checkpoint: %+v, want %+v", got, want)
	}
}

func TestSingleSubmitAndStats(t *testing.T) {
	d := newDaemon(t, nil)
	ctx := context.Background()
	if err := d.cl.Healthz(ctx); err != nil {
		t.Fatalf("Healthz: %v", err)
	}

	// A content-only sample is hashed server-side and analyzed.
	res, err := d.cl.SubmitSample(ctx, apiv1.Sample{Content: []byte("not really a miner")})
	if err != nil {
		t.Fatalf("SubmitSample: %v", err)
	}
	if res.Accepted != 1 {
		t.Fatalf("accepted %d", res.Accepted)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := d.cl.Stats(ctx)
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		if st.Submitted >= 1 && st.Analyzed >= 1 {
			if st.Shards != 4 {
				t.Fatalf("shards %d", st.Shards)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sample never analyzed: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEventStream consumes the live event stream while a concurrent bulk
// upload runs, and checks the stream ends with the drained event carrying
// the final figures. Run under -race this doubles as the concurrency test
// of the subscription hook.
func TestEventStream(t *testing.T) {
	u, batch := testUniverse()
	d := newDaemon(t, func(cfg *api.Config) {
		// Ample buffer: the reader drains over HTTP while the collector
		// publishes, and drops would make the kept-count assertion flaky.
		cfg.EventBuffer = 16384
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	events, err := d.cl.Events(ctx)
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	defer events.Close()

	type tally struct {
		kept    int
		drained *apiv1.Event
		lastSeq uint64
	}
	got := make(chan tally, 1)
	go func() {
		var tl tally
		for {
			ev, err := events.Next()
			if err != nil {
				got <- tl
				return
			}
			if ev.Seq <= tl.lastSeq {
				t.Errorf("event seq not increasing: %d after %d", ev.Seq, tl.lastSeq)
			}
			tl.lastSeq = ev.Seq
			switch ev.Type {
			case apiv1.EventSampleKept:
				if ev.SHA256 == "" || ev.SampleType == "" {
					t.Errorf("kept event without sample info: %+v", ev)
				}
				tl.kept++
			case apiv1.EventDrained:
				evCopy := ev
				tl.drained = &evCopy
				got <- tl
				return
			}
		}
	}()

	if _, err := d.cl.SubmitSamples(ctx, wireCorpus(u, 5)); err != nil {
		t.Fatalf("bulk submit: %v", err)
	}
	d.finish(t)

	select {
	case tl := <-got:
		if tl.drained == nil {
			t.Fatalf("stream ended without drained event (kept=%d)", tl.kept)
		}
		if tl.kept != len(batch.Records) {
			t.Fatalf("kept events %d, want %d", tl.kept, len(batch.Records))
		}
		if tl.drained.Kept != len(batch.Records) || tl.drained.Campaigns != len(batch.Campaigns) {
			t.Fatalf("drained figures %+v, want kept=%d campaigns=%d",
				tl.drained, len(batch.Records), len(batch.Campaigns))
		}
	case <-ctx.Done():
		t.Fatal("timed out waiting for the event stream")
	}
}
