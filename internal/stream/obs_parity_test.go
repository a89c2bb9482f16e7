package stream_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cryptomining/internal/core"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/obs"
	"cryptomining/internal/stream"
)

// TestStreamWithMetricsMatchesBatch re-runs the shuffled-ingestion
// equivalence check with the full observability stack enabled: a metrics
// registry and a (discarded) structured logger. Instrumentation must be
// purely observational — results stay bit-identical to the batch pipeline —
// and the exposition's per-stage histogram counts must agree exactly with
// the engine's StageStats.
func TestStreamWithMetricsMatchesBatch(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig())
	batch, err := core.NewFromUniverse(u).Run()
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}

	reg := obs.NewRegistry()
	cfg := core.NewFromUniverse(u).StreamConfig()
	cfg.Shards = 8
	cfg.QueueDepth = 8
	cfg.Metrics = reg
	cfg.Logger = obs.NopLogger()
	eng := stream.New(cfg)
	ctx := context.Background()
	eng.Start(ctx)

	hashes := u.Corpus.Hashes()
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(hashes), func(i, j int) { hashes[i], hashes[j] = hashes[j], hashes[i] })

	feed := make(chan string)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
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

	streamed, err := eng.Finish(ctx)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}

	// Results must be bit-identical to the batch pipeline, metrics or not.
	if streamed.TotalXMR != batch.TotalXMR || streamed.TotalUSD != batch.TotalUSD {
		t.Fatalf("totals differ with metrics enabled: %.8f/%.2f vs %.8f/%.2f",
			streamed.TotalXMR, streamed.TotalUSD, batch.TotalXMR, batch.TotalUSD)
	}
	if got, want := len(streamed.Outcomes), len(batch.Outcomes); got != want {
		t.Fatalf("outcomes: got %d want %d", got, want)
	}
	if got, want := len(streamed.Campaigns), len(batch.Campaigns); got != want {
		t.Fatalf("campaigns: got %d want %d", got, want)
	}
	for i, bc := range batch.Campaigns {
		sc := streamed.Campaigns[i]
		if sc.ID != bc.ID || sc.XMRMined != bc.XMRMined || sc.USDEarned != bc.USDEarned ||
			!reflect.DeepEqual(sc.Wallets, bc.Wallets) {
			t.Fatalf("campaign %d differs with metrics enabled", bc.ID)
		}
	}

	// The exposition's per-stage counts must agree with StageStats exactly.
	var b strings.Builder
	reg.WritePrometheus(&b)
	exposition := b.String()
	counts := parseStageCounts(t, exposition)
	for _, st := range eng.Stats().Stages {
		if got, ok := counts[st.Name]; !ok || got != st.Processed {
			t.Errorf("stage %q: exposition count %d (present %v), StageStats %d",
				st.Name, got, ok, st.Processed)
		}
	}

	// Core counter families must reflect the run.
	for _, want := range []string{
		fmt.Sprintf("stream_samples_submitted_total %d", len(hashes)),
		fmt.Sprintf("stream_samples_analyzed_total %d", len(hashes)),
		"stream_collector_lock_hold_seconds_count",
		"stream_shards 8",
		// One observation per publication: the histogram count is the epoch.
		fmt.Sprintf("stream_view_publish_seconds_count %d", eng.CurrentView().Epoch),
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every campaign of every published view was either re-derived or reused,
	// and over a whole ingestion most are reused.
	rebuilt := seriesValue(t, exposition, `stream_view_campaigns_total{result="rebuilt"}`)
	reused := seriesValue(t, exposition, `stream_view_campaigns_total{result="reused"}`)
	if rebuilt < float64(len(streamed.Campaigns)) || reused <= rebuilt {
		t.Errorf("stream_view_campaigns_total: %v rebuilt, %v reused over %d campaigns", rebuilt, reused, len(streamed.Campaigns))
	}
}

// seriesValue returns the value of one exactly named series of a text
// exposition.
func seriesValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("exposition has no series %s", series)
	return 0
}

// parseStageCounts extracts stream_stage_duration_seconds_count{stage=...}
// series from a text exposition.
func parseStageCounts(t *testing.T, exposition string) map[string]int64 {
	t.Helper()
	counts := map[string]int64{}
	const prefix = `stream_stage_duration_seconds_count{stage="`
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		end := strings.Index(rest, `"`)
		if end < 0 {
			t.Fatalf("malformed series line: %s", line)
		}
		stage := rest[:end]
		fields := strings.Fields(rest[end:])
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parse count in %q: %v", line, err)
		}
		counts[stage] = int64(v)
	}
	if len(counts) == 0 {
		t.Fatal("no stream_stage_duration_seconds_count series in exposition")
	}
	return counts
}
