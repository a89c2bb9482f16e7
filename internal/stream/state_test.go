package stream_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cryptomining/internal/core"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/probe"
	"cryptomining/internal/stream"
)

// waitProcessed blocks until the collector has handled exactly n
// submissions (absorbed or deduped), quiescing the dataflow for a
// deterministic state export.
func waitProcessed(t *testing.T, eng *stream.Engine, n int64) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute) // generous: -race slows analysis ~10x
	for {
		st := eng.Stats()
		if st.Analyzed+st.Duplicates == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine did not quiesce: analyzed %d + duplicates %d != %d",
				st.Analyzed, st.Duplicates, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineStateRoundtripMidStream interrupts an ingestion at several
// points, round-trips the engine state (probe cache included) through gob
// into a fresh engine, and requires (a) the serialized state to be
// byte-stable across the restore and (b) both engines, fed the identical
// remainder, to finish with bit-identical results.
func TestEngineStateRoundtripMidStream(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	hashes := u.Corpus.Hashes()
	ctx := context.Background()
	mkCfg := func(shards int) (stream.Config, *probe.Scheduler) {
		cfg := core.NewFromUniverse(u).StreamConfig()
		cfg.Shards = shards
		cfg.Prober = probe.New(probe.Config{Source: probe.NewDirectorySource(cfg.Pools, cfg.QueryTime), Workers: 2})
		t.Cleanup(cfg.Prober.Close)
		return cfg, cfg.Prober
	}

	for _, cut := range []int{0, len(hashes) / 3, len(hashes)} {
		origCfg, origProber := mkCfg(4)
		orig := stream.New(origCfg)
		orig.Start(ctx)
		origProber.Start(ctx)
		for _, h := range hashes[:cut] {
			s, _ := u.Corpus.Get(h)
			if err := orig.Submit(ctx, s); err != nil {
				t.Fatal(err)
			}
		}
		waitProcessed(t, orig, int64(cut))
		if err := origProber.WaitConverged(ctx); err != nil {
			t.Fatal(err)
		}

		st := orig.ExportState()
		if cut > 0 && len(st.Probe.Entries) < 2 {
			t.Fatalf("cut %d: %d probe cache entries, too few to pin their order", cut, len(st.Probe.Entries))
		}
		st.Counters.UptimeNanos = 0 // wall-clock, legitimately differs
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatalf("cut %d: encode: %v", cut, err)
		}
		var decoded stream.EngineState
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&decoded); err != nil {
			t.Fatalf("cut %d: decode: %v", cut, err)
		}

		restoredCfg, restoredProber := mkCfg(2)
		restored := stream.New(restoredCfg)
		if err := restored.RestoreState(&decoded); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		restored.Start(ctx)

		// Exported before the restored prober starts, so its cache is exactly
		// the restored one.
		re := restored.ExportState()
		re.Counters.UptimeNanos = 0
		var rebuf bytes.Buffer
		if err := gob.NewEncoder(&rebuf).Encode(re); err != nil {
			t.Fatalf("cut %d: re-encode: %v", cut, err)
		}
		if !bytes.Equal(buf.Bytes(), rebuf.Bytes()) {
			t.Fatalf("cut %d: state not byte-stable across restore (%d vs %d bytes)",
				cut, buf.Len(), rebuf.Len())
		}
		restoredProber.Start(ctx)

		for _, h := range hashes[cut:] {
			s, _ := u.Corpus.Get(h)
			if err := orig.Submit(ctx, s); err != nil {
				t.Fatal(err)
			}
			if err := restored.Submit(ctx, s); err != nil {
				t.Fatal(err)
			}
		}
		a, err := orig.Finish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Finish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Campaigns) != len(b.Campaigns) || a.TotalXMR != b.TotalXMR ||
			a.TotalUSD != b.TotalUSD || len(a.Records) != len(b.Records) ||
			a.Identifiers != b.Identifiers {
			t.Fatalf("cut %d: results diverge after restore: %d/%d/%.8f vs %d/%d/%.8f",
				cut, len(a.Campaigns), len(a.Records), a.TotalXMR,
				len(b.Campaigns), len(b.Records), b.TotalXMR)
		}
		for i := range a.Campaigns {
			if a.Campaigns[i].ID != b.Campaigns[i].ID ||
				len(a.Campaigns[i].Samples) != len(b.Campaigns[i].Samples) {
				t.Fatalf("cut %d: campaign %d diverges", cut, i)
			}
		}
	}
}

// TestEngineStateAckWindowRoundtrip round-trips a state whose submissions
// were acked out of order. A quiesced engine never has such a window, so
// the mid-stream test above cannot pin its order; the window is set by hand
// and must re-export byte-identically.
func TestEngineStateAckWindowRoundtrip(t *testing.T) {
	cfg := core.NewFromUniverse(ecosim.Generate(ecosim.SmallConfig().Scale(0.1))).StreamConfig()
	encode := func(st *stream.EngineState) []byte {
		st.Counters.UptimeNanos = 0
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	st := stream.New(cfg).ExportState()
	st.AckLow = 3
	for seq := uint64(5); seq < 40; seq += 2 {
		st.AckAbove = append(st.AckAbove, seq)
	}
	// Restore recounts submissions from the window.
	st.Counters.Submitted = int64(st.AckLow-1) + int64(len(st.AckAbove))
	want := encode(st)
	var decoded stream.EngineState
	if err := gob.NewDecoder(bytes.NewReader(want)).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	restored := stream.New(cfg)
	if err := restored.RestoreState(&decoded); err != nil {
		t.Fatal(err)
	}
	if got := encode(restored.ExportState()); !bytes.Equal(got, want) {
		t.Fatalf("ack window not byte-stable across restore (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRestoreGuards covers the misuse errors of RestoreState.
func TestRestoreGuards(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.1))
	cfg := core.NewFromUniverse(u).StreamConfig()
	ctx := context.Background()

	eng := stream.New(cfg)
	eng.Start(ctx)
	if err := eng.RestoreState(&stream.EngineState{}); err == nil {
		t.Fatal("restore into a started engine must fail")
	}

	src := stream.New(cfg)
	src.Start(ctx)
	h := u.Corpus.Hashes()[0]
	s, _ := u.Corpus.Get(h)
	if err := src.Submit(ctx, s); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, src, 1)
	st := src.ExportState()

	used := stream.New(cfg)
	if err := used.RestoreState(st); err != nil {
		t.Fatalf("restore into fresh engine: %v", err)
	}
	if err := used.RestoreState(st); err == nil {
		t.Fatal("second restore must fail (engine no longer empty)")
	}
}

// TestEngineStartSubmitStatsRace hammers the Start/Submit/Stats/Live
// surfaces from concurrent goroutines — Start races with everything — and
// is meaningful under -race: it pins the atomically-published started flag,
// the atomic uptime origin, and the shard structures being immutable after
// New.
func TestEngineStartSubmitStatsRace(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.1))
	cfg := core.NewFromUniverse(u).StreamConfig()
	cfg.Shards = 4
	eng := stream.New(cfg)
	ctx := context.Background()

	hashes := u.Corpus.Hashes()
	var wg sync.WaitGroup
	done := make(chan struct{})

	// Readers: Stats and Live from the very first moment, racing Start.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					st := eng.Stats()
					if st.Shards != 4 {
						t.Errorf("Stats saw %d shards", st.Shards)
						return
					}
					_ = eng.CurrentView()
					_ = eng.ExportState()
				}
			}
		}()
	}

	// Submitters: spin until Start lands (ErrNotStarted is the published
	// not-yet-started signal, not a race), then push their slice of the
	// corpus.
	var submitted atomic.Int64
	parts := 4
	var subWG sync.WaitGroup
	for p := 0; p < parts; p++ {
		subWG.Add(1)
		go func(p int) {
			defer subWG.Done()
			for i := p; i < len(hashes); i += parts {
				s, _ := u.Corpus.Get(hashes[i])
				for {
					err := eng.Submit(ctx, s)
					if err == nil {
						submitted.Add(1)
						break
					}
					if err != stream.ErrNotStarted {
						t.Errorf("submit: %v", err)
						return
					}
					runtime.Gosched()
				}
			}
		}(p)
	}

	time.Sleep(time.Millisecond) // let submitters hit the not-started path
	eng.Start(ctx)
	subWG.Wait()
	res, err := eng.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	if submitted.Load() != int64(len(hashes)) {
		t.Fatalf("submitted %d of %d", submitted.Load(), len(hashes))
	}
	if len(res.Outcomes) != len(hashes) {
		t.Fatalf("outcomes %d != corpus %d", len(res.Outcomes), len(hashes))
	}
	if st := eng.Stats(); st.Analyzed != int64(len(hashes)) {
		t.Fatalf("analyzed %d != corpus %d", st.Analyzed, len(hashes))
	}
}
