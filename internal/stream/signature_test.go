package stream_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"testing"

	"cryptomining/internal/core"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/fuzzyhash"
	"cryptomining/internal/stream"
)

// heavyUniverse is the universe cmd/bench's heavy-drain workload replays:
// ~37 KB bodies and a catalogue of 43 stock-tool binaries.
func heavyUniverse() *ecosim.Universe {
	cfg := ecosim.DefaultConfig().Scale(0.1)
	cfg.Seed = 2019
	return ecosim.Generate(cfg)
}

// ingest starts a one-shard engine (arrival order is submission order) and
// absorbs the samples with the given hashes.
func ingest(t *testing.T, u *ecosim.Universe, hashes []string) *stream.Engine {
	t.Helper()
	cfg := core.NewFromUniverse(u).StreamConfig()
	cfg.Shards = 1
	eng := stream.New(cfg)
	eng.Start(context.Background())
	feed(t, u, eng, hashes)
	return eng
}

func feed(t *testing.T, u *ecosim.Universe, eng *stream.Engine, hashes []string) {
	t.Helper()
	before := eng.Stats()
	for _, h := range hashes {
		s, _ := u.Corpus.Get(h)
		if err := eng.Submit(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	waitProcessed(t, eng, before.Analyzed+before.Duplicates+int64(len(hashes)))
}

// checkPending fails unless every pending entry holds no body and, when it
// holds a signature, the fuzzy hash of the sample's body; it returns how
// many hold one.
func checkPending(t *testing.T, u *ecosim.Universe, st *stream.EngineState) int {
	t.Helper()
	sigs := 0
	for _, p := range st.Pending {
		if p.Content != nil {
			t.Fatalf("pending %s holds its body", p.Key)
		}
		if p.Signature == nil {
			continue
		}
		sigs++
		s, _ := u.Corpus.Get(p.Key)
		if want := fuzzyhash.Hash(s.Content); *p.Signature != want {
			t.Fatalf("pending %s holds signature %s, its body hashes to %s", p.Key, p.Signature, want)
		}
	}
	return sigs
}

// TestPendingHoldsSignaturesNotBodies: over the heavy corpus, at every cut,
// the samples the collector retains are held as the fuzzy hash the shards
// computed from their bodies, never as the bodies.
func TestPendingHoldsSignaturesNotBodies(t *testing.T) {
	u := heavyUniverse()
	hashes := u.Corpus.Hashes()
	eng := ingest(t, u, nil)
	sigs := 0
	for _, part := range [][]string{hashes[:len(hashes)/2], hashes[len(hashes)/2:]} {
		feed(t, u, eng, part)
		sigs += checkPending(t, u, eng.ExportState())
	}
	if sigs == 0 {
		t.Fatal("no pending entry held a signature: the check is vacuous")
	}
	if _, err := eng.Finish(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreLegacyPendingBodies: a state written before the shards computed
// signatures holds pending bodies instead. Restored, it holds the signatures
// the shards would have computed, and the engine goes on to the live state
// and the sealed Results of a run that was never interrupted.
func TestRestoreLegacyPendingBodies(t *testing.T) {
	u := heavyUniverse()
	hashes := u.Corpus.Hashes()
	cut := len(hashes) / 3
	ctx := context.Background()

	orig := ingest(t, u, hashes[:cut])
	st := orig.ExportState()
	legacy := *st
	legacy.Pending = nil
	for _, p := range st.Pending {
		s, _ := u.Corpus.Get(p.Key)
		legacy.Pending = append(legacy.Pending, stream.PendingState{Key: p.Key, Labels: p.Labels, Content: s.Content})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	var decoded stream.EngineState
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}

	cfg := core.NewFromUniverse(u).StreamConfig()
	cfg.Shards = 1
	restored := stream.New(cfg)
	if err := restored.RestoreState(&decoded); err != nil {
		t.Fatal(err)
	}
	restored.Start(ctx)
	if got := restored.ExportState().Pending; !reflect.DeepEqual(got, st.Pending) {
		t.Fatal("the signatures derived from a legacy state's bodies differ from the shards'")
	}
	if checkPending(t, u, st) == 0 {
		t.Fatal("no pending entry held a signature at the cut: the check is vacuous")
	}

	feed(t, u, orig, hashes[cut:])
	feed(t, u, restored, hashes[cut:])
	a, b := orig.ExportState(), restored.ExportState()
	a.Agg.Rebuilds, b.Agg.Rebuilds = 0, 0 // publication batching, not state
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) || !reflect.DeepEqual(a.Pending, b.Pending) ||
		!reflect.DeepEqual(a.Agg, b.Agg) || !reflect.DeepEqual(a.Illicit, b.Illicit) ||
		!reflect.DeepEqual(a.SeenWallets, b.SeenWallets) {
		t.Fatal("the live state after a legacy restore differs from the uninterrupted run's")
	}
	ra, err := orig.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := restored.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra.Records, rb.Records) || !reflect.DeepEqual(ra.Campaigns, rb.Campaigns) ||
		ra.TotalXMR != rb.TotalXMR {
		t.Fatal("the Results sealed after a legacy restore differ from the uninterrupted run's")
	}
}
