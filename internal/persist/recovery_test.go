package persist_test

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cryptomining/internal/core"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/model"
	"cryptomining/internal/persist"
	"cryptomining/internal/stream"
)

// feedOrder returns the corpus hashes in the seed-deterministic shuffled
// order every run of a test universe uses.
func feedOrder(u *ecosim.Universe, seed int64) []string {
	hashes := u.Corpus.Hashes()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(hashes), func(i, j int) { hashes[i], hashes[j] = hashes[j], hashes[i] })
	return hashes
}

func streamCfg(u *ecosim.Universe, shards int) stream.Config {
	cfg := core.NewFromUniverse(u).StreamConfig()
	cfg.Shards = shards
	cfg.QueueDepth = 8
	return cfg
}

// runClean ingests the whole feed through a plain (non-persistent) engine.
func runClean(t *testing.T, u *ecosim.Universe, hashes []string, shards int) *stream.Results {
	t.Helper()
	eng := stream.New(streamCfg(u, shards))
	ctx := context.Background()
	eng.Start(ctx)
	for _, h := range hashes {
		s, _ := u.Corpus.Get(h)
		if err := eng.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertResultsIdentical requires bit-identical final results: same
// outcomes, records, campaign partition (IDs, membership, enrichment,
// profit) and headline totals.
func assertResultsIdentical(t *testing.T, got, want *stream.Results) {
	t.Helper()
	if len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("outcomes: %d vs %d", len(got.Outcomes), len(want.Outcomes))
	}
	for h, wo := range want.Outcomes {
		go_, ok := got.Outcomes[h]
		if !ok {
			t.Fatalf("outcome %s missing", model.ShortHash(h))
		}
		if !reflect.DeepEqual(*go_, *wo) {
			t.Fatalf("outcome %s differs:\ngot  %+v\nwant %+v", model.ShortHash(h), *go_, *wo)
		}
	}
	if !reflect.DeepEqual(got.Records, want.Records) ||
		!reflect.DeepEqual(got.MinerRecords, want.MinerRecords) ||
		!reflect.DeepEqual(got.AncillaryRecords, want.AncillaryRecords) {
		t.Fatalf("records differ: %d/%d/%d vs %d/%d/%d",
			len(got.Records), len(got.MinerRecords), len(got.AncillaryRecords),
			len(want.Records), len(want.MinerRecords), len(want.AncillaryRecords))
	}
	if len(got.Campaigns) != len(want.Campaigns) {
		t.Fatalf("campaigns: %d vs %d", len(got.Campaigns), len(want.Campaigns))
	}
	for i := range want.Campaigns {
		if !reflect.DeepEqual(*got.Campaigns[i], *want.Campaigns[i]) {
			t.Fatalf("campaign C#%d differs:\ngot  %+v\nwant %+v",
				want.Campaigns[i].ID, *got.Campaigns[i], *want.Campaigns[i])
		}
	}
	if !reflect.DeepEqual(got.Profits, want.Profits) {
		t.Fatalf("profits differ (%d vs %d entries)", len(got.Profits), len(want.Profits))
	}
	if got.Identifiers != want.Identifiers ||
		got.TotalXMR != want.TotalXMR || got.TotalUSD != want.TotalUSD ||
		got.CirculationShare != want.CirculationShare {
		t.Fatalf("headline figures differ: %d/%.10f/%.10f/%v vs %d/%.10f/%.10f/%v",
			got.Identifiers, got.TotalXMR, got.TotalUSD, got.CirculationShare,
			want.Identifiers, want.TotalXMR, want.TotalUSD, want.CirculationShare)
	}
	if !reflect.DeepEqual(got.CountsBySource, want.CountsBySource) ||
		!reflect.DeepEqual(got.CountsByResource, want.CountsByResource) {
		t.Fatal("source/resource counts differ")
	}
	if got.Aggregation.DonationWalletsSkipped != want.Aggregation.DonationWalletsSkipped {
		t.Fatal("donation skip counts differ")
	}
	if got.Aggregation.Graph.NodeCount() != want.Aggregation.Graph.NodeCount() ||
		got.Aggregation.Graph.EdgeCount() != want.Aggregation.Graph.EdgeCount() {
		t.Fatal("aggregation graphs differ")
	}
}

// TestCrashRestoreEquivalence is the acceptance test of the persistence
// subsystem: ingestion is interrupted at arbitrary points (checkpoints
// landing mid-prefix, submissions continuing past the last checkpoint so
// the WAL tail is non-empty, engine abandoned without Finish — a simulated
// crash), then resumed into a fresh engine from disk. The resumed run's
// final results must be bit-identical to an uninterrupted run, across cut
// points and shard counts, including a restore into a different shard
// count. Run under -race this doubles as the concurrency soak of the
// export-under-mutex path.
func TestCrashRestoreEquivalence(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.3))
	const feedSeed = 11
	hashes := feedOrder(u, feedSeed)
	n := len(hashes)
	want := runClean(t, u, hashes, 4)

	cases := []struct {
		name                 string
		cutFrac              float64 // crash after this fraction of the feed
		ckptFracs            []float64
		shardsBefore, shards int
	}{
		{"early-cut", 0.25, []float64{0.15}, 3, 3},
		{"mid-cut-two-checkpoints", 0.6, []float64{0.2, 0.45}, 8, 8},
		{"no-checkpoint-wal-only", 0.3, nil, 4, 4},
		{"cut-at-end", 1.0, []float64{0.5}, 4, 4},
		{"reshard-on-restore", 0.5, []float64{0.35}, 2, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cut := int(tc.cutFrac * float64(n))
			ckpts := map[int]bool{}
			for _, f := range tc.ckptFracs {
				ckpts[int(f*float64(n))] = true
			}

			// Phase 1: the run that will "crash". No Finish, no final
			// checkpoint — the context is cancelled with work in flight.
			ctx1, cancel1 := context.WithCancel(context.Background())
			eng1 := stream.New(streamCfg(u, tc.shardsBefore))
			st1, err := persist.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st1.Resume(ctx1, eng1); err != nil {
				t.Fatal(err)
			}
			for i, h := range hashes[:cut] {
				if ckpts[i] {
					if _, err := st1.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				s, _ := u.Corpus.Get(h)
				if err := st1.Submit(ctx1, s); err != nil {
					t.Fatal(err)
				}
			}
			cancel1() // crash: abandon the engine mid-flight
			if err := st1.Close(); err != nil {
				t.Fatal(err)
			}

			// Phase 2: recover into a fresh engine and finish the feed.
			ctx := context.Background()
			eng2 := stream.New(streamCfg(u, tc.shards))
			st2, err := persist.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			info, err := st2.Resume(ctx, eng2)
			if err != nil {
				t.Fatal(err)
			}
			if cut > 0 && !info.Resumed {
				t.Fatal("prior state not detected")
			}
			if got, want := info.Logged, uint64(cut); got != want {
				t.Fatalf("resume cursor %d, want %d", got, want)
			}
			for _, h := range hashes[cut:] {
				s, _ := u.Corpus.Get(h)
				if err := st2.Submit(ctx, s); err != nil {
					t.Fatal(err)
				}
			}
			got, err := eng2.Finish(ctx)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsIdentical(t, got, want)
		})
	}
}

// TestResumeFreshDirAndFullCycle covers the trivial recovery paths: a fresh
// directory starts clean, and a directory checkpointed after a completed
// drain resumes straight into the finished state with nothing to replay or
// re-analyze.
func TestResumeFreshDirAndFullCycle(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	const feedSeed = 5
	hashes := feedOrder(u, feedSeed)
	want := runClean(t, u, hashes, 4)
	dir := t.TempDir()
	ctx := context.Background()

	st, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := stream.New(streamCfg(u, 4))
	info, err := st.Resume(ctx, eng)
	if err != nil {
		t.Fatal(err)
	}
	if info.Resumed || info.Logged != 0 || info.Replayed != 0 {
		t.Fatalf("fresh dir reported prior state: %+v", info)
	}
	for _, h := range hashes {
		s, _ := u.Corpus.Get(h)
		if err := st.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	first, err := eng.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, first, want)
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Reboot: everything is in the snapshot, nothing to replay.
	st2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2 := stream.New(streamCfg(u, 4))
	info, err = st2.Resume(ctx, eng2)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Resumed || info.Replayed != 0 || info.Logged != uint64(len(hashes)) {
		t.Fatalf("full-cycle resume: %+v", info)
	}
	again, err := eng2.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, again, want)

	// The analysis counters must span the restart, not reset.
	if got := eng2.Stats(); got.Analyzed != int64(u.Corpus.Len()) || got.Submitted != int64(len(hashes)) {
		t.Fatalf("restored stats lost history: analyzed %d submitted %d (corpus %d)",
			got.Analyzed, got.Submitted, u.Corpus.Len())
	}
}

// TestStrayTempFilesIgnored plants what a crash in the middle of
// WriteFileAtomic leaves behind — a torn .tmp beside a newer snapshot name
// and beside a sidecar file — and requires the data directory to read back
// the last complete state, clear the strays, and keep a failed rewrite from
// touching the file it was replacing.
func TestStrayTempFilesIgnored(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	hashes := feedOrder(u, 3)
	want := runClean(t, u, hashes, 2)
	dir := t.TempDir()
	ctx := context.Background()

	side := filepath.Join(dir, "feed.json")
	if _, err := persist.WriteFileAtomic(side, func(w io.Writer) error {
		_, err := w.Write([]byte("pinned"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := persist.WriteFileAtomic(side, func(w io.Writer) error {
		w.Write([]byte("torn"))
		return errors.New("disk full")
	}); err == nil {
		t.Fatal("a failed write reported success")
	}
	if raw, _ := os.ReadFile(side); string(raw) != "pinned" {
		t.Fatalf("failed rewrite clobbered the file: %q", raw)
	}

	st, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := stream.New(streamCfg(u, 2))
	if _, err := st.Resume(ctx, eng); err != nil {
		t.Fatal(err)
	}
	for _, h := range hashes {
		s, _ := u.Corpus.Get(h)
		if err := st.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	strays := []string{
		filepath.Join(dir, "snap-99999999999999999999.snap.tmp"),
		side + ".tmp",
	}
	for _, p := range strays {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2 := stream.New(streamCfg(u, 2))
	if info, err := st2.Resume(ctx, eng2); err != nil || !info.Resumed {
		t.Fatalf("resume beside stray temp files: %+v, %v", info, err)
	}
	got, err := eng2.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, got, want)
	for _, p := range strays {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived Open: %v", filepath.Base(p), err)
		}
	}
	if raw, _ := os.ReadFile(side); string(raw) != "pinned" {
		t.Fatalf("sidecar file = %q after reopen", raw)
	}
}

// TestTornWALTailSurvivesRestart appends garbage to the active segment (a
// torn frame from a SIGKILL mid-write) and verifies recovery drops it and
// keeps appending cleanly.
func TestTornWALTailSurvivesRestart(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	const feedSeed = 9
	hashes := feedOrder(u, feedSeed)
	want := runClean(t, u, hashes, 4)
	dir := t.TempDir()
	ctx1, cancel1 := context.WithCancel(context.Background())

	st, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := stream.New(streamCfg(u, 4))
	if _, err := st.Resume(ctx1, eng); err != nil {
		t.Fatal(err)
	}
	cut := len(hashes) / 2
	for i, h := range hashes[:cut] {
		if i == cut/2 {
			if _, err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		s, _ := u.Corpus.Get(h)
		if err := st.Submit(ctx1, s); err != nil {
			t.Fatal(err)
		}
	}
	cancel1()
	st.Close()

	// Tear the tail of the newest WAL segment.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x2a, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ctx := context.Background()
	st2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2 := stream.New(streamCfg(u, 4))
	info, err := st2.Resume(ctx, eng2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Logged != uint64(cut) {
		t.Fatalf("torn tail changed the cursor: %d, want %d", info.Logged, cut)
	}
	for _, h := range hashes[cut:] {
		s, _ := u.Corpus.Get(h)
		if err := st2.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	got, err := eng2.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, got, want)
}

// TestOpenLocksDataDir guards against two processes sharing one data
// directory: the second Open must fail while the first store is live, and
// succeed after it is closed (the flock dies with the owner, so a SIGKILLed
// process never wedges its own restart).
func TestOpenLocksDataDir(t *testing.T) {
	dir := t.TempDir()
	st, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := persist.Open(dir); err == nil {
		t.Fatal("second Open of a live data dir must fail")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := persist.Open(dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	st2.Close()
}

// TestStoreMisuseGuards covers the lifecycle errors.
func TestStoreMisuseGuards(t *testing.T) {
	dir := t.TempDir()
	st, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	if err := st.Submit(ctx, &model.Sample{SHA256: strings.Repeat("a", 64)}); err == nil {
		t.Fatal("Submit before Resume must fail")
	}
	if _, err := st.Checkpoint(); err == nil {
		t.Fatal("Checkpoint before Resume must fail")
	}
	eng := stream.New(stream.Config{Shards: 1})
	if _, err := st.Resume(ctx, eng); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Resume(ctx, eng); err == nil {
		t.Fatal("second Resume must fail")
	}
}
