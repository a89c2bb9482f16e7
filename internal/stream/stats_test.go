package stream

import (
	"math"
	"testing"
	"time"

	"cryptomining/internal/obs"
)

// TestObserveStageSnapshotMath checks that per-stage averages come out as
// total-nanos / processed, per stage, aggregated exactly.
func TestObserveStageSnapshotMath(t *testing.T) {
	c := newCounters()
	c.observeStage(0, 10*time.Millisecond)
	c.observeStage(0, 30*time.Millisecond)
	c.observeStage(2, 7*time.Microsecond)

	s := c.snapshot()
	if len(s.Stages) != numStages {
		t.Fatalf("snapshot has %d stages, want %d", len(s.Stages), numStages)
	}
	sanity := s.Stages[0]
	if sanity.Name != StageNames[0] {
		t.Errorf("stage 0 name = %q, want %q", sanity.Name, StageNames[0])
	}
	if sanity.Processed != 2 {
		t.Errorf("stage 0 processed = %d, want 2", sanity.Processed)
	}
	if want := 20 * time.Millisecond; sanity.AvgNanos != want {
		t.Errorf("stage 0 avg = %v, want %v", sanity.AvgNanos, want)
	}
	if got := s.Stages[2]; got.Processed != 1 || got.AvgNanos != 7*time.Microsecond {
		t.Errorf("stage 2 = %+v, want processed 1 avg 7µs", got)
	}
	// A stage that never ran must report a zero average, not divide by zero.
	if got := s.Stages[1]; got.Processed != 0 || got.AvgNanos != 0 {
		t.Errorf("idle stage 1 = %+v, want zeros", got)
	}
}

// TestSnapshotCounterFields checks the plain counter plumbing: every atomic
// lands in its snapshot field and throughput is analyzed/uptime.
func TestSnapshotCounterFields(t *testing.T) {
	c := newCounters()
	c.submitted.Store(10)
	c.analyzed.Store(8)
	c.duplicates.Store(2)
	c.kept.Store(5)
	c.miners.Store(4)
	c.flips.Store(1)
	c.campaigns.Store(3)
	c.wallets.Store(6)
	// Backdate the start so SamplesPerSec has a stable denominator.
	c.startNanos.Store(time.Now().Add(-2 * time.Second).UnixNano())

	s := c.snapshot()
	if s.Submitted != 10 || s.Analyzed != 8 || s.Duplicates != 2 ||
		s.Kept != 5 || s.Miners != 4 || s.IllicitWalletFlips != 1 ||
		s.Campaigns != 3 || s.Wallets != 6 {
		t.Errorf("snapshot counters wrong: %+v", s)
	}
	if s.Uptime < 2*time.Second {
		t.Errorf("uptime = %v, want >= 2s", s.Uptime)
	}
	// 8 samples over >=2s: bounded above by 4/s and well above zero.
	if s.SamplesPerSec <= 0 || s.SamplesPerSec > 4.0 {
		t.Errorf("samples/sec = %v, want (0, 4]", s.SamplesPerSec)
	}
}

// TestAddLiveProfitAccumulates checks the float64-bits accumulation used for
// the running profit totals.
func TestAddLiveProfitAccumulates(t *testing.T) {
	c := newCounters()
	c.addLiveProfit(1.25, 200)
	c.addLiveProfit(0.75, 100.5)
	s := c.snapshot()
	if math.Abs(s.TotalXMR-2.0) > 1e-12 {
		t.Errorf("TotalXMR = %v, want 2.0", s.TotalXMR)
	}
	if math.Abs(s.TotalUSD-300.5) > 1e-12 {
		t.Errorf("TotalUSD = %v, want 300.5", s.TotalUSD)
	}
	if got := c.liveXMR(); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("liveXMR() = %v, want 2.0", got)
	}
}

// TestMarkStartCarriesUptime checks that a restored checkpoint's uptime
// backdates the origin, so uptime spans restarts.
func TestMarkStartCarriesUptime(t *testing.T) {
	c := newCounters()
	c.carriedNanos.Store(int64(time.Hour))
	c.markStart()
	if up := c.uptime(); up < time.Hour {
		t.Errorf("uptime = %v, want >= 1h carried over", up)
	}
}

// TestStageObserversAgree is the contract behind the exposition: a stage
// feeds StageStats and its histogram from the same measured duration, so
// Processed counts and histogram counts must match exactly, call for call.
func TestStageObserversAgree(t *testing.T) {
	c := newCounters()
	reg := obs.NewRegistry()
	st := newStage(stageSanity, func(*Task) { time.Sleep(time.Millisecond) }, c, reg)
	const n = 5
	for i := 0; i < n; i++ {
		st.run(&Task{})
	}

	if got := c.stageCount[stageSanity].Load(); got != n {
		t.Errorf("StageStats processed = %d, want %d", got, n)
	}
	h := reg.Histogram(metricStageDuration,
		"Per-stage processing latency of the streaming analysis chain.",
		obs.LatencyBuckets, obs.L("stage", "sanity"))
	if got := h.Count(); got != n {
		t.Errorf("histogram count = %d, want %d", got, n)
	}
	// One duration fed to both: the histogram's sum (seconds) must equal the
	// stage-nanos total to float precision.
	wantSecs := time.Duration(c.stageNanos[stageSanity].Load()).Seconds()
	if math.Abs(h.Sum()-wantSecs) > 1e-9 {
		t.Errorf("histogram sum = %v s, StageStats total = %v s", h.Sum(), wantSecs)
	}
}
