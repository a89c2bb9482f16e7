package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"cryptomining/internal/model"
)

// These tests cover the harness's own arithmetic and inputs. None of them
// runs a workload.

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {4000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(tc.n); got != tc.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// A named tail is lowered, never raised, to what the count supports.
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, used := tail(vals, 99); used != 95 {
		t.Errorf("p99 of 300 samples reported at p%v, want p95", used)
	}
	if _, used := tail(vals, 90); used != 90 {
		t.Errorf("p90 of 300 samples reported at p%v, want p90", used)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 50); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

// fakeClock only moves when someone sleeps on it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestPaceOpenLoopChargesStallToLaterCalls(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	const service = 10 * time.Millisecond
	var latency []time.Duration
	pace(clk, start, 6, 10, func(i int, due time.Time) bool {
		if want := start.Add(time.Duration(i) * 100 * time.Millisecond); !due.Equal(want) {
			t.Errorf("call %d due at +%v, want the fixed schedule +%v", i, due.Sub(start), want.Sub(start))
		}
		if clk.Now().Before(due) {
			t.Errorf("call %d started %v before it was due", i, due.Sub(clk.Now()))
		}
		clk.Sleep(service)
		if i == 1 {
			clk.Sleep(340 * time.Millisecond) // one stalled submit
		}
		latency = append(latency, clk.Now().Sub(due))
		return true
	})
	// Call 1 is due at +100 and returns at +450; calls 2..4 were due at +200,
	// +300, +400 and each starts when the one before it returns.
	want := []time.Duration{10, 350, 260, 170, 80, 10}
	for i, w := range want {
		if latency[i] != w*time.Millisecond {
			t.Errorf("latency[%d] = %v, want %v", i, latency[i], w*time.Millisecond)
		}
	}
}

func TestPaceClosedLoopAndEarlyStop(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	calls := 0
	pace(clk, clk.now, -1, 0, func(i int, due time.Time) bool {
		if !due.Equal(clk.Now()) {
			t.Errorf("closed-loop call %d due %v, want now", i, due)
		}
		clk.Sleep(time.Millisecond)
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("unbounded pace made %d calls, want it to stop at 3", calls)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2: the union counts once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if got := spans[id-1].Self; got != want {
			t.Errorf("span %d self = %d, want %d", id, got, want)
		}
	}
	tr := newTracer()
	root := tr.begin("root", 0)
	tr.record("call", root, tr.origin.Add(time.Millisecond), tr.origin.Add(3*time.Millisecond))
	tr.end(root)
	got := tr.finish()
	if len(got) != 2 || got[1].Parent != root || got[1].Self != int64(2*time.Millisecond) {
		t.Errorf("tracer spans = %+v", got)
	}
	var none *tracer
	none.end(none.begin("x", 0)) // a nil tracer records nothing and does not panic
	none.record("x", 0, time.Now(), time.Now())
}

func TestParseProm(t *testing.T) {
	p := parseProm(`# HELP stream_stage_duration_seconds Per-stage latency.
# TYPE stream_stage_duration_seconds histogram
stream_stage_duration_seconds_bucket{stage="static",le="0.001"} 3
stream_stage_duration_seconds_bucket{stage="static",le="+Inf"} 7
stream_stage_duration_seconds_sum{stage="static"} 0.125
stream_stage_duration_seconds_count{stage="static"} 7
stream_stage_duration_seconds_sum{stage="sanity"} 0.5
stream_stage_duration_seconds_count{stage="sanity"} 7
api_requests_total{route="GET /api/v1/stats",method="GET",status="200"} 11
api_requests_total{route="GET /api/v1/stats",method="GET",status="304"} 4
stream_campaigns 42
broken_line_without_value
`)
	for _, tc := range []struct {
		family string
		labels []string
		want   float64
	}{
		{"stream_stage_duration_seconds_sum", []string{`stage="static"`}, 0.125},
		{"stream_stage_duration_seconds_count", []string{`stage="static"`}, 7},
		{"stream_stage_duration_seconds_sum", nil, 0.625},
		{"api_requests_total", []string{`route="GET /api/v1/stats"`}, 15},
		{"api_requests_total", []string{`status="304"`}, 4},
		{"stream_campaigns", nil, 42},
		{"stream_stage_duration_seconds", nil, 0}, // the bare family has no series of its own
		{"absent", nil, 0},
	} {
		if got := p.total(tc.family, tc.labels...); got != tc.want {
			t.Errorf("total(%s, %v) = %v, want %v", tc.family, tc.labels, got, tc.want)
		}
	}
	after := parseProm("stream_campaigns 50\n")
	if got := promDelta(p, after, "stream_campaigns"); got != 8 {
		t.Errorf("promDelta = %v, want 8", got)
	}
}

// corpusDigest hashes every generated byte the program would be given.
func corpusDigest(c corpus) [32]byte {
	h := sha256.New()
	for _, s := range c.all() {
		h.Write([]byte(s.SHA256))
		h.Write(s.Content)
	}
	return [32]byte(h.Sum(nil))
}

func sameSet(a, b []*model.Sample) bool {
	seen := map[string]int{}
	for _, s := range a {
		seen[s.SHA256]++
	}
	for _, s := range b {
		seen[s.SHA256]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return len(a) == len(b)
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	for _, w := range []workload{
		{name: "wide", wide: true, samples: 300, serve: 40, cycles: 2, tail: 30},
		{name: "heavy", samples: 217, serve: 40, cycles: 1, tail: 10}, // the smallest universe ecosim scales down to
	} {
		gen := func(seed int64) corpus {
			c, err := generate(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		a, b, other := gen(5), gen(5), gen(6)
		if len(a.drain) == 0 || len(a.serve) != w.serve || len(a.tails) != w.cycles || len(a.tails[0]) != w.tail {
			t.Fatalf("%s: phases of %d, %d and %d×%d samples", w.name, len(a.drain), len(a.serve), len(a.tails), len(a.tails[0]))
		}
		if corpusDigest(a) != corpusDigest(b) {
			t.Errorf("%s: the same seed generated different bytes", w.name)
		}
		if corpusDigest(a) == corpusDigest(other) {
			t.Errorf("%s: different seeds generated the same feed", w.name)
		}
		// Another seed is another order of the same samples, phase by phase.
		if !sameSet(a.drain, other.drain) || !sameSet(a.serve, other.serve) || !sameSet(a.tails[0], other.tails[0]) {
			t.Errorf("%s: a seed changed which samples a phase is fed", w.name)
		}
	}
}

func TestWorkloadsFitTheirCorpus(t *testing.T) {
	for _, w := range workloads {
		if w.serve+w.cycles*w.tail >= w.samples {
			t.Errorf("%s: serve and tails leave nothing to drain", w.name)
		}
		if w.serve < 1 || w.rate <= 0 {
			t.Errorf("%s: no serve phase", w.name)
		}
		if w.cycles < 1 || w.replays < 1 {
			t.Errorf("%s: every workload runs the whole lifecycle, so every end-to-end metric exists", w.name)
		}
	}
}

func TestGoldenPinsEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		d, err := goldenDigest(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(d) != 64 {
			t.Errorf("golden.json has no sha256 for %s", w.name)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps the contract file and the code in
// step: same run length, workloads, metric names, units and directions, and
// bounds inside what the driver accepts.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON("../../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the harness %q / %q", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, def := range want {
			better := "lower"
			if def.higher {
				better = "higher"
			}
			m := got[i]
			if m.Name != def.name || m.Unit != def.unit || m.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s] %s, the harness %s [%s] %s",
					kind, i, m.Name, m.Unit, m.Better, def.name, def.unit, better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// syntheticReport is a one-workload report with every end-to-end metric at
// 100 and two layer metrics.
func syntheticReport() report {
	wr := &workloadReport{result: result{Correct: true, Attempted: 10, Metrics: map[string]metricValue{}}}
	for _, def := range endToEnd {
		wr.Metrics[def.name] = metricValue{100, def.unit}
	}
	wr.Layers = map[string]metricValue{
		"stream.static_busy_s":    {10, "s"},
		"stream.collector_hold_s": {1, "s"},
		"persist.wal_append_s":    {0.1, "s"},
		"probe.requests":          {500, "count"},
	}
	return report{Workloads: map[string]*workloadReport{"heavy-drain": wr}}
}

func TestCompareFlagsSyntheticSlowdown(t *testing.T) {
	// The committed bounds follow the measuring host's noise; the logic is
	// tested against a 10% bound on everything.
	var spec benchmarkSpec
	if err := readJSON("../../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	for i := range spec.EndToEnd {
		spec.EndToEnd[i].Bound = 0.10
	}
	specPath := t.TempDir() + "/BENCHMARK.json"
	if raw, err := json.Marshal(spec); err != nil || os.WriteFile(specPath, raw, 0o644) != nil {
		t.Fatal("cannot write the test spec", err)
	}
	base := syntheticReport()

	var out bytes.Buffer
	if worse := compareReports(&out, spec, base, syntheticReport()); worse != 0 {
		t.Fatalf("identical reports: %d worse rows\n%s", worse, out.String())
	}
	if strings.Contains(out.String(), "worse") || strings.Contains(out.String(), "better") {
		t.Errorf("identical reports resolved a difference:\n%s", out.String())
	}

	// A 20% slowdown of the static stage: a fifth less throughput, and the
	// traced run shows where.
	head := syntheticReport()
	hw := head.Workloads["heavy-drain"]
	hw.Metrics["samples_per_s"] = metricValue{80, "1/s"}
	hw.Layers["stream.static_busy_s"] = metricValue{12.5, "s"}
	hw.Layers["probe.requests"] = metricValue{501, "count"}
	out.Reset()
	worse := compareReports(&out, spec, base, head)
	if worse != 1 {
		t.Fatalf("20%% slowdown: %d worse rows, want 1\n%s", worse, out.String())
	}
	if !strings.Contains(out.String(), "heavy-drain samples_per_s 100 80 -20.0%") ||
		!strings.Contains(out.String(), "heavy-drain layer stream.static_busy_s 10 12.5 +25.0%") {
		t.Errorf("the regression does not name its metric and layer:\n%s", out.String())
	}

	// The same through the files, as main runs it: a non-zero worse count is
	// what makes -compare exit 1.
	dir := t.TempDir()
	for name, r := range map[string]report{"base.json": base, "head.json": head} {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir+"/"+name, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if worse, err := compareFiles(&out, specPath, dir+"/base.json", dir+"/head.json"); err != nil || worse != 1 {
		t.Errorf("compareFiles = %d, %v; want 1 worse row", worse, err)
	}

	// Faster is better, not worse; a head that failed its checks is worse
	// whatever its numbers say.
	hw.Metrics["samples_per_s"] = metricValue{130, "1/s"}
	out.Reset()
	if worse := compareReports(&out, spec, base, head); worse != 0 || !strings.Contains(out.String(), "better") {
		t.Errorf("30%% speed-up: %d worse rows\n%s", worse, out.String())
	}
	hw.Failed = 1
	if worse := compareReports(&out, spec, base, head); worse != 1 {
		t.Errorf("failed head run: %d worse rows, want 1", worse)
	}
}
