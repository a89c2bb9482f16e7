// Command bench is the repository's benchmark: four named workloads, each
// pushed through the same in-process wiring cmd/streamd builds, with named
// end-to-end metrics measured with tracing off and per-layer metrics measured
// by a separate traced run — from outside, by timing calls into each layer's
// public functions and reading the engine's public counters and the registry
// exposition. README.md in this directory describes the workloads, the
// metrics and the trace; BENCHMARK.json at the repository root is the
// machine-readable contract.
//
// Usage:
//
//	go run ./cmd/bench -workload all -seed 42 -out bench.json    # every workload, each in its own process
//	go run ./cmd/bench -workload all -seed 42 -trace 1           # ... plus a traced rerun and bench-trace.json
//	go run ./cmd/bench -workload wide-drain -seed 7 -seconds 20 -trace 0
//	go run ./cmd/bench -verify oracle -workload heavy-drain      # check against core.Pipeline, one shard
//	go run ./cmd/bench -compare base.json head.json              # apply BENCHMARK.json's bounds
//
// Every run prints one `workload metric value unit` line per metric and, as
// its last line, one JSON object {correct, attempted, failed, metrics}. The
// exit code is 1 when any output check or operation failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is how long one run measures; BENCHMARK.json's run_seconds
// states the same number.
const defaultSeconds = 30

// traceFile is where a traced run leaves its spans, scrape, kernel replay,
// host block and profile frames, keyed by workload.
const traceFile = "bench-trace.json"

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadReport is one workload's entry in the -out report: the untraced
// result, the digest that was verified, and the traced run's layers.
type workloadReport struct {
	result
	Digest string                 `json:"digest"`
	Layers map[string]metricValue `json:"layers,omitempty"`
}

// report is the -out file, and what -compare reads.
type report struct {
	Host      hostInfo                   `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type options struct {
	seed    int64
	seconds int
	traced  bool
	oracle  bool
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all (each in its own child process)")
		seed    = flag.Int64("seed", 42, "feed-order seed; 7 is the hold-out for claims")
		seconds = flag.Int("seconds", defaultSeconds, "how long one run measures: whole rounds are started while they fit")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and "+traceFile+"; with -workload all, a traced rerun after the untraced one")
		out     = flag.String("out", "", "with -workload all: write the JSON report here")
		verify  = flag.String("verify", "golden", "golden = check the sealed Results against golden.json; oracle = recompute them through core.Pipeline with one shard")
		compare = flag.Bool("compare", false, "compare two -out reports: -compare base.json head.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare base.json head.json")
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if worse > 0 {
			os.Exit(1)
		}
		return
	}
	if *verify != "golden" && *verify != "oracle" {
		fatalf("-verify %q: want golden or oracle", *verify)
	}
	if *seconds < 1 {
		fatalf("-seconds %d: want at least 1", *seconds)
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace != 0, oracle: *verify == "oracle"}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *name == "all" {
		ok, err := runAll(ctx, o, *verify, *out)
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, found := workloadByName(*name)
	if !found {
		fatalf("-workload %q: want all or one of %s", *name, strings.Join(workloadNames(), ", "))
	}
	res, digest, err := measure(ctx, w, o)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	fmt.Printf("%s digest %s sha256\n", w.name, digest)
	printResult(w.name, res, o.traced)
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// printResult writes the metric lines in definition order, the operation
// counts, and the result object as the last line.
func printResult(workload string, res *result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, def := range defs {
		m := res.Metrics[def.name]
		fmt.Printf("%s %s %s %s\n", workload, def.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Printf("%s ops_attempted %d count\n", workload, res.Attempted)
	fmt.Printf("%s ops_failed %d count\n", workload, res.Failed)
	line, _ := json.Marshal(res) // a struct of numbers, strings and a bool cannot fail to encode
	fmt.Println(string(line))
}

// runAll runs every workload in its own re-exec'd child — a fresh heap and
// its own VmHWM each — untraced first and, when asked, traced after. It
// relays the children's metric lines and collects their results.
func runAll(ctx context.Context, o options, verify, out string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	rep := report{Host: readHost(), Seed: o.seed, Seconds: o.seconds, Workloads: map[string]*workloadReport{}}
	traces := map[string]json.RawMessage{}
	ok := true
	for _, w := range workloads {
		wr := &workloadReport{}
		rep.Workloads[w.name] = wr
		modes := []bool{false}
		if o.traced {
			modes = append(modes, true)
		}
		for _, traced := range modes {
			res, digest, err := runChild(ctx, exe, w.name, o, verify, traced)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			ok = ok && res.Correct && res.Failed == 0
			if !traced {
				wr.result, wr.Digest = *res, digest
				continue
			}
			wr.Layers = res.Metrics
			var one map[string]json.RawMessage
			raw, err := os.ReadFile(traceFile)
			if err == nil {
				err = json.Unmarshal(raw, &one)
			}
			if err != nil {
				return false, fmt.Errorf("%s: child trace: %w", w.name, err)
			}
			traces[w.name] = one[w.name]
		}
	}
	if o.traced {
		if err := writeJSON(traceFile, traces); err != nil {
			return false, err
		}
	}
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// runChild runs one workload in a child process and parses what it printed.
// A child that exits 1 after printing a result reported failures; the result
// is still returned.
func runChild(ctx context.Context, exe, workload string, o options, verify string, traced bool) (*result, string, error) {
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-trace", traceArg,
		"-verify", verify)
	cmd.Stderr = os.Stderr
	raw, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	last := lines[len(lines)-1]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
		if runErr != nil {
			return nil, "", runErr
		}
		return nil, "", fmt.Errorf("child printed no result: %q", last)
	}
	digest := ""
	for _, line := range lines[:len(lines)-1] {
		fmt.Println(line)
		if f := strings.Fields(line); len(f) == 4 && f[1] == "digest" {
			digest = f[2]
		}
	}
	return &res, digest, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// measure runs whole rounds of the workload while they fit in the time
// budget, verifies every round's output, and folds the rounds into the run's
// metrics: the end-to-end set for an untraced run, the per-layer set for a
// traced one. It returns the result and the digest the rounds sealed.
func measure(ctx context.Context, w workload, o options) (*result, string, error) {
	tmp, err := filepath.Abs(filepath.Join(".bench_tmp", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, "", err
	}
	defer func() {
		os.RemoveAll(tmp)
		os.Remove(filepath.Dir(tmp)) // succeeds once no other run's directory is left in it
	}()
	// A wedged daemon must end the run, not hang the caller.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(o.seconds)*time.Second+2*time.Minute)
	defer cancel()

	// A traced run traces every other round, so the untraced rounds beside
	// them give the tracing overhead, and profiles the first.
	var tr *tracer
	profile := ""
	if o.traced {
		tr = newTracer()
		profile = filepath.Join(tmp, "cpu.pprof")
	}
	var rounds []*roundResult
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	for i := 0; ; i++ {
		var rtr *tracer
		rprofile := ""
		if i%2 == 0 {
			rtr = tr
			if i == 0 {
				rprofile = profile
			}
		}
		dir := filepath.Join(tmp, fmt.Sprintf("round-%d", i))
		t := time.Now()
		r, err := round(ctx, w, o.seed, dir, rtr, rprofile)
		if err != nil {
			if r != nil && len(r.failures) > 0 {
				err = fmt.Errorf("%w (%s)", err, strings.Join(r.failures, "; "))
			}
			return nil, "", fmt.Errorf("round %d: %w", i, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", err
		}
		rounds = append(rounds, r)
		fmt.Fprintf(os.Stderr, "bench: %s round %d: %.1fs (set-up %.2fs, %d samples drained in %.2fs, %d served with visible p50 %.2f ms, %d reads p50 %.2f ms, quickest recovery %.3fs and replay %.3fs, traced %t)\n",
			w.name, i, time.Since(t).Seconds(), r.setupS, r.drainN, r.drainS, len(r.visibleMs), median(r.visibleMs), len(r.reads), median(r.readMs()),
			slices.Min(r.recoveryS), slices.Min(r.replayS), r.traced)
		// Start another round only if one as long as this one still fits.
		if time.Since(start)+time.Since(t) > budget {
			break
		}
	}
	peakRSS := peakRSSMB()

	res, err := verifyRounds(ctx, w, o, rounds)
	if err != nil {
		return nil, "", err
	}
	if !o.traced {
		endToEndMetrics(res, rounds, peakRSS)
		return res, rounds[0].digest, nil
	}

	layers := layerMetrics(rounds)
	c, err := generate(w, o.seed)
	if err != nil {
		return nil, "", err
	}
	kernels := replayKernels(c)
	for name, k := range kernels {
		layers[name+"_ns_per_sample"] = k.NsPerSample
		layers[name+"_allocs_per_sample"] = k.AllocsPerSample
		layers[name+"_bytes_per_sample"] = k.BytesPerSample
	}
	for _, def := range perLayer {
		res.Metrics[def.name] = metricValue{layers[def.name], def.unit}
	}
	scrape := ""
	for _, r := range rounds {
		if r.scrapeText != "" {
			scrape = r.scrapeText
		}
	}
	err = writeJSON(traceFile, map[string]any{w.name: map[string]any{
		"host":      readHost(),
		"seed":      o.seed,
		"rounds":    len(rounds),
		"layers":    res.Metrics,
		"kernels":   kernels,
		"pprof_top": pprofTop(profile),
		"scrape":    scrape,
		"spans":     tr.finish(),
	}})
	return res, rounds[0].digest, err
}

// verifyRounds is the output check: every round sealed the same Results, and
// they are the pinned (or, with -verify oracle, the recomputed) ones. It
// returns the run's result with the operation counts filled in.
func verifyRounds(ctx context.Context, w workload, o options, rounds []*roundResult) (*result, error) {
	want := ""
	if !o.oracle {
		var err error
		if want, err = goldenDigest(w.name); err != nil {
			return nil, err
		}
	}
	if want == "" {
		c, err := generate(w, o.seed)
		if err != nil {
			return nil, err
		}
		if want, err = oracleDigest(ctx, c); err != nil {
			return nil, err
		}
	}
	res := &result{Metrics: map[string]metricValue{}}
	for i, r := range rounds {
		res.Attempted += r.ops + 1
		res.Failed += r.failed
		for _, f := range r.failures {
			fmt.Fprintf(os.Stderr, "bench: %s round %d: %s\n", w.name, i, f)
		}
		if r.digest != want {
			res.Failed++
			fmt.Fprintf(os.Stderr, "bench: %s round %d: results digest %s, want %s\n", w.name, i, r.digest, want)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEndMetrics folds untraced rounds into the end-to-end set. What a round
// measures once — throughput, the median latency of its served samples and
// of its reads, heap per sample, set-up — is reported as the median over
// rounds, so a round the host disturbed moves nothing. A recovery or a replay
// is one short, mostly single-threaded operation, repeated; on a shared host
// it runs either undisturbed or about 1.6 times slower, nothing between, and a
// median over them lands in either mode. Interference only ever slows an
// operation, so for these two the run reports the quickest it saw.
func endToEndMetrics(res *result, rounds []*roundResult, peakRSS float64) {
	perRound := map[string][]float64{}
	var recoveries, replays []float64
	for _, r := range rounds {
		for name, v := range map[string]float64{
			"samples_per_s":         float64(r.drainN) / r.drainS,
			"visible_p50_ms":        median(r.visibleMs),
			"read_p50_ms":           median(r.readMs()),
			"heap_bytes_per_sample": r.heapPerSample,
			"setup_s":               r.setupS,
		} {
			perRound[name] = append(perRound[name], v)
		}
		recoveries = append(recoveries, r.recoveryS...)
		replays = append(replays, r.replayS...)
	}
	for _, def := range endToEnd {
		v := median(perRound[def.name])
		switch def.name {
		case "recovery_s":
			v = slices.Min(recoveries)
		case "scenario_replay_s":
			v = slices.Min(replays)
		case "peak_rss_mb":
			v = peakRSS
		}
		res.Metrics[def.name] = metricValue{v, def.unit}
	}
}

// readMs returns the latencies of the round's successful reads.
func (r *roundResult) readMs() []float64 {
	out := make([]float64, 0, len(r.reads))
	for _, rd := range r.reads {
		if rd.err == "" {
			out = append(out, rd.ms)
		}
	}
	return out
}

// layerMetrics folds a traced run into the per-layer set: the median of each
// layer's readings over the traced rounds, the latency tails over every
// round, and the throughput lost to tracing.
func layerMetrics(rounds []*roundResult) map[string]float64 {
	readings := map[string][]float64{}
	var visible, reads, rateTraced, ratePlain []float64
	for _, r := range rounds {
		visible = append(visible, r.visibleMs...)
		reads = append(reads, r.readMs()...)
		rate := float64(r.drainN) / r.drainS
		if !r.traced {
			ratePlain = append(ratePlain, rate)
			continue
		}
		rateTraced = append(rateTraced, rate)
		for name, vals := range r.layers {
			readings[name] = append(readings[name], vals...)
		}
	}
	out := map[string]float64{}
	for name, vals := range readings {
		out[name] = median(vals)
	}
	out["stream.visible_p99_ms"], _ = tail(visible, 99)
	out["api.read_p95_ms"], _ = tail(reads, 95)
	if len(ratePlain) > 0 {
		out["bench.trace_overhead_pct"] = (median(ratePlain) - median(rateTraced)) / median(ratePlain) * 100
	}
	return out
}
