package main

import "time"

// metricDef names one metric of the benchmark. BENCHMARK.json lists the same
// names, units and directions (a unit test keeps the two in step); bound is
// the share of the base value by which an end-to-end metric may worsen before
// -compare calls it worse, and is read from BENCHMARK.json, not from here.
type metricDef struct {
	name, unit string
	// higher is true when a larger value is better.
	higher bool
}

// endToEnd are the metrics a user of the daemon would see. Every workload
// reports every one of them: each round is a whole daemon lifecycle. The
// comment on each is its definition.
var endToEnd = []metricDef{
	{"samples_per_s", "1/s", true},        // drained samples over first submit to all visible and priced, median over rounds
	{"visible_p50_ms", "ms", false},       // due instant to first Stats() reading that covers the sample
	{"read_p50_ms", "ms", false},          // due instant to response body drained, all GET kinds
	{"recovery_s", "s", false},            // boot on the crashed data dir to absorbed and priced, median over cycles
	{"scenario_replay_s", "s", false},     // Manager.Submit to the job done, median over replays
	{"heap_bytes_per_sample", "B", false}, // live heap after the seal minus after set-up, per sample ingested
	{"peak_rss_mb", "MiB", false},         // VmHWM of the process after its last round
	{"setup_s", "s", false},               // corpus generation, wiring and boot, median over rounds
}

// kernelNames are the isolated single-goroutine replays; each reports
// _ns_per_sample, _allocs_per_sample and _bytes_per_sample.
var kernelNames = []string{
	"binfmt.hashes", "binfmt.strings", "entropy.shannon", "wallet.candidates",
	"static.endpoints", "yara.match", "static.analyze", "sandbox.run",
	"extract.extract", "fuzzyhash.hash", "campaign.add", "campaign.snapshot",
	"timeseries.record",
}

// perLayer are the metrics of single layers, measured by the traced run only.
// The comment on each says which end-to-end metric it should move, and where.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Tails of the end-to-end timings: too few samples per run, and too
		// sensitive to one scheduling hiccup on two cores, to carry a bound.
		{"stream.visible_p99_ms", "ms", false}, // visible_p50_ms; the tail of the same distribution
		{"api.read_p95_ms", "ms", false},       // read_p50_ms; the tail of the same distribution

		{"stream.sanity_busy_s", "s", false},                // samples_per_s on heavy-drain
		{"stream.static_busy_s", "s", false},                // samples_per_s on heavy-drain
		{"stream.sandbox_busy_s", "s", false},               // samples_per_s on heavy-drain
		{"stream.enrich_busy_s", "s", false},                // samples_per_s on heavy-drain
		{"stream.collector_hold_s", "s", false},             // samples_per_s on wide-drain, visible_p50_ms on paced-serve
		{"stream.collector_batches", "count", false},        // samples_per_s on wide-drain, visible_p50_ms on paced-serve
		{"stream.samples_per_batch", "count", true},         // samples_per_s on wide-drain
		{"stream.view_epochs", "count", false},              // samples_per_s on wide-drain, visible_p50_ms on paced-serve
		{"stream.epochs_per_sample", "ratio", false},        // the waste ratio: above 1 means probe-triggered republishes
		{"stream.seal_s", "s", false},                       // samples_per_s on wide-drain: last submit returning to absorbed and priced
		{"stream.first_quarter_samples_per_s", "1/s", true}, // flatness with corpus size, both drains
		{"stream.last_quarter_samples_per_s", "1/s", true},  // flatness with corpus size, both drains
		{"stream.submit_blocked_s", "s", false},             // time inside Submit minus WAL append: backpressure
		{"stream.queue_depth_mean", "count", false},         // which side of the queues is the bottleneck
		{"persist.wal_append_s", "s", false},                // samples_per_s on both drains
		{"persist.wal_append_us_mean", "us", false},         // samples_per_s on both drains
		{"persist.wal_bytes", "B", false},                   // samples_per_s on both drains, recovery_s
		// Store.Checkpoint: 30–250 ms of encode and fsync on a shared disk,
		// with a spread between runs of 13–28% of its median — more than any
		// bound the contract allows would cover. ISSUE 11 listed it end to end.
		{"persist.checkpoint_s", "s", false},        // recovery cost an operator schedules; moved by state size and encoding
		{"persist.fsync_s", "s", false},             // persist.checkpoint_s
		{"persist.checkpoint_mb", "MiB", false},     // persist.checkpoint_s, recovery_s
		{"persist.open_s", "s", false},              // recovery_s
		{"persist.resume_s", "s", false},            // recovery_s
		{"persist.replay_drain_s", "s", false},      // recovery_s
		{"probe.requests", "count", false},          // samples_per_s on wide-drain, recovery_s
		{"probe.cache_hit_ratio", "ratio", true},    // samples_per_s on wide-drain, recovery_s
		{"probe.converge_wait_s", "s", false},       // samples_per_s on wide-drain, recovery_s
		{"api.campaigns_p50_ms", "ms", false},       // read_p50_ms
		{"api.campaign_detail_p50_ms", "ms", false}, // read_p50_ms
		{"api.timeseries_p50_ms", "ms", false},      // read_p50_ms
		{"api.stats_p50_ms", "ms", false},           // read_p50_ms
		{"api.not_modified_ratio", "ratio", true},   // read_p50_ms
		{"api.response_bytes_mean", "B", false},     // read_p50_ms
		{"scenario.export_state_s", "s", false},     // scenario_replay_s, persist.checkpoint_s
		{"scenario.restore_state_s", "s", false},    // scenario_replay_s, recovery_s
		{"obs.scrape_ms", "ms", false},              // cost check on the registry exposition
		{"bench.late_max_ms", "ms", false},          // how late the harness's own generators ran
		{"bench.trace_overhead_pct", "%", false},    // samples_per_s of traced rounds against untraced ones
	}
	for _, k := range kernelNames {
		defs = append(defs,
			metricDef{k + "_ns_per_sample", "ns", false},
			metricDef{k + "_allocs_per_sample", "count", false},
			metricDef{k + "_bytes_per_sample", "B", false})
	}
	return defs
}()

// drainLayers derives the drain-phase layer readings of a traced round from
// the registry delta across the drain and from the harness's own record.
func drainLayers(res *roundResult, d *daemon, before promSamples, fr *feedResult) {
	t := time.Now()
	res.scrapeText = d.scrapeText()
	res.layer("obs.scrape_ms", ms(time.Since(t)))
	after := parseProm(res.scrapeText)

	for _, stage := range []string{"sanity", "static", "sandbox", "enrich"} {
		res.layer("stream."+stage+"_busy_s",
			promDelta(before, after, "stream_stage_duration_seconds_sum", `stage="`+stage+`"`))
	}
	n := float64(fr.n)
	// The lock-hold histogram observes collector batches and probe updates
	// alike; probe completions are counted on their own, so subtract them.
	holds := promDelta(before, after, "stream_collector_lock_hold_seconds_count")
	probes := promDelta(before, after, "probe_completed_total")
	batches := holds - probes
	res.layer("stream.collector_hold_s", promDelta(before, after, "stream_collector_lock_hold_seconds_sum"))
	res.layer("stream.collector_batches", batches)
	if batches > 0 {
		res.layer("stream.samples_per_batch", n/batches)
	}
	epochs := promDelta(before, after, "api_snapshot_epoch")
	res.layer("stream.view_epochs", epochs)
	res.layer("stream.epochs_per_sample", epochs/n)
	res.layer("stream.seal_s", fr.converged.Sub(fr.lastSubmit).Seconds())
	if q := fr.n / 4; q > 0 {
		res.layer("stream.first_quarter_samples_per_s", float64(q)/fr.visibleAt[q-1].Sub(fr.start).Seconds())
		res.layer("stream.last_quarter_samples_per_s", float64(q)/fr.visibleAt[fr.n-1].Sub(fr.visibleAt[fr.n-1-q]).Seconds())
	}
	appendS := promDelta(before, after, "persist_wal_append_seconds_sum")
	res.layer("stream.submit_blocked_s", fr.submitS-appendS)
	res.layer("stream.queue_depth_mean", fr.depthMean)
	res.layer("persist.wal_append_s", appendS)
	res.layer("persist.wal_append_us_mean", appendS/n*1e6)
	res.layer("persist.wal_bytes", promDelta(before, after, "persist_wal_active_segment_bytes"))
	res.layer("probe.requests", promDelta(before, after, "probe_pool_requests_total"))
	hits := promDelta(before, after, "probe_cache_hits_total")
	if lookups := hits + promDelta(before, after, "probe_cache_misses_total"); lookups > 0 {
		res.layer("probe.cache_hit_ratio", hits/lookups)
	}
	res.layer("probe.converge_wait_s", fr.converged.Sub(fr.absorbed).Seconds())
}

// serveLayers derives the serve-phase layer readings of a traced round: the
// read path by GET kind, and how late the harness's own generators ran.
func serveLayers(res *roundResult, before, after promSamples, fr *feedResult) {
	byKind := map[string][]float64{}
	notModified := 0.0
	for _, r := range fr.reads {
		if r.err != "" {
			continue
		}
		byKind[r.kind] = append(byKind[r.kind], r.ms)
		if r.notModified {
			notModified++
		}
	}
	for _, kind := range readKinds {
		if len(byKind[kind]) > 0 {
			res.layer("api."+kind+"_p50_ms", median(byKind[kind]))
		}
	}
	if len(fr.reads) > 0 {
		res.layer("api.not_modified_ratio", notModified/float64(len(fr.reads)))
	}
	if c := promDelta(before, after, "api_response_bytes_count"); c > 0 {
		res.layer("api.response_bytes_mean", promDelta(before, after, "api_response_bytes_sum")/c)
	}
	res.layer("bench.late_max_ms", fr.lateMaxMs)
}
