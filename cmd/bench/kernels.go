package main

import (
	"runtime"
	"strings"
	"time"

	"cryptomining/internal/binfmt"
	"cryptomining/internal/campaign"
	"cryptomining/internal/dnssim"
	"cryptomining/internal/entropy"
	"cryptomining/internal/extract"
	"cryptomining/internal/fuzzyhash"
	"cryptomining/internal/model"
	"cryptomining/internal/sandbox"
	"cryptomining/internal/static"
	"cryptomining/internal/timeseries"
	"cryptomining/internal/wallet"
	"cryptomining/internal/yara"
)

// Kernel replay bounds: the first kernelSamples corpus samples, cut short at
// kernelBytes of bodies so the ~30 KB corpus costs about what the ~0.9 KB one
// does.
const (
	kernelSamples = 512
	kernelBytes   = 2 << 20
)

// kernelCost is one kernel's per-sample cost over the replayed prefix.
type kernelCost struct {
	NsPerSample     float64 `json:"ns_per_sample"`
	AllocsPerSample float64 `json:"allocs_per_sample"`
	BytesPerSample  float64 `json:"bytes_per_sample"`
}

// measureKernel runs fn once per sample on the calling goroutine and reports
// time, heap allocations and allocated bytes per sample. Nothing else may be
// running: the allocation counters are process-wide.
func measureKernel(n int, fn func(i int)) kernelCost {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	return kernelCost{
		NsPerSample:     float64(elapsed) / float64(n),
		AllocsPerSample: float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerSample:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
	}
}

// sink keeps the compiler from discarding a kernel's result.
var sink any

// replayKernels times each analysis kernel in isolation, through its
// package's public function, over a prefix of the corpus: one goroutine, no
// engine, no channels. The per-sample costs say where a stage's busy time
// goes; they do not add up to it (static.analyze contains the five kernels
// before it).
func replayKernels(c corpus) map[string]kernelCost {
	samples := c.all()
	if len(samples) > kernelSamples {
		samples = samples[:kernelSamples]
	}
	total := 0
	for i, s := range samples {
		if total += len(s.Content); total > kernelBytes {
			samples = samples[:i+1]
			break
		}
	}
	n := len(samples)
	body := func(i int) []byte { return samples[i].Content }
	out := map[string]kernelCost{}

	// Inputs the later kernels take from the earlier ones, computed outside
	// any measurement.
	analyzer := static.New()
	texts := make([]string, n)
	statics := make([]static.Result, n)
	for i := range samples {
		texts[i] = strings.Join(binfmt.ExtractStrings(body(i), analyzer.MinStringLength), "\n")
		statics[i] = analyzer.Analyze(body(i))
	}
	box := sandbox.New(c.cfg.Resolver)
	reports := make([]*sandbox.Report, n)
	records := make([]model.Record, n)
	for i, s := range samples {
		reports[i] = box.Run(s.SHA256, s.Content)
		var av *model.AVReport
		if c.cfg.AV != nil {
			av = c.cfg.AV.Report(s.SHA256)
		}
		records[i] = extract.Extract(extract.Inputs{Sample: s, Static: &statics[i], Dynamic: reports[i], AVReport: av})
	}

	out["binfmt.hashes"] = measureKernel(n, func(i int) { sink, _ = binfmt.Hashes(body(i)) })
	out["binfmt.strings"] = measureKernel(n, func(i int) { sink = binfmt.ExtractStrings(body(i), analyzer.MinStringLength) })
	out["entropy.shannon"] = measureKernel(n, func(i int) { sink = entropy.Shannon(body(i)) })
	out["wallet.candidates"] = measureKernel(n, func(i int) { sink = wallet.ExtractCandidates(texts[i]) })
	out["static.endpoints"] = measureKernel(n, func(i int) { sink = static.ExtractEndpoints(texts[i]) })
	rules := yara.MinerRules()
	out["yara.match"] = measureKernel(n, func(i int) { sink = rules.Match(body(i)) })
	out["static.analyze"] = measureKernel(n, func(i int) { sink = analyzer.Analyze(body(i)) })
	out["sandbox.run"] = measureKernel(n, func(i int) { sink = box.Run(samples[i].SHA256, body(i)) })
	out["extract.extract"] = measureKernel(n, func(i int) {
		sink = extract.Extract(extract.Inputs{Sample: samples[i], Static: &statics[i], Dynamic: reports[i]})
	})
	out["fuzzyhash.hash"] = measureKernel(n, func(i int) { sink = fuzzyhash.Hash(body(i)) })

	// The aggregator as the collector drives it: one Add per kept sample,
	// one Snapshot per publication. Every replayed record with an identifier
	// stands in for a kept sample.
	pools := c.cfg.Pools.DomainMap()
	var detector *dnssim.AliasDetector
	if c.cfg.Zone != nil {
		detector = dnssim.NewAliasDetector(c.cfg.Zone, pools)
	}
	aggCfg := campaign.DefaultConfig(c.cfg.OSINT, detector, pools)
	var inputs []campaign.Input
	for i, rec := range records {
		if rec.HasIdentifier() {
			inputs = append(inputs, campaign.Input{Record: rec, Content: body(i)})
		}
	}
	if len(inputs) > 0 {
		agg := campaign.NewIncremental(aggCfg)
		out["campaign.add"] = measureKernel(len(inputs), func(i int) { agg.Add(inputs[i]) })
		// One Snapshot after every Add, as the collector publishes: measured
		// together with the Adds, whose cost is then taken out.
		agg = campaign.NewIncremental(aggCfg)
		add := out["campaign.add"]
		both := measureKernel(len(inputs), func(i int) {
			agg.Add(inputs[i])
			sink = agg.Snapshot()
		})
		out["campaign.snapshot"] = kernelCost{
			NsPerSample:     both.NsPerSample - add.NsPerSample,
			AllocsPerSample: both.AllocsPerSample - add.AllocsPerSample,
			BytesPerSample:  both.BytesPerSample - add.BytesPerSample,
		}
	}

	if ts, err := timeseries.NewStore(nil); err == nil {
		at := time.Unix(1_500_000_000, 0)
		out["timeseries.record"] = measureKernel(n, func(i int) {
			// What the collector records per kept sample: the two ecosystem
			// arrivals and the campaign's timeline point, one second apart.
			now := at.Add(time.Duration(i) * time.Second)
			ts.Record(timeseries.SeriesSamples, now, 1)
			ts.Record(timeseries.SeriesKept, now, 1)
			ts.RecordTimeline(samples[i].SHA256[:8], timeseries.TimelineSamples, now, 1)
		})
	}
	return out
}
