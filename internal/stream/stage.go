package stream

import (
	"time"

	"cryptomining/internal/avsim"
	"cryptomining/internal/fuzzyhash"
	"cryptomining/internal/model"
	"cryptomining/internal/obs"
	"cryptomining/internal/sandbox"
	"cryptomining/internal/static"
)

// Task is one sample traveling the stage chain, accumulating analysis
// artefacts on the way to the collector. The artefact fields are owned by
// the in-package stages.
type Task struct {
	sample *model.Sample
	// key is the lowercase hash the sample is keyed (and sharded) by.
	key string
	// seq is the caller-assigned submission sequence (SubmitSeq); zero for
	// untracked submissions. The collector acks it after processing.
	seq uint64

	outcome *SampleOutcome
	report  *model.AVReport
	// labels are the detected AV labels, for PPI-botnet enrichment.
	labels  []string
	cls     avsim.Classification
	static  *static.Result
	dynamic *sandbox.Report
	// sig is the body's fuzzy hash for stock-tool attribution, computed by
	// the enrich stage; nil when the aggregation will compare none.
	sig *fuzzyhash.Signature
}

// stage is one step of the per-shard analysis chain. The engine wires a
// chain of stages per shard over bounded channels; process runs on exactly
// one goroutine per (shard, stage), so it may keep unsynchronized
// per-instance state. It must either complete the task's work for this stage
// or record the failure on the task's outcome: the engine always forwards
// the task to the next stage.
type stage struct {
	idx     int
	process func(*Task)
	stats   *counters
	// hist is the stage's stream_stage_duration_seconds{stage} histogram;
	// nil when metrics are disabled.
	hist *obs.Histogram
}

// metricStageDuration is the stage latency histogram family; exported
// queries and the metrics smoke test key on it.
const metricStageDuration = "stream_stage_duration_seconds"

// newStage builds the stage at idx of the chain, registering its latency
// histogram when reg is non-nil.
func newStage(idx int, process func(*Task), stats *counters, reg *obs.Registry) stage {
	s := stage{idx: idx, process: process, stats: stats}
	if reg != nil {
		s.hist = reg.Histogram(metricStageDuration,
			"Per-stage processing latency of the streaming analysis chain.",
			obs.LatencyBuckets, obs.L("stage", StageNames[idx]))
	}
	return s
}

// run processes one task, timing it once: StageStats and the histogram
// observe the same measured duration, which keeps them in exact agreement.
func (s *stage) run(t *Task) {
	t0 := time.Now() //cryptolint:allow directclock stage latency telemetry only
	s.process(t)
	d := time.Since(t0) //cryptolint:allow directclock stage latency telemetry only
	s.stats.observeStage(s.idx, d)
	if s.hist != nil {
		s.hist.Observe(d.Seconds())
	}
}
