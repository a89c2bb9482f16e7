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
// the in-package stages; external code sees a Task only through the Stage
// contract and the read accessors.
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

// Sample returns the sample under analysis.
func (t *Task) Sample() *model.Sample { return t.sample }

// Key returns the lowercase SHA-256 the task is keyed and sharded by.
func (t *Task) Key() string { return t.key }

// Outcome returns the outcome assembled so far (nil before the sanity
// stage has run).
func (t *Task) Outcome() *SampleOutcome { return t.outcome }

// Stage is one step of the per-shard analysis chain. Stages are the
// engine's unit of composition: the engine wires a chain of stages per
// shard over bounded channels, timing every Process call — which is also
// how distributing stages across nodes stays a transport problem rather
// than a refactor. Process runs on exactly one goroutine per (shard,
// stage), so implementations may keep unsynchronized per-instance state.
type Stage interface {
	// Name identifies the stage in StageStats and metric labels.
	Name() string
	// Process advances one task. It must either complete the task's work
	// for this stage or record the failure on the task's outcome; the
	// engine always forwards the task to the next stage.
	Process(t *Task)
}

// StageOption configures a stage built with NewStage.
type StageOption func(*funcStage)

// WithObserver adds a latency observer invoked after every Process call
// with its duration. Multiple observers stack.
func WithObserver(fn func(time.Duration)) StageOption {
	return func(s *funcStage) { s.observers = append(s.observers, fn) }
}

// WithMetrics makes the stage self-register its latency histogram
// (stream_stage_duration_seconds{stage=<name>}) in the registry and observe
// every Process call into it.
func WithMetrics(reg *obs.Registry) StageOption {
	return func(s *funcStage) {
		if reg == nil {
			return
		}
		h := reg.Histogram(metricStageDuration,
			"Per-stage processing latency of the streaming analysis chain.",
			obs.LatencyBuckets, obs.L("stage", s.name))
		s.observers = append(s.observers, func(d time.Duration) { h.Observe(d.Seconds()) })
	}
}

// metricStageDuration is the stage latency histogram family; exported
// queries and the metrics smoke test key on it.
const metricStageDuration = "stream_stage_duration_seconds"

// funcStage adapts a named function into a Stage, timing Process for its
// observers.
type funcStage struct {
	name      string
	fn        func(*Task)
	observers []func(time.Duration)
}

// NewStage builds a Stage from a name and a process function. Observers
// attached via options (engine stats, self-registered metrics) all see the
// same measured duration, which is what keeps StageStats and the exposition
// in exact agreement.
func NewStage(name string, fn func(*Task), opts ...StageOption) Stage {
	s := &funcStage{name: name, fn: fn}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

func (s *funcStage) Name() string { return s.name }

func (s *funcStage) Process(t *Task) {
	if len(s.observers) == 0 {
		s.fn(t)
		return
	}
	t0 := time.Now() //cryptolint:allow directclock stage latency telemetry only
	s.fn(t)
	d := time.Since(t0) //cryptolint:allow directclock stage latency telemetry only
	for _, ob := range s.observers {
		ob(d)
	}
}
