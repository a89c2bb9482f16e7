package scenario

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cryptomining/internal/obs"
	"cryptomining/internal/stream"
)

// State is a scenario job's lifecycle phase.
type State string

const (
	StatePending State = "pending"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// ErrCapacity rejects submissions when the retained-job cap is reached and
// every retained job is still pending or running.
var ErrCapacity = errors.New("scenario: job capacity reached")

// ErrUnknownJob is returned for lookups of a job ID the manager does not
// retain (never submitted, or already evicted).
var ErrUnknownJob = errors.New("scenario: unknown job")

// Config wires a Manager to the live engine it shadows.
type Config struct {
	// Engine is the live engine scenarios fork. Required.
	Engine *stream.Engine
	// Base is the same configuration the live engine was built with; the
	// shadow inherits it with the isolation-critical fields (pools, prober,
	// metrics, logger, recording clock) replaced. Base.Pools is required.
	Base stream.Config
	// MaxConcurrent bounds simultaneously running replays (default 1).
	MaxConcurrent int
	// MaxRetained bounds retained jobs; the oldest finished job is evicted
	// to admit a new one (default 16).
	MaxRetained int
	// Now supplies job timestamps and the shadow clock's fork instant. It
	// should be the same recording clock the live engine's timeseries use,
	// so shadow series share the live wall-epoch grid. Default time.Now.
	// No binary sets it: it is the clock seam tests pin.
	Now func() time.Time
	// Metrics optionally registers the scenario instrument set.
	Metrics *obs.Registry
}

// Job is one scenario submission's lifecycle record.
type Job struct {
	ID          string
	Doc         Document
	State       State
	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
	Error       string
	Result      *Result
}

// Manager runs what-if scenarios asynchronously against shadow forks of the
// live engine: Submit validates and enqueues, a bounded worker pool replays,
// and Job/Jobs serve status and results until eviction.
type Manager struct {
	cfg Config
	sem chan struct{}

	mu   sync.Mutex
	jobs map[string]*Job //cryptolint:guardedby mu
	// order retains submission order for capacity eviction.
	order []string //cryptolint:guardedby mu
	seq   int      //cryptolint:guardedby mu

	runsOK       *obs.Counter
	runsErr      *obs.Counter
	runsRejected *obs.Counter
	active       *obs.Gauge
	dur          *obs.Histogram
}

// NewManager validates the configuration and builds a manager. No goroutines
// start until the first Submit.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Engine == nil {
		return nil, errors.New("scenario: Config.Engine is required")
	}
	if cfg.Base.Pools == nil {
		return nil, errors.New("scenario: Config.Base.Pools is required")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 1
	}
	if cfg.MaxRetained <= 0 {
		cfg.MaxRetained = 16
	}
	if cfg.Now == nil {
		cfg.Now = time.Now //cryptolint:allow directclock job timestamps default to wall clock when no recording clock is injected
	}
	m := &Manager{
		cfg:  cfg,
		sem:  make(chan struct{}, cfg.MaxConcurrent),
		jobs: map[string]*Job{},
	}
	if reg := cfg.Metrics; reg != nil {
		const runsHelp = "Scenario runs by outcome: replay completed ok or with an error, or submission rejected at the retention cap."
		m.runsOK = reg.Counter("scenario_runs_total", runsHelp, obs.L("outcome", "ok"))
		m.runsErr = reg.Counter("scenario_runs_total", runsHelp, obs.L("outcome", "error"))
		m.runsRejected = reg.Counter("scenario_runs_total", runsHelp, obs.L("outcome", "rejected"))
		m.active = reg.Gauge("scenario_active", "Scenario replays currently running.")
		m.dur = reg.Histogram("scenario_replay_duration_seconds", "Wall-clock duration of scenario replays.", obs.LatencyBuckets)
	}
	return m, nil
}

// Submit validates the document, admits it against the retention cap and
// starts the replay asynchronously. It returns the job ID immediately.
func (m *Manager) Submit(doc Document) (string, error) {
	if err := doc.Validate(); err != nil {
		return "", err
	}
	m.mu.Lock()
	if err := m.evictForAdmissionLocked(); err != nil {
		m.mu.Unlock()
		if m.runsRejected != nil {
			m.runsRejected.Inc()
		}
		return "", err
	}
	m.seq++
	job := &Job{
		ID:          fmt.Sprintf("sc-%d", m.seq),
		Doc:         doc,
		State:       StatePending,
		SubmittedAt: m.cfg.Now(),
	}
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.mu.Unlock()

	go m.run(job.ID)
	return job.ID, nil
}

// evictForAdmissionLocked makes room for one more job, evicting the oldest
// finished job if the cap is reached. Caller holds m.mu.
func (m *Manager) evictForAdmissionLocked() error {
	if len(m.jobs) < m.cfg.MaxRetained {
		return nil
	}
	for i, id := range m.order {
		j := m.jobs[id]
		if j == nil || j.State == StateDone || j.State == StateFailed {
			delete(m.jobs, id)
			m.order = append(m.order[:i:i], m.order[i+1:]...)
			return nil
		}
	}
	return ErrCapacity
}

// run executes one job end to end: it snapshots the live engine's state
// (briefly under the collector mutex — the only time the live engine is
// touched), then replays entirely against the private shadow.
func (m *Manager) run(id string) {
	m.sem <- struct{}{}
	defer func() { <-m.sem }()

	m.mu.Lock()
	job, ok := m.jobs[id]
	if !ok { // evicted while queued
		m.mu.Unlock()
		return
	}
	job.State = StateRunning
	job.StartedAt = m.cfg.Now()
	doc := job.Doc
	m.mu.Unlock()
	if m.active != nil {
		m.active.Add(1)
	}

	forkedAt := m.cfg.Now()
	state := m.cfg.Engine.ExportState()
	res, err := replay(runInput{
		doc:      doc,
		base:     m.cfg.Base,
		state:    state,
		forkedAt: forkedAt,
	})

	m.mu.Lock()
	if job = m.jobs[id]; job != nil {
		job.FinishedAt = m.cfg.Now()
		if err != nil {
			job.State = StateFailed
			job.Error = err.Error()
		} else {
			job.State = StateDone
			job.Result = res
		}
		if m.dur != nil {
			m.dur.Observe(job.FinishedAt.Sub(job.StartedAt).Seconds())
		}
	}
	m.mu.Unlock()

	if m.active != nil {
		m.active.Add(-1)
	}
	if err != nil {
		if m.runsErr != nil {
			m.runsErr.Inc()
		}
	} else if m.runsOK != nil {
		m.runsOK.Inc()
	}
}

// Job returns a copy of one job's current status.
func (m *Manager) Job(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, ErrUnknownJob
	}
	return *j, nil
}

// Jobs lists retained jobs, newest submission first.
func (m *Manager) Jobs() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.jobs))
	for _, id := range m.order {
		if j := m.jobs[id]; j != nil {
			out = append(out, *j)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SubmittedAt.After(out[j].SubmittedAt) })
	return out
}

// Wait blocks until the job reaches a terminal state or the timeout
// expires, returning the final status. Polling-based so it needs no
// per-job condition plumbing; the interval is coarse enough for tests and
// CLI use.
func (m *Manager) Wait(id string, timeout time.Duration) (Job, error) {
	deadline := make(chan struct{})
	if timeout > 0 {
		t := time.AfterFunc(timeout, func() { close(deadline) }) //cryptolint:allow directclock poll pacing only, never feeds recorded state
		defer t.Stop()
	}
	for {
		j, err := m.Job(id)
		if err != nil {
			return Job{}, err
		}
		if j.State == StateDone || j.State == StateFailed {
			return j, nil
		}
		select {
		case <-deadline:
			return j, nil
		case <-time.After(10 * time.Millisecond): //cryptolint:allow directclock poll pacing only, never feeds recorded state
		}
	}
}
