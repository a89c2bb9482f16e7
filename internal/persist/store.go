// Package persist makes the streaming ingestion engine durable across
// process restarts: a write-ahead log of every submitted sample plus
// periodic snapshots of the engine's full cross-sample state, with a
// recovery path that restores the latest snapshot into a fresh
// stream.Engine and replays the unacknowledged WAL tail to reach the exact
// pre-crash state.
//
// The protocol, in one picture:
//
//	Submit(sample) ──► append to wal-<n>.log ──► Engine.SubmitSeq(seq)
//	                                                  │
//	                               collector acks seq once processed
//	                                                  │
//	Checkpoint() ──► Engine.ExportState()  (state + ack watermark, one lock)
//	             ──► snap-<seq>.snap       (tmp + fsync + rename)
//	             ──► rotate WAL segment, prune segments below the watermark
//
//	Open(dir) + Resume(ctx, eng) ──► RestoreState(latest snapshot)
//	                             ──► Start ──► re-SubmitSeq unacked tail
//
// Correctness leans on two engine properties: samples are logged before
// they are submitted (so the WAL is a superset of everything the engine
// ever saw), and the exported ack watermark is read under the same lock as
// the collector state (so "reflected in the snapshot" and "acknowledged"
// coincide exactly). Replayed tail entries that were in flight at the crash
// re-run their analysis; entries the snapshot already reflects are skipped
// by sequence number, never re-submitted, so counters stay exact. A torn
// final WAL frame (SIGKILL mid-write) is dropped on recovery — its sample
// was never submitted, because Submit only runs after the append returns.
//
// Durability is process-crash grade by default: appends reach the kernel
// before Submit returns, so SIGKILL loses nothing; only an OS crash or
// power cut can lose the un-fsynced tail (snapshots are always fsynced).
package persist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"cryptomining/internal/model"
	"cryptomining/internal/obs"
	"cryptomining/internal/stream"
)

// Store is the durable companion of one stream.Engine. All methods are safe
// for concurrent use once Resume has returned.
type Store struct {
	dir string

	mu      sync.Mutex
	eng     *stream.Engine
	nextSeq uint64
	cur     *os.File // active WAL segment, open for append
	curPath string
	// curSize mirrors the active segment's size so the append rollback
	// offset is known without a per-submission fstat.
	curSize int64
	// lock holds the flock on the data directory for the store's lifetime.
	lock *os.File
	// failed poisons the store when a partial append could not be rolled
	// back: the active segment then ends in garbage, and appending valid
	// frames after it would make recovery silently drop them.
	failed bool

	// ckptMu serializes whole checkpoints, so the expensive encode+fsync
	// can run outside mu without two checkpoints interleaving.
	ckptMu sync.Mutex

	// Recovery inputs, loaded by Open and consumed by Resume.
	snap    *snapshotFile
	pending []walRecord
	resumed bool

	// log is the store's component logger (never nil; silent by default).
	// met is the registered instrument set, nil when metrics are disabled.
	log *slog.Logger
	met *storeMetrics
}

// Option configures a Store at Open time.
type Option func(*Store)

// WithMetrics makes the store register and maintain its durability metrics
// (WAL append/fsync latency, segment counts, checkpoint duration and size)
// in the registry.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Store) {
		if reg == nil {
			return
		}
		s.met = newStoreMetrics(reg, s)
	}
}

// WithLogger routes the store's structured logs (recovery summary, replay
// progress, checkpoints, append failures) to lg, scoped component=persist.
func WithLogger(lg *slog.Logger) Option {
	return func(s *Store) { s.log = obs.Component(lg, "persist") }
}

// storeMetrics is the store's registered instrument set.
type storeMetrics struct {
	appendLat *obs.Histogram
	fsyncLat  *obs.Histogram
	ckptLat   *obs.Histogram
	ckptBytes *obs.Histogram
	ckpts     *obs.Counter
}

func newStoreMetrics(reg *obs.Registry, s *Store) *storeMetrics {
	m := &storeMetrics{
		appendLat: reg.Histogram("persist_wal_append_seconds",
			"Latency of one WAL frame append (encode + write).", obs.LatencyBuckets),
		fsyncLat: reg.Histogram("persist_wal_fsync_seconds",
			"Latency of one fsync of the active WAL segment.", obs.LatencyBuckets),
		ckptLat: reg.Histogram("persist_checkpoint_seconds",
			"End-to-end duration of one checkpoint (export, encode, fsync, rotate, prune).",
			obs.LatencyBuckets),
		ckptBytes: reg.Histogram("persist_checkpoint_bytes",
			"Size of written snapshot files.", obs.SizeBuckets),
		ckpts: reg.Counter("persist_checkpoints_total",
			"Checkpoints completed successfully."),
	}
	reg.CounterFunc("persist_wal_logged_total",
		"Submissions ever logged to the write-ahead log.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.nextSeq - 1)
		})
	reg.GaugeFunc("persist_wal_segments",
		"WAL segment files currently on disk.",
		func() float64 {
			firsts, err := listSegments(s.dir)
			if err != nil {
				return 0
			}
			return float64(len(firsts))
		})
	reg.GaugeFunc("persist_wal_active_segment_bytes",
		"Size of the active WAL segment.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.curSize)
		})
	reg.GaugeFunc("persist_snapshots",
		"Snapshot files currently on disk.",
		func() float64 {
			seqs, err := listSnapshots(s.dir)
			if err != nil {
				return 0
			}
			return float64(len(seqs))
		})
	return m
}

// ResumeInfo reports what recovery found and did.
type ResumeInfo struct {
	// Resumed is true when prior state (snapshot or WAL entries) existed.
	Resumed bool
	// SnapshotSeq is the sequence watermark of the restored snapshot (0 if
	// none existed).
	SnapshotSeq uint64
	// Replayed counts WAL tail entries re-submitted into the engine.
	Replayed int
	// Logged is the total number of submissions ever logged; with a
	// deterministic feed it doubles as the resume cursor.
	Logged uint64
}

// CheckpointInfo reports one completed checkpoint.
type CheckpointInfo struct {
	// Path is the snapshot file written.
	Path string `json:"path"`
	// Bytes is its size.
	Bytes int64 `json:"bytes"`
	// Logged is the number of submissions logged so far.
	Logged uint64 `json:"logged"`
	// Processed is the number of submissions the snapshot fully reflects;
	// Logged - Processed entries remain WAL-replayable.
	Processed uint64 `json:"processed"`
}

// Open prepares a data directory: loads the newest valid snapshot, scans
// the WAL segments (truncating a torn tail), and opens the active segment
// for append. Call Resume next to load the state into an engine.
func Open(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, nextSeq: 1, log: obs.NopLogger()}
	for _, opt := range opts {
		opt(s)
	}

	// One store per data directory: a second process appending to the same
	// WAL would interleave duplicate sequence numbers and corrupt recovery.
	// flock (not a pid file) so the lock dies with the process — a SIGKILLed
	// owner must not block the restart that recovers its state.
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("persist: data dir %s is in use by another process: %w", dir, err)
	}
	s.lock = lock
	ok := false
	defer func() {
		if !ok {
			syscall.Flock(int(lock.Fd()), syscall.LOCK_UN)
			lock.Close()
		}
	}()

	if err := s.loadLatestSnapshot(); err != nil {
		return nil, err
	}
	if s.snap != nil {
		s.nextSeq = s.snap.NextSeq
		st := s.snap.State
		if st.AckLow > s.nextSeq {
			s.nextSeq = st.AckLow
		}
		for _, seq := range st.AckAbove {
			if seq >= s.nextSeq {
				s.nextSeq = seq + 1
			}
		}
	}

	// Entries the snapshot already reflects are dropped at read time: after
	// a checkpoint most of the retained WAL is below the watermark, and
	// holding those sample bodies until Resume would waste memory.
	ackLow := uint64(1)
	ackAbove := map[uint64]bool{}
	if s.snap != nil {
		if s.snap.State.AckLow > 0 {
			ackLow = s.snap.State.AckLow
		}
		for _, seq := range s.snap.State.AckAbove {
			ackAbove[seq] = true
		}
	}

	firsts, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, first := range firsts {
		path := segmentPath(dir, first)
		recs, validEnd, err := readSegment(path)
		if err != nil {
			return nil, fmt.Errorf("persist: read %s: %w", path, err)
		}
		if i == len(firsts)-1 {
			// Active segment: drop a torn tail so new frames never follow
			// garbage.
			if err := os.Truncate(path, validEnd); err != nil {
				return nil, err
			}
			s.curSize = validEnd
		}
		for _, rec := range recs {
			if rec.Seq >= s.nextSeq {
				s.nextSeq = rec.Seq + 1
			}
			if rec.Seq < ackLow || ackAbove[rec.Seq] {
				continue
			}
			s.pending = append(s.pending, rec)
		}
	}

	if len(firsts) > 0 {
		s.curPath = segmentPath(dir, firsts[len(firsts)-1])
		s.cur, err = os.OpenFile(s.curPath, os.O_WRONLY|os.O_APPEND, 0o644)
	} else {
		s.curPath = segmentPath(dir, s.nextSeq)
		s.cur, err = os.Create(s.curPath)
	}
	if err != nil {
		return nil, err
	}
	ok = true
	snapSeq := uint64(0)
	if s.snap != nil {
		snapSeq = s.snap.NextSeq
	}
	s.log.Info("opened data directory",
		"dir", dir, "snapshot_seq", snapSeq,
		"pending_replay", len(s.pending), "next_seq", s.nextSeq)
	return s, nil
}

// loadLatestSnapshot loads the newest decodable snapshot, skipping (and
// logging through the error path of) corrupt ones, and clears stray .tmp
// files from interrupted writes.
func (s *Store) loadLatestSnapshot() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if name := ent.Name(); strings.HasSuffix(name, tmpSuffix) {
			_ = os.Remove(filepath.Join(s.dir, name))
		}
	}
	seqs, err := listSnapshots(s.dir)
	if err != nil {
		return err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		snap, err := loadSnapshot(snapshotPath(s.dir, seqs[i]))
		if err == nil {
			s.snap = snap
			return nil
		}
		if i == 0 {
			// No snapshot decodes at all: recovery can still replay the
			// full WAL into an empty engine, unless the WAL was already
			// pruned against one of these snapshots — then state is gone
			// and pretending otherwise would silently drop samples.
			if firsts, ferr := listSegments(s.dir); ferr == nil && (len(firsts) == 0 || firsts[0] > 1) {
				return fmt.Errorf("persist: no readable snapshot and WAL starts past seq 1: %w", err)
			}
		}
	}
	return nil
}

// Resume loads the recovered state into a fresh, unstarted engine, starts
// it with ctx, and replays the unacknowledged WAL tail. It must be called
// exactly once, before Submit or Checkpoint; with an empty data directory
// it simply starts the engine.
func (s *Store) Resume(ctx context.Context, eng *stream.Engine) (ResumeInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.resumed {
		return ResumeInfo{}, errors.New("persist: Resume called twice")
	}

	info := ResumeInfo{Logged: s.nextSeq - 1}
	if s.snap != nil {
		if err := eng.RestoreState(s.snap.State); err != nil {
			return ResumeInfo{}, err
		}
		info.Resumed = true
		info.SnapshotSeq = s.snap.NextSeq
	}
	eng.Start(ctx)

	// pending holds exactly the tail the snapshot does not reflect — Open
	// filtered acked entries against the snapshot's watermark at read time.
	for i := range s.pending {
		rec := &s.pending[i]
		sample := rec.Sample
		if err := eng.SubmitSeq(ctx, &sample, rec.Seq); err != nil {
			return ResumeInfo{}, fmt.Errorf("persist: replay seq %d: %w", rec.Seq, err)
		}
		info.Replayed++
	}
	if info.Replayed > 0 {
		info.Resumed = true
	}

	s.pending = nil
	s.snap = nil
	s.eng = eng
	s.resumed = true
	s.log.Info("resumed engine",
		"resumed", info.Resumed, "snapshot_seq", info.SnapshotSeq,
		"replayed", info.Replayed, "logged", info.Logged)
	return info, nil
}

// Submit logs one sample to the WAL and then feeds it to the engine. The
// append completes (reaches the kernel) before the engine sees the sample,
// which is the write-ahead property recovery depends on.
func (s *Store) Submit(ctx context.Context, sample *model.Sample) error {
	s.mu.Lock()
	if !s.resumed {
		s.mu.Unlock()
		return errors.New("persist: Submit before Resume")
	}
	if s.failed {
		s.mu.Unlock()
		return errors.New("persist: store failed (unrecoverable partial WAL write)")
	}
	seq := s.nextSeq
	var t0 time.Time
	if s.met != nil {
		t0 = time.Now() //cryptolint:allow directclock WAL append latency telemetry only
	}
	n, err := appendFrame(s.cur, &walRecord{Seq: seq, Sample: *sample})
	if err != nil {
		// Roll the segment back to the pre-write size: a partial frame left
		// in place would make recovery silently drop every later frame. If
		// even the rollback fails, poison the store rather than risk it.
		if terr := s.cur.Truncate(s.curSize); terr != nil {
			s.failed = true
		}
		s.mu.Unlock()
		s.log.Error("wal append failed", "seq", seq, "err", err, "poisoned", s.failed)
		return err
	}
	if s.met != nil {
		s.met.appendLat.Observe(time.Since(t0).Seconds()) //cryptolint:allow directclock WAL append latency telemetry only
	}
	s.curSize += int64(n)
	s.nextSeq++
	eng := s.eng
	s.mu.Unlock()
	// Submit outside the lock: backpressure may block here, and checkpoints
	// must stay possible meanwhile.
	return eng.SubmitSeq(ctx, sample, seq)
}

// Checkpoint exports the engine state, persists it as the new snapshot,
// rotates the WAL segment and prunes everything the snapshot supersedes.
// Safe to call at any time, including mid-ingestion: the expensive
// encode+fsync runs without holding the submission lock, so ingestion keeps
// flowing while the snapshot is written (anything logged meanwhile simply
// lands above the snapshot's watermark and stays WAL-replayable).
func (s *Store) Checkpoint() (CheckpointInfo, error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	var ckptStart time.Time
	if s.met != nil {
		ckptStart = time.Now() //cryptolint:allow directclock checkpoint latency telemetry only
	}

	s.mu.Lock()
	if !s.resumed {
		s.mu.Unlock()
		return CheckpointInfo{}, errors.New("persist: Checkpoint before Resume")
	}
	if s.failed {
		s.mu.Unlock()
		return CheckpointInfo{}, errors.New("persist: store failed (unrecoverable partial WAL write)")
	}
	eng := s.eng
	seq := s.nextSeq
	if err := s.syncActive(); err != nil {
		s.mu.Unlock()
		return CheckpointInfo{}, err
	}
	s.mu.Unlock()

	st := eng.ExportState()
	path, size, err := writeSnapshot(s.dir, seq, st)
	if err != nil {
		return CheckpointInfo{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Rotate so future appends land past the snapshot; skip when the active
	// segment is already the rotation target (no appends since last time).
	if newPath := segmentPath(s.dir, s.nextSeq); newPath != s.curPath {
		if err := s.cur.Close(); err != nil {
			return CheckpointInfo{}, err
		}
		f, err := os.Create(newPath)
		if err != nil {
			return CheckpointInfo{}, err
		}
		s.cur, s.curPath, s.curSize = f, newPath, 0
	}
	s.prune(st.AckLow)

	info := CheckpointInfo{
		Path:      path,
		Bytes:     size,
		Logged:    seq - 1,
		Processed: st.AckLow - 1 + uint64(len(st.AckAbove)),
	}
	if s.met != nil {
		s.met.ckptLat.Observe(time.Since(ckptStart).Seconds()) //cryptolint:allow directclock checkpoint latency telemetry only
		s.met.ckptBytes.Observe(float64(size))
		s.met.ckpts.Inc()
	}
	s.log.Info("checkpoint written",
		"path", info.Path, "bytes", info.Bytes,
		"logged", info.Logged, "processed", info.Processed)
	return info, nil
}

// syncActive fsyncs the active segment, timing the sync when metrics are
// enabled. Caller must hold s.mu.
func (s *Store) syncActive() error {
	if s.met == nil {
		return s.cur.Sync()
	}
	t0 := time.Now() //cryptolint:allow directclock fsync latency telemetry only
	err := s.cur.Sync()
	s.met.fsyncLat.Observe(time.Since(t0).Seconds()) //cryptolint:allow directclock fsync latency telemetry only
	return err
}

// prune removes snapshots older than the newest and WAL segments whose
// entries all lie below the ack watermark. Best-effort: a leftover file is
// harmless (recovery picks the newest snapshot and skips acked entries).
func (s *Store) prune(ackLow uint64) {
	if seqs, err := listSnapshots(s.dir); err == nil {
		for _, seq := range seqs[:max(len(seqs)-1, 0)] {
			_ = os.Remove(snapshotPath(s.dir, seq))
		}
	}
	firsts, err := listSegments(s.dir)
	if err != nil {
		return
	}
	for i := 0; i+1 < len(firsts); i++ {
		path := segmentPath(s.dir, firsts[i])
		// All entries of segment i are below the next segment's first
		// sequence; prunable once the watermark has passed every one.
		if firsts[i+1] <= ackLow && path != s.curPath {
			_ = os.Remove(path)
		}
	}
	syncDir(s.dir)
}

// Close syncs and closes the active WAL segment. It does not checkpoint;
// callers wanting a fresh snapshot should Checkpoint first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil {
		return nil
	}
	err := s.syncActive()
	if cerr := s.cur.Close(); err == nil {
		err = cerr
	}
	s.cur = nil
	if s.lock != nil {
		_ = syscall.Flock(int(s.lock.Fd()), syscall.LOCK_UN)
		_ = s.lock.Close()
		s.lock = nil
	}
	return err
}
