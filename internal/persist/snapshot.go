package persist

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"cryptomining/internal/stream"
)

// Snapshots are full engine states named snap-<seq>.snap, where seq is the
// store's next sequence number at checkpoint time (monotonic, so the highest
// numbered file is the newest). Each file is written to a .tmp sibling,
// fsynced and renamed into place — a crash mid-write leaves only a stray
// .tmp, which Open removes, never a half snapshot under the real name.
const (
	snapPrefix  = "snap-"
	snapSuffix  = ".snap"
	tmpSuffix   = ".tmp"
	snapVersion = 1
)

// snapshotFile is the on-disk envelope of one checkpoint.
type snapshotFile struct {
	// Version guards against decoding a snapshot written by an incompatible
	// build of the state structures.
	Version int
	// NextSeq is the store's next submission sequence at checkpoint time.
	NextSeq uint64
	// State is the full engine state.
	State *stream.EngineState
}

func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix))
}

// snapshotSeq parses the sequence out of a snapshot file name.
func snapshotSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSnapshots returns the snapshot sequence numbers under dir, ascending.
func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if seq, ok := snapshotSeq(ent.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// writeSnapshot atomically persists one checkpoint.
func writeSnapshot(dir string, seq uint64, st *stream.EngineState) (path string, size int64, err error) {
	path = snapshotPath(dir, seq)
	size, err = WriteFileAtomic(path, func(w io.Writer) error {
		if err := gob.NewEncoder(w).Encode(&snapshotFile{Version: snapVersion, NextSeq: seq, State: st}); err != nil {
			return fmt.Errorf("persist: encode snapshot: %w", err)
		}
		return nil
	})
	if err != nil {
		return "", 0, err
	}
	return path, size, nil
}

// WriteFileAtomic replaces path with what write produces, or leaves it
// untouched: the bytes go to a .tmp sibling that is fsynced, renamed over
// path, and made durable with a directory fsync. A crash mid-write leaves
// only the stray .tmp, which Open removes. It returns the written size.
func WriteFileAtomic(path string, write func(io.Writer) error) (int64, error) {
	tmp := path + tmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	fail := func(err error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	var size int64
	if info, _ := f.Stat(); info != nil {
		size = info.Size()
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	syncDir(filepath.Dir(path))
	return size, nil
}

// loadSnapshot reads and validates one snapshot file.
func loadSnapshot(path string) (*snapshotFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var snap snapshotFile
	if err := gob.NewDecoder(f).Decode(&snap); err != nil {
		return nil, fmt.Errorf("persist: decode snapshot %s: %w", filepath.Base(path), err)
	}
	if snap.Version != snapVersion {
		return nil, fmt.Errorf("persist: snapshot %s has version %d, want %d",
			filepath.Base(path), snap.Version, snapVersion)
	}
	if snap.State == nil {
		return nil, fmt.Errorf("persist: snapshot %s has no state", filepath.Base(path))
	}
	return &snap, nil
}

// syncDir fsyncs a directory so renames and unlinks survive a power cut.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
