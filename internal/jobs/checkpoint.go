// checkpoint.go is the durability layer of suspend/resume: a Checkpoint is
// one job's progress snapshot — identity, the re-buildable request (workload
// name + encoded params; closures cannot be persisted), and the cursor
// watermark plus partial reduction state captured at a quiescent chunk-wave
// boundary — behind a pluggable CheckpointStore (in-memory, or a file-backed
// WAL for crash recovery across process restarts).
//
// Consistency model: the runtime only snapshots progress at points where no
// participant is mid-chunk — admission, suspend quiesce, and completion — so
// a checkpoint's (Cursor, Acc) pair is always exact: every iteration below
// Cursor executed exactly once and is folded into Acc, nothing above it ran.
// Nothing here is on the per-chunk execution path; a job pays store I/O only
// at those lifecycle transitions.
package jobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Checkpoint is one job's durable progress snapshot. The serving layer fills
// the identity fields (Workload, Params, Label) when it submits a
// checkpointed request; the runtime fills everything else and keeps the
// store's copy current across suspend/resume cycles.
type Checkpoint struct {
	// JobID is the tracer-assigned job id, stable across suspend/resume and
	// across restarts (recovery re-begins the trace under the same id).
	JobID uint64 `json:"job"`
	// Workload names the request builder and Params carries its encoded
	// parameters (e.g. bench.JobParams as JSON): recovery reconstructs the
	// request by name because function values cannot be persisted.
	Workload string          `json:"workload"`
	Params   json.RawMessage `json:"params,omitempty"`
	// Label is the request's diagnostic label.
	Label string `json:"label,omitempty"`
	// Scheduling policy, restored verbatim on recovery. Deadline is absolute,
	// so a job recovered after its deadline completes as a (counted) miss.
	Tenant   string    `json:"tenant,omitempty"`
	Priority int       `json:"priority,omitempty"`
	Deadline time.Time `json:"deadline,omitempty"`
	// N is the iteration space; Cursor the exclusive executed watermark:
	// every iteration in [0, Cursor) ran exactly once, nothing at or above
	// Cursor did. A resumed job claims chunks starting at Cursor.
	N      int `json:"n"`
	Cursor int `json:"cursor"`
	// Acc is the partial reduction folded over [0, Cursor): in arrival
	// order for a commutative reduction, in chunk order for an ordered one.
	// Plain bodies restart from Cursor 0 on recovery.
	Acc float64 `json:"acc,omitempty"`
	// After lists the trace ids of upstream jobs this one was submitted
	// behind, so recovery can rebuild dependency edges. Ids absent from the
	// store at recovery finished before the crash and gate nothing.
	After []uint64 `json:"after,omitempty"`
}

// CheckpointStore persists job progress snapshots. Implementations must be
// safe for concurrent use; the runtime calls them only at quiescent
// lifecycle transitions (admission, suspend, completion), never per chunk.
type CheckpointStore interface {
	// Put durably records cp, replacing any previous snapshot with the same
	// JobID.
	Put(cp Checkpoint) error
	// Delete drops the snapshot of the given job — the job completed or was
	// canceled and must not be recovered.
	Delete(jobID uint64) error
	// Load returns every live snapshot (unfinished jobs), for crash
	// recovery. Snapshots are returned in ascending JobID order.
	Load() ([]Checkpoint, error)
}

// MemStore is an in-memory CheckpointStore: suspend/resume without
// durability (tests, single-process pause/resume, migration staging).
type MemStore struct {
	mu   sync.Mutex
	live map[uint64]Checkpoint
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{live: make(map[uint64]Checkpoint)}
}

// Put implements CheckpointStore.
func (st *MemStore) Put(cp Checkpoint) error {
	st.mu.Lock()
	st.live[cp.JobID] = cp
	st.mu.Unlock()
	return nil
}

// Delete implements CheckpointStore.
func (st *MemStore) Delete(jobID uint64) error {
	st.mu.Lock()
	delete(st.live, jobID)
	st.mu.Unlock()
	return nil
}

// Load implements CheckpointStore.
func (st *MemStore) Load() ([]Checkpoint, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return sortedCheckpoints(st.live), nil
}

// walRecord is one line of the file store's append-only log: a put carrying
// the snapshot, or a delete naming the finished job.
type walRecord struct {
	Op  string      `json:"op"` // "put" | "del"
	Job uint64      `json:"job,omitempty"`
	CP  *Checkpoint `json:"cp,omitempty"`
}

// walName is the WAL file within the checkpoint directory.
const walName = "checkpoints.wal"

// walCompactSlack is how many dead records the WAL may accumulate beyond the
// live set before an in-place compaction (rewrite with only live snapshots).
const walCompactSlack = 1024

// FileStore is a file-backed CheckpointStore: an append-only JSON-lines WAL
// under a directory, replayed on open and compacted when dead records
// accumulate. Writes go through the OS page cache without fsync — they
// survive a process crash (kill -9) but not a host power loss; see the
// README's durability caveats.
type FileStore struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	live    map[uint64]Checkpoint
	records int // records in the WAL file, live and dead
}

// OpenFileStore opens (creating if needed) the WAL under dir, replays it
// into memory and compacts it, so every restart starts from a minimal log.
func OpenFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint store: %w", err)
	}
	st := &FileStore{
		path: filepath.Join(dir, walName),
		live: make(map[uint64]Checkpoint),
	}
	if err := st.replay(); err != nil {
		return nil, err
	}
	if err := st.compactLocked(); err != nil {
		return nil, err
	}
	return st, nil
}

// replay loads the existing WAL into the live map. A torn final line (the
// crash hit mid-write) is ignored; any earlier malformed line fails the open
// — that is corruption, not a crash artifact.
func (st *FileStore) replay() error {
	f, err := os.Open(st.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("checkpoint store: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var pendingErr error
	for sc.Scan() {
		if pendingErr != nil {
			return pendingErr
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// Defer the failure one line: only a non-final malformed line is
			// corruption.
			pendingErr = fmt.Errorf("checkpoint store: corrupt WAL record: %w", err)
			continue
		}
		st.records++
		switch rec.Op {
		case "put":
			if rec.CP != nil {
				st.live[rec.CP.JobID] = *rec.CP
			}
		case "del":
			delete(st.live, rec.Job)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("checkpoint store: %w", err)
	}
	return nil
}

// compactLocked rewrites the WAL with only the live snapshots, atomically
// (write temp, rename over). Callers hold no lock during open; Put/Delete
// call it under st.mu.
func (st *FileStore) compactLocked() error {
	if st.f != nil {
		st.f.Close()
		st.f = nil
	}
	tmp := st.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint store: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, cp := range sortedCheckpoints(st.live) {
		cp := cp
		if err := writeRecord(w, walRecord{Op: "put", CP: &cp}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint store: %w", err)
	}
	if err := os.Rename(tmp, st.path); err != nil {
		return fmt.Errorf("checkpoint store: %w", err)
	}
	st.records = len(st.live)
	st.f, err = os.OpenFile(st.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint store: %w", err)
	}
	return nil
}

func writeRecord(w *bufio.Writer, rec walRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("checkpoint store: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("checkpoint store: %w", err)
	}
	return nil
}

// append writes one record to the WAL and compacts when dead records pile up
// past the slack.
func (st *FileStore) append(rec walRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("checkpoint store: %w", err)
	}
	data = append(data, '\n')
	if _, err := st.f.Write(data); err != nil {
		return fmt.Errorf("checkpoint store: %w", err)
	}
	st.records++
	if st.records > len(st.live)+walCompactSlack {
		return st.compactLocked()
	}
	return nil
}

// Put implements CheckpointStore.
func (st *FileStore) Put(cp Checkpoint) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.append(walRecord{Op: "put", CP: &cp}); err != nil {
		return err
	}
	st.live[cp.JobID] = cp
	return nil
}

// Delete implements CheckpointStore.
func (st *FileStore) Delete(jobID uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.live[jobID]; !ok {
		return nil
	}
	if err := st.append(walRecord{Op: "del", Job: jobID}); err != nil {
		return err
	}
	delete(st.live, jobID)
	return nil
}

// Load implements CheckpointStore.
func (st *FileStore) Load() ([]Checkpoint, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return sortedCheckpoints(st.live), nil
}

// Close flushes and closes the WAL. The store must not be used afterwards.
func (st *FileStore) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	err := st.f.Close()
	st.f = nil
	return err
}

func sortedCheckpoints(live map[uint64]Checkpoint) []Checkpoint {
	out := make([]Checkpoint, 0, len(live))
	for _, cp := range live {
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}
