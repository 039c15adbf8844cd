package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"cwc/internal/tasks"
	"cwc/internal/wal"
)

// State snapshot/restore: the paper's server records migrated task state
// so a failure never loses work; a production deployment also wants the
// *server's* own queue to survive a restart. SaveState captures every
// submission (pending work items, partial results, finished results) as
// JSON; LoadState rehydrates a fresh master from it, re-instantiating
// task executables through the registry.

type stateJSON struct {
	NextJobID int            `json:"next_job_id"`
	Jobs      []jobJSONState `json:"jobs"`
	Pending   []workItemJSON `json:"pending"`
}

type jobJSONState struct {
	ID         int      `json:"id"`
	Task       string   `json:"task"`
	Params     []byte   `json:"params,omitempty"`
	TotalBytes int64    `json:"total_bytes"`
	Covered    int64    `json:"covered"`
	Partials   [][]byte `json:"partials,omitempty"`
	Final      []byte   `json:"final,omitempty"`
	Done       bool     `json:"done"`
}

type workItemJSON struct {
	JobID  int               `json:"job_id"`
	Task   string            `json:"task"`
	Params []byte            `json:"params,omitempty"`
	Input  []byte            `json:"input"`
	Resume *tasks.Checkpoint `json:"resume,omitempty"`
	Atomic bool              `json:"atomic,omitempty"`
}

// SaveState serializes the master's job state. A mid-round snapshot is
// safe: partitions that are in flight (dispatched, report not yet
// recorded) are captured as pending items with their checkpoints, so a
// restored master re-queues them at its first scheduling instant. Keys
// are not persisted — a restored master cannot receive the old attempts'
// reports, so duplicate-suppression state would be dead weight.
func (m *Master) SaveState(w io.Writer) error {
	m.mu.Lock()
	st := stateJSON{NextJobID: m.nextJobID}
	for _, js := range m.jobs {
		st.Jobs = append(st.Jobs, jobJSONState{
			ID:         js.id,
			Task:       js.task.Name(),
			Params:     js.task.Params(),
			TotalBytes: js.totalBytes,
			Covered:    js.covered,
			Partials:   js.partials,
			Final:      js.final,
			Done:       js.done,
		})
	}
	seen := map[int64]bool{}
	for _, it := range m.pending {
		if it.key != 0 {
			if m.completed[it.key] || seen[it.key] {
				continue
			}
			seen[it.key] = true
		}
		st.Pending = append(st.Pending, workItemJSON{
			JobID:  it.jobID,
			Task:   it.task.Name(),
			Params: it.task.Params(),
			Input:  it.input,
			Resume: m.latestResumeLocked(it.key, it.resume),
			Atomic: it.atomic,
		})
	}
	for _, rec := range m.attempts {
		a := rec.a
		if a.key != 0 {
			if m.completed[a.key] || seen[a.key] {
				continue
			}
			seen[a.key] = true
		}
		st.Pending = append(st.Pending, workItemJSON{
			JobID:  a.item.jobID,
			Task:   a.item.task.Name(),
			Params: a.item.task.Params(),
			Input:  a.input,
			Resume: m.latestResumeLocked(a.key, a.resume),
			Atomic: true,
		})
	}
	m.mu.Unlock()

	enc := json.NewEncoder(w)
	if err := enc.Encode(st); err != nil {
		return fmt.Errorf("server: saving state: %w", err)
	}
	return nil
}

// ErrStateNotEmpty is returned when LoadState is called on a master that
// already has jobs or pending work.
var ErrStateNotEmpty = errors.New("server: master already has state")

// LoadState rehydrates a fresh master from a snapshot.
func (m *Master) LoadState(r io.Reader) error {
	var st stateJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&st); err != nil {
		return fmt.Errorf("server: loading state: %w", err)
	}
	// Rebuild outside the lock, then install atomically.
	jobs := map[int]*jobState{}
	for _, j := range st.Jobs {
		task, err := tasks.New(j.Task, j.Params)
		if err != nil {
			return fmt.Errorf("server: restoring job %d: %w", j.ID, err)
		}
		jobs[j.ID] = &jobState{
			id:         j.ID,
			task:       task,
			totalBytes: j.TotalBytes,
			covered:    j.Covered,
			partials:   j.Partials,
			final:      j.Final,
			done:       j.Done,
		}
	}
	var pending []*workItem
	for _, it := range st.Pending {
		task, err := tasks.New(it.Task, it.Params)
		if err != nil {
			return fmt.Errorf("server: restoring pending item for job %d: %w", it.JobID, err)
		}
		if _, ok := jobs[it.JobID]; !ok {
			return fmt.Errorf("server: pending item references unknown job %d", it.JobID)
		}
		pending = append(pending, &workItem{
			jobID:  it.JobID,
			task:   task,
			input:  it.Input,
			resume: it.Resume,
			atomic: it.Atomic,
		})
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.jobs) != 0 || len(m.pending) != 0 {
		return ErrStateNotEmpty
	}
	m.jobs = jobs
	for _, it := range pending {
		it.seq = m.nextSeqLocked()
	}
	m.pending = pending
	if st.NextJobID > m.nextJobID {
		m.nextJobID = st.NextJobID
	}
	// With a WAL attached, the restored state must become the WAL's
	// snapshot before any record referencing it is appended: the replay
	// reducer only ever sees snapshot + log, so jobs restored from the
	// file alone would make later round/report/finish records fail replay
	// (the upgrade path of an existing -state deployment adding
	// -wal-dir). Compact inline — m.mu is held, so no append can slip in
	// between install and fold.
	if m.cfg.WAL != nil {
		m.walStale = true
		if err := m.walCompactLocked(); err != nil {
			return fmt.Errorf("server: restored state: %w", err)
		}
	}
	return nil
}

// SaveStateFile writes a snapshot atomically: the JSON is staged in a
// temp file in the same directory, fsynced, renamed over path, and the
// directory is fsynced — a crash mid-save can never tear the snapshot
// or destroy the previous one (os.Create over the live file could do
// both).
func (m *Master) SaveStateFile(path string) error {
	return wal.WriteFileAtomic(path, func(w io.Writer) error { return m.SaveState(w) })
}
