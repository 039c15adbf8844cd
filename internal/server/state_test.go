package server

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"cwc/internal/protocol"
	"cwc/internal/tasks"
)

// autoResponder serves every assignment on a fake phone with plausible
// results for the counting tasks.
func autoResponder(f *fakePhone) {
	for {
		if err := f.conn.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
			return
		}
		msg, err := f.conn.Recv()
		if err != nil {
			return
		}
		if msg.Type != protocol.TypeAssign {
			continue
		}
		var ck tasks.Checkpoint
		if msg.Resume != nil {
			ck = *msg.Resume
		}
		task, err := tasks.New(msg.Task, msg.Params)
		if err != nil {
			continue
		}
		res, err := task.Process(context.Background(), msg.Input, &ck)
		if err != nil {
			continue
		}
		_ = f.conn.Send(&protocol.Message{Type: protocol.TypeResult,
			JobID: msg.JobID, Partition: msg.Partition,
			Result: res, Digest: tasks.Digest(res), ExecMs: 1, ProcessedKB: float64(len(msg.Input)) / 1024})
	}
}

func TestStateSaveRestoreAcrossMasters(t *testing.T) {
	// Master A: complete one job, leave a second pending.
	a := startMaster(t, Config{})
	fa := dialFake(t, a, "HTC G2", 806)
	go autoResponder(fa)

	id1, err := a.Submit(tasks.PrimeCount{}, []byte("2\n3\n4\n5\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := a.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	want1, ok := a.Result(id1)
	if !ok {
		t.Fatal("job 1 did not complete on master A")
	}
	id2, err := a.Submit(tasks.WordCount{Word: "sale"}, []byte("sale sale no\n"), false)
	if err != nil {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	if err := a.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	a.Close()

	// Master B: restore and finish the pending job.
	b := startMaster(t, Config{})
	if err := b.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	got1, ok := b.Result(id1)
	if !ok || string(got1) != string(want1) {
		t.Fatalf("restored result = %q %v, want %q", got1, ok, want1)
	}
	if b.PendingItems() != 1 {
		t.Fatalf("restored pending = %d, want 1", b.PendingItems())
	}
	fb := dialFake(t, b, "Nexus S", 1000)
	go autoResponder(fb)
	if _, err := b.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	got2, ok := b.Result(id2)
	if !ok || string(got2) != "2" {
		t.Fatalf("restored job result = %q %v, want 2", got2, ok)
	}

	// Job IDs continue past the snapshot's high-water mark.
	id3, err := b.Submit(tasks.MaxInt{}, []byte("1\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if id3 <= id2 {
		t.Errorf("new job ID %d not above restored %d", id3, id2)
	}
}

func TestLoadStateRejectsNonEmptyMaster(t *testing.T) {
	m := startMaster(t, Config{})
	if _, err := m.Submit(tasks.PrimeCount{}, []byte("2\n"), false); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := m.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadState(bytes.NewReader(snap.Bytes())); err != ErrStateNotEmpty {
		t.Errorf("err = %v, want ErrStateNotEmpty", err)
	}
}

func TestLoadStateErrors(t *testing.T) {
	m := startMaster(t, Config{})
	if err := m.LoadState(strings.NewReader("{bad")); err == nil {
		t.Error("garbage state should error")
	}
	if err := m.LoadState(strings.NewReader(
		`{"jobs":[{"id":1,"task":"no-such-task"}],"pending":[]}`)); err == nil {
		t.Error("unknown task should error")
	}
	if err := m.LoadState(strings.NewReader(
		`{"jobs":[],"pending":[{"job_id":9,"task":"primecount","input":"AA=="}]}`)); err == nil {
		t.Error("orphan pending item should error")
	}
}

func TestSaveStatePreservesMigrationCheckpoints(t *testing.T) {
	m := startMaster(t, Config{})
	m.mu.Lock()
	m.jobs[1] = &jobState{id: 1, task: tasks.Blur{}, totalBytes: 100}
	m.pending = append(m.pending, &workItem{
		jobID:  1,
		task:   tasks.Blur{},
		input:  []byte("1 1\n1 2 3\n"),
		resume: &tasks.Checkpoint{Offset: 4, State: []byte(`{"row":0,"out":[]}`)},
		atomic: true,
	})
	m.nextJobID = 2
	m.mu.Unlock()

	var snap bytes.Buffer
	if err := m.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	b := startMaster(t, Config{})
	if err := b.LoadState(&snap); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pending) != 1 {
		t.Fatalf("pending = %d", len(b.pending))
	}
	it := b.pending[0]
	if it.resume == nil || it.resume.Offset != 4 || !it.atomic {
		t.Errorf("restored item = %+v", it)
	}
	if string(it.resume.State) != `{"row":0,"out":[]}` {
		t.Errorf("restored checkpoint state = %s", it.resume.State)
	}
}
