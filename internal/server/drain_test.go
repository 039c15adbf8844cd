package server

import (
	"context"
	"testing"
	"time"

	"cwc/internal/protocol"
	"cwc/internal/tasks"
	"cwc/internal/wal"
)

// A replayed failure report for an attempt that was already folded (the
// phone replugged before its failure finished processing and flushed the
// same report over the new connection) must not re-queue — or, on the
// partial-result path, double-credit — the same attempt.
func TestRecordFailureDedupesReplayedAttempt(t *testing.T) {
	m := New(Config{})
	a := openTestRange(t, m, tasks.PrimeCount{}, []byte("2\n3\n4\n5\n"), false, 0)
	js := m.jobs[a.item.jobID]
	msg := protocolFailure(4, `{"count":2}`)
	m.do(func() {
		m.recordFailureLocked(a, &msg)
		m.recordFailureLocked(a, &msg) // replay over the phone's new connection
	})
	if js.Covered != 4 {
		t.Errorf("covered = %d, want 4 (replay must not double-credit)", js.Covered)
	}
	if got := string(js.Result.Bytes); got != "2" {
		t.Errorf("result = %q, want 2 (replay must not double-credit)", got)
	}
	if len(m.pending) != 1 {
		t.Fatalf("pending = %d, want 1 (replay must not double-requeue)", len(m.pending))
	}

	// A whole migration dedupes the same way: the replay finds the copy
	// the first report queued.
	m2 := New(Config{})
	b := openTestRange(t, m2, tasks.Blur{}, []byte("1 1\n1 2 3\n"), true, 0)
	bmsg := protocolFailure(3, `{"row":0,"out":[]}`)
	m2.do(func() {
		m2.recordFailureLocked(b, &bmsg)
		m2.recordFailureLocked(b, &bmsg)
	})
	if len(m2.pending) != 1 || m2.pending[0].retries != 1 {
		t.Fatalf("migrated range: pending = %d, want one copy with one retry spent", len(m2.pending))
	}
}

// A proactive drain mid-assignment: the worker hands the partition back
// as a "drained" failure with its checkpoint, the master re-queues it,
// and — unlike a real unplug — the phone stays alive and connected so
// the eventual real unplug is still observed for window learning.
func TestProactiveDrainHandsBackWithoutKillingPhone(t *testing.T) {
	m := startMaster(t, Config{DeadlineFloor: time.Minute})
	f := dialFake(t, m, "HTC G2", 806)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(tasks.PrimeCount{}, []byte("2\n3\n4\n5\n"), false); err != nil {
		t.Fatal(err)
	}
	roundDone := make(chan error, 1)
	go func() {
		_, err := m.RunRound(ctx)
		roundDone <- err
	}()

	// Serve the profiling execution, then hold the real assignment.
	var attempt int64
	for attempt == 0 {
		msg := f.recv()
		if msg.Type != protocol.TypeAssign {
			continue
		}
		if msg.Partition == -1 {
			res, err := (tasks.PrimeCount{}).Process(context.Background(), msg.Input, &tasks.Checkpoint{})
			if err != nil {
				t.Errorf("profiling execution: %v", err)
				return
			}
			f.send(&protocol.Message{Type: protocol.TypeResult, Attempt: msg.Attempt, Result: res, Digest: tasks.Digest(res),
				ExecMs: 1, ProcessedKB: float64(len(msg.Input)) / 1024})
			continue
		}
		attempt = msg.Attempt
	}

	// Drain the phone while its assignment is in flight.
	m.do(func() { m.startDrainLocked(m.phones[0], 0) })
	if msg := f.recv(); msg.Type != protocol.TypeDrain {
		t.Fatalf("expected drain frame, got %s", msg.Type)
	}
	f.send(&protocol.Message{Type: protocol.TypeFailure, Attempt: attempt,
		Checkpoint: &tasks.Checkpoint{Offset: 4, State: []byte(`{"count":2}`)},
		Error:      "drained"})

	if err := <-roundDone; err != nil {
		t.Fatal(err)
	}
	phones := m.Phones()
	if len(phones) != 1 || !phones[0].Alive {
		t.Error("drained phone must stay alive and connected")
	}
	if st := m.DrainState(0); st != drainCompleted {
		t.Errorf("drain state = %q, want %q", st, drainCompleted)
	}
	if m.PendingItems() == 0 {
		t.Error("drained partition's remainder was not re-queued")
	}
}

// The drain ledger rides the WAL: a master that crashes mid-drain
// recovers knowing which phones were draining, and recovered phone IDs
// stay monotone so a ledger entry can never attach to a new phone.
func TestWALDrainLedgerRecovery(t *testing.T) {
	dir := t.TempDir()
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	a := startMaster(t, Config{WAL: wl})
	dialFake(t, a, "HTC G2", 806)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.WaitForPhones(ctx, 1); err != nil {
		t.Fatal(err)
	}
	a.do(func() { a.startDrainLocked(a.phones[0], 1000) })
	if st := a.DrainState(0); st != drainStarted {
		t.Fatalf("drain state = %q, want %q", st, drainStarted)
	}
	a.Close()
	wl.Close()

	wl2 := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	b := startMaster(t, Config{WAL: wl2})
	if err := b.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if st := b.DrainState(0); st != drainStarted {
		t.Fatalf("recovered drain state = %q, want %q", st, drainStarted)
	}
	// A fresh registration on the recovered master must not recycle the
	// drained phone's ID.
	dialFake(t, b, "Nexus S", 1000)
	if err := b.WaitForPhones(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if id := b.Phones()[0].ID; id < 1 {
		t.Errorf("recovered master recycled phone ID %d into the drain ledger", id)
	}
	// Complete and clear the drain; both transitions replay too.
	b.do(func() { b.completeDrainLocked(0) })
	b.clearDrain(0)
	b.Close()
	wl2.Close()

	wl3 := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	c := startMaster(t, Config{WAL: wl3})
	if err := c.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if st := c.DrainState(0); st != "" {
		t.Errorf("cleared drain survived recovery as %q", st)
	}
}
