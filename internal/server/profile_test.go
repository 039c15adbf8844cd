package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"cwc/internal/obs"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
)

// profileAssign reads f's next frame, which must be a profiling execution.
func profileAssign(t *testing.T, f *fakePhone) *protocol.Message {
	t.Helper()
	msg := f.recv()
	if msg.Type != protocol.TypeAssign || msg.JobID != 0 || msg.Partition != -1 {
		t.Fatalf("expected a profiling assign, got %s job %d partition %d", msg.Type, msg.JobID, msg.Partition)
	}
	return msg
}

// serveOne answers f's profiling execution, then its one real assignment.
func serveOne(t *testing.T, f *fakePhone, jobID int) {
	t.Helper()
	replyResult(f, profileAssign(t, f))
	asg := f.recv()
	if asg.Type != protocol.TypeAssign || asg.JobID != jobID {
		t.Fatalf("expected job %d's assign, got %s job %d", jobID, asg.Type, asg.JobID)
	}
	replyResult(f, asg)
}

// checkNoKeylessAttempts fails if the attempt table still holds a profiling
// execution's record: the round sweep would find no range to settle.
func checkNoKeylessAttempts(t *testing.T, m *Master) {
	t.Helper()
	m.do(func() {
		for id, rec := range m.attempts {
			if rec.a.rng == nil {
				t.Errorf("attempt %d (a profiling execution) is still registered", id)
			}
		}
	})
}

// A phone that dies mid-profile hands the profiling execution to the
// next-slowest phone, and the round completes there.
func TestProfilingPhoneDiesMidProfile(t *testing.T) {
	m := startMaster(t, Config{KeepalivePeriod: time.Hour})
	slowest := dialFake(t, m, "HTC G2", 806)
	next := dialFake(t, m, "Nexus S", 1000)
	input := numberLines(1, 300)
	id, err := m.Submit(tasks.PrimeCount{}, input, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	round := make(chan error, 1)
	go func() {
		_, err := m.RunRound(ctx)
		round <- err
	}()

	profileAssign(t, slowest)
	slowest.conn.Close() // unplugged mid-profile
	serveOne(t, next, id)
	if err := <-round; err != nil {
		t.Fatalf("round: %v", err)
	}
	if got, ok := m.Result(id); !ok || string(got) != string(groundTruth(t, tasks.PrimeCount{}, input)) {
		t.Fatalf("job %d = %q (ok %v)", id, got, ok)
	}
	if !m.take(false).est.Profiled("primecount") {
		t.Error("primecount was never profiled")
	}
	checkNoKeylessAttempts(t, m)
}

// A round cancelled while its profiling execution runs takes that
// attempt's record with it: the phone's late report is dropped, and the
// next round on the same phone profiles afresh, commits and ends.
func TestCancelledProfileLeavesNoAttempt(t *testing.T) {
	reg := obs.NewRegistry()
	m := startMaster(t, Config{KeepalivePeriod: time.Hour, Metrics: reg})
	f := dialFake(t, m, "HTC G2", 806)
	input := numberLines(1, 300)
	id, err := m.Submit(tasks.PrimeCount{}, input, true)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	round := make(chan error, 1)
	go func() {
		_, err := m.RunRound(ctx)
		round <- err
	}()
	prof := profileAssign(t, f)
	cancel()
	if err := <-round; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled round: %v, want context.Canceled", err)
	}
	checkNoKeylessAttempts(t, m)
	replyResult(f, prof) // late: its attempt is gone

	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() {
		_, err := m.RunRound(ctx)
		round <- err
	}()
	serveOne(t, f, id)
	if err := <-round; err != nil {
		t.Fatalf("round after the cancelled one: %v", err)
	}
	if got, ok := m.Result(id); !ok || string(got) != string(groundTruth(t, tasks.PrimeCount{}, input)) {
		t.Fatalf("job %d = %q (ok %v)", id, got, ok)
	}
	if v := reg.Counter("cwc_frames_unexpected_total", "type", "result").Value(); v != 1 {
		t.Errorf("cwc_frames_unexpected_total{type=result} = %d, want 1: the cancelled profile's late report", v)
	}
	checkNoKeylessAttempts(t, m)
	for _, p := range m.Phones() {
		if p.ID == f.id && !p.Alive {
			t.Error("the phone died")
		}
	}
}
