package server

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cwc/internal/obs"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
	"cwc/internal/wal"
)

// verifyResponder serves assignments like autoResponder but echoes the
// attempt ID (a tie-break re-execution is resolved by the read loop and
// needs it) and passes every computed result through mutate, so a test
// can make the phone lie. It records which job IDs it was assigned.
type verifyResponder struct {
	f      *fakePhone
	mutate func([]byte) []byte

	mu   sync.Mutex
	jobs map[int]bool
}

func newVerifyResponder(f *fakePhone, mutate func([]byte) []byte) *verifyResponder {
	if mutate == nil {
		mutate = func(b []byte) []byte { return b }
	}
	r := &verifyResponder{f: f, mutate: mutate, jobs: map[int]bool{}}
	go r.run()
	return r
}

func (r *verifyResponder) sawJob(id int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id]
}

func (r *verifyResponder) run() {
	for {
		if err := r.f.conn.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
			return
		}
		msg, err := r.f.conn.Recv()
		if err != nil {
			return
		}
		if msg.Type != protocol.TypeAssign {
			continue
		}
		if msg.Partition >= 0 {
			r.mu.Lock()
			r.jobs[msg.JobID] = true
			r.mu.Unlock()
		}
		task, err := tasks.New(msg.Task, msg.Params)
		if err != nil {
			continue
		}
		var ck tasks.Checkpoint
		if msg.Resume != nil {
			ck = *msg.Resume
		}
		res, err := task.Process(context.Background(), msg.Input, &ck)
		if err != nil {
			continue
		}
		if msg.Partition >= 0 {
			res = r.mutate(res)
		}
		_ = r.f.conn.Send(&protocol.Message{Type: protocol.TypeResult,
			JobID: msg.JobID, Partition: msg.Partition, Attempt: msg.Attempt,
			Result: res, Digest: tasks.Digest(res),
			ExecMs: 1, ProcessedKB: float64(len(msg.Input)) / 1024})
	}
}

// lie shifts every ASCII digit, producing a wrong-but-well-formed
// counting result (mirrors the cluster harness's liar).
func lie(off byte) func([]byte) []byte {
	return func(b []byte) []byte {
		out := append([]byte(nil), b...)
		for i, c := range out {
			if c >= '0' && c <= '9' {
				out[i] = '0' + (c-'0'+off)%10
			}
		}
		return out
	}
}

var primesInput = []byte("2\n3\n4\n5\n6\n7\n8\n9\n10\n11\n")

func groundTruth(t *testing.T, task tasks.Task, input []byte) []byte {
	t.Helper()
	var ck tasks.Checkpoint
	res, err := task.Process(context.Background(), input, &ck)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func waitResult(t *testing.T, m *Master, id int, budget time.Duration) []byte {
	t.Helper()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if res, ok := m.Result(id); ok {
			return res
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %d did not complete within %v", id, budget)
	return nil
}

// Two honest replicas agree: the vote resolves in-round, the job
// completes with the true result, and nobody is penalized.
func TestVotingAgreementFinalizes(t *testing.T) {
	reg := obs.NewRegistry()
	m := startMaster(t, Config{VerifyReplicas: 2, Metrics: reg})
	newVerifyResponder(dialFake(t, m, "A", 1000), nil)
	newVerifyResponder(dialFake(t, m, "B", 1000), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 2); err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(tasks.PrimeCount{}, primesInput, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, m, id, 10*time.Second)
	if want := groundTruth(t, tasks.PrimeCount{}, primesInput); string(res) != string(want) {
		t.Fatalf("result = %q, want %q", res, want)
	}
	if v := reg.Counter("cwc_verify_votes_total").Value(); v != 2 {
		t.Errorf("votes = %d, want 2", v)
	}
	if v := reg.Counter("cwc_verify_mismatches_total", "kind", "vote").Value(); v != 0 {
		t.Errorf("mismatches = %d, want 0", v)
	}
	for id := 0; id < 2; id++ {
		if r := m.Reputation(id); r != 1.0 {
			t.Errorf("phone %d reputation = %v, want 1.0", id, r)
		}
	}
}

// A liar disagreeing with an honest replica forces a tie-break on the
// remaining phone; the honest digest reaches quorum, the liar is
// penalized, and the job still finishes with the true result. The liar
// is the fastest phone, so the scheduler deterministically hands it the
// original execution.
func TestVotingTieBreakDefeatsLiar(t *testing.T) {
	reg := obs.NewRegistry()
	m := startMaster(t, Config{VerifyReplicas: 2, Metrics: reg})
	liar := newVerifyResponder(dialFake(t, m, "liar", 2000), lie(3))
	newVerifyResponder(dialFake(t, m, "honest-1", 1500), nil)
	newVerifyResponder(dialFake(t, m, "honest-2", 800), nil)
	_ = liar
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 3); err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(tasks.PrimeCount{}, primesInput, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	// The round ends with the vote tied and the arbiter in flight; the
	// detached tie-break result completes the job outside any round.
	res := waitResult(t, m, id, 15*time.Second)
	if want := groundTruth(t, tasks.PrimeCount{}, primesInput); string(res) != string(want) {
		t.Fatalf("result = %q, want %q", res, want)
	}
	if v := reg.Counter("cwc_verify_mismatches_total", "kind", "vote").Value(); v != 1 {
		t.Errorf("vote mismatches = %d, want 1", v)
	}
	if r := m.Reputation(0); math.Abs(r-0.6) > 1e-9 { // liar registered first -> ID 0
		t.Errorf("liar reputation = %v, want 0.6", r)
	}
	if m.Quarantined(0) {
		t.Error("a single lost vote must not quarantine")
	}
	for id := 1; id < 3; id++ {
		if r := m.Reputation(id); r != 1.0 {
			t.Errorf("honest phone %d reputation = %v, want 1.0", id, r)
		}
	}
}

// A tie-break whose arbiter reads the assignment but never reports
// expires after twice its assignment deadline: the range is handed back
// exactly once and the arbiter's attempt is marked expired, so the report
// it sends late, a lie, is dropped as late: counted apart from forgeries,
// credited to nothing, and the mark goes with it. The range's next vote
// resolves, and the job aggregates to the true result.
func TestVotingTieBreakExpiresOnce(t *testing.T) {
	const floor = 300 * time.Millisecond
	reg, tracer := obs.NewRegistry(), obs.NewTracer(4096)
	m := startMaster(t, Config{VerifyReplicas: 2, Metrics: reg, Tracer: tracer, DeadlineFloor: floor})
	lied := false
	newVerifyResponder(dialFake(t, m, "liar", 2000), func(b []byte) []byte {
		if lied {
			return b
		}
		lied = true
		return lie(3)(b)
	})
	newVerifyResponder(dialFake(t, m, "honest", 1500), nil)
	// The arbiter answers its profiling run and holds its first partition.
	arbiter := dialFake(t, m, "arbiter", 800)
	held := make(chan *protocol.Message, 1)
	go func() {
		for {
			msg, err := arbiter.conn.Recv()
			if err != nil {
				return
			}
			if msg.Type != protocol.TypeAssign {
				continue
			}
			if msg.Partition >= 0 {
				held <- msg
				return
			}
			var ck tasks.Checkpoint
			res, err := tasks.PrimeCount{}.Process(context.Background(), msg.Input, &ck)
			if err != nil {
				t.Error(err)
				return
			}
			_ = arbiter.conn.Send(&protocol.Message{Type: protocol.TypeResult, JobID: msg.JobID,
				Partition: msg.Partition, Attempt: msg.Attempt, Result: res, Digest: tasks.Digest(res),
				ExecMs: 1, ProcessedKB: float64(len(msg.Input)) / 1024})
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 3); err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(tasks.PrimeCount{}, primesInput, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	var tie *protocol.Message
	select {
	case tie = <-held:
	case <-ctx.Done():
		t.Fatal("the arbiter was never sent the tie-break")
	}
	sent := time.Now()

	requeues := func() (n int, detail string) {
		for _, ev := range tracer.Recent(4096) {
			if ev.Kind == obs.KindRequeue && ev.Job == id {
				n, detail = n+1, ev.Detail
			}
		}
		return n, detail
	}
	for n, _ := requeues(); n == 0; n, _ = requeues() {
		if ctx.Err() != nil {
			t.Fatal("the tie-break never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if waited := time.Since(sent); waited < floor {
		t.Errorf("the tie-break expired %v after it was sent, before one deadline (%v)", waited, floor)
	}
	if n, detail := requeues(); n != 1 || detail != "verification tie-break expired" {
		t.Fatalf("%d requeues, the last %q; want one, as the tie-break expired", n, detail)
	}
	var expired bool
	m.do(func() { expired = m.attempts[tie.Attempt] != nil && m.attempts[tie.Attempt].expired })
	if !expired {
		t.Fatal("the expired tie-break's attempt is not kept marked expired")
	}

	truth := groundTruth(t, tasks.PrimeCount{}, primesInput)
	late := lie(5)(truth)
	if err := arbiter.conn.Send(&protocol.Message{Type: protocol.TypeResult, JobID: tie.JobID,
		Partition: tie.Partition, Attempt: tie.Attempt, Result: late, Digest: tasks.Digest(late),
		ExecMs: 1, ProcessedKB: float64(len(tie.Input)) / 1024}); err != nil {
		t.Fatal(err)
	}
	lateReports := reg.Counter("cwc_verify_tiebreaks_late_total")
	for lateReports.Value() == 0 {
		if ctx.Err() != nil {
			t.Fatal("the late report was not dropped as a late tie-break")
		}
		time.Sleep(10 * time.Millisecond)
	}
	m.do(func() { expired = m.attempts[tie.Attempt] != nil })
	if expired {
		t.Error("the expired attempt outlived its late report")
	}

	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	if res := waitResult(t, m, id, 15*time.Second); !bytes.Equal(res, truth) {
		t.Fatalf("result = %q, want %q", res, truth)
	}
	if n, _ := requeues(); n != 1 {
		t.Errorf("the range was handed back %d times, want once", n)
	}
	if v := lateReports.Value(); v != 1 {
		t.Errorf("cwc_verify_tiebreaks_late_total = %d, want the one late report", v)
	}
	if v := reg.Counter("cwc_frames_unexpected_total", "type", "result").Value(); v != 0 {
		t.Errorf("cwc_frames_unexpected_total{type=result} = %d, want 0: a late tie-break is no forgery", v)
	}
	if r := m.Reputation(arbiter.id); r != 1.0 {
		t.Errorf("arbiter reputation = %v after a report the master dropped, want 1.0", r)
	}
}

// A phone that let a tie expire is not picked to arbitrate another until
// its late report arrives, so the master keeps at most one expired attempt
// per phone however many ties a silent arbiter would otherwise be given.
func TestArbiterOwingAnExpiredTieIsNotPicked(t *testing.T) {
	m := New(Config{})
	silent, other := &phoneState{info: PhoneInfo{ID: 1}}, &phoneState{info: PhoneInfo{ID: 2}}
	m.phones[1], m.phones[2] = silent, other
	vg := &voteGroup{ballots: map[int]tasks.Sum{}}
	m.do(func() {
		if got := m.pickArbiterLocked(vg); got != silent {
			t.Fatalf("picked %+v, want phone 1: the lowest ID at equal reputation", got)
		}
		m.attempts[7] = &attemptRec{ps: silent, expired: true}
		if got := m.pickArbiterLocked(vg); got != other {
			t.Errorf("picked %+v, want phone 2: phone 1 still owes a tie it let expire", got)
		}
	})
}

// Repeated lost votes sink the liar's reputation below the threshold:
// it is quarantined — still connected, never placed again.
func TestQuarantineExcludesLiarFromPlacement(t *testing.T) {
	reg := obs.NewRegistry()
	m := startMaster(t, Config{VerifyReplicas: 2, Metrics: reg})
	liar := newVerifyResponder(dialFake(t, m, "liar", 2000), lie(3))
	newVerifyResponder(dialFake(t, m, "honest-1", 1500), nil)
	newVerifyResponder(dialFake(t, m, "honest-2", 800), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 3); err != nil {
		t.Fatal(err)
	}
	want := groundTruth(t, tasks.PrimeCount{}, primesInput)
	// Three jobs, three lost votes: 1.0 -> 0.6 -> 0.36 -> 0.216 < 0.3.
	for i := 0; i < 3; i++ {
		id, err := m.Submit(tasks.PrimeCount{}, primesInput, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunRound(ctx); err != nil {
			t.Fatal(err)
		}
		if res := waitResult(t, m, id, 15*time.Second); string(res) != string(want) {
			t.Fatalf("job %d result = %q, want %q", id, res, want)
		}
	}
	if !m.Quarantined(0) {
		t.Fatalf("liar not quarantined (reputation %v)", m.Reputation(0))
	}
	if got := m.QuarantinedPhones(); len(got) != 1 || got[0] != 0 {
		t.Errorf("QuarantinedPhones = %v, want [0]", got)
	}
	if v := reg.Counter("cwc_verify_quarantines_total").Value(); v != 1 {
		t.Errorf("quarantines = %d, want 1", v)
	}
	// The next job must be placed (and verified) without the liar.
	id, err := m.Submit(tasks.PrimeCount{}, primesInput, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	if res := waitResult(t, m, id, 15*time.Second); string(res) != string(want) {
		t.Fatalf("post-quarantine result = %q, want %q", res, want)
	}
	if liar.sawJob(id) {
		t.Error("quarantined phone was assigned work")
	}
}

// With voting off, a full-rate audit re-executes every partition on a
// second phone; matching echoes leave reputations untouched.
func TestAuditHonestFleet(t *testing.T) {
	reg := obs.NewRegistry()
	m := startMaster(t, Config{AuditRate: 1, Metrics: reg})
	newVerifyResponder(dialFake(t, m, "A", 1000), nil)
	newVerifyResponder(dialFake(t, m, "B", 1000), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 2); err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(tasks.PrimeCount{}, primesInput, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, m, id, 10*time.Second)
	if want := groundTruth(t, tasks.PrimeCount{}, primesInput); string(res) != string(want) {
		t.Fatalf("result = %q, want %q", res, want)
	}
	if v := reg.Counter("cwc_verify_audits_total").Value(); v != 1 {
		t.Errorf("audits = %d, want 1", v)
	}
	if v := reg.Counter("cwc_verify_mismatches_total", "kind", "audit").Value(); v != 0 {
		t.Errorf("audit mismatches = %d, want 0", v)
	}
	if m.Reputation(0) != 1.0 || m.Reputation(1) != 1.0 {
		t.Error("honest audit must not move reputation")
	}
}

// An audit echo that disagrees with the already-folded result escalates
// to a tie-break for blame: the liar is penalized even though its folded
// result stands (audits protect the fleet, not the sampled job).
func TestAuditMismatchPenalizesLiar(t *testing.T) {
	reg := obs.NewRegistry()
	m := startMaster(t, Config{AuditRate: 1, Metrics: reg})
	newVerifyResponder(dialFake(t, m, "liar", 2000), lie(3))
	newVerifyResponder(dialFake(t, m, "honest-1", 1500), nil)
	newVerifyResponder(dialFake(t, m, "honest-2", 800), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 3); err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(tasks.PrimeCount{}, primesInput, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	_ = waitResult(t, m, id, 15*time.Second)
	deadline := time.Now().Add(15 * time.Second)
	for m.Reputation(0) == 1.0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if r := m.Reputation(0); math.Abs(r-0.6) > 1e-9 {
		t.Errorf("liar reputation = %v, want 0.6", r)
	}
	if v := reg.Counter("cwc_verify_audits_total").Value(); v != 1 {
		t.Errorf("audits = %d, want 1", v)
	}
	if v := reg.Counter("cwc_verify_mismatches_total", "kind", "audit").Value(); v != 1 {
		t.Errorf("audit mismatches = %d, want 1", v)
	}
}

// A frame whose claimed digest does not match its payload is detectable
// without any replica: it is discarded and the range re-executes. A
// frame with no digest at all is the same case — stripping the digest
// must not buy a damaged payload a pass.
func TestClaimedDigestMismatchRequeues(t *testing.T) {
	t.Run("stale digest", func(t *testing.T) { testDigestMismatchRequeues(t, false) })
	t.Run("stripped digest", func(t *testing.T) { testDigestMismatchRequeues(t, true) })
}

func testDigestMismatchRequeues(t *testing.T, strip bool) {
	reg := obs.NewRegistry()
	m := startMaster(t, Config{Metrics: reg})
	f := dialFake(t, m, "flaky", 1000)
	// A responder that corrupts the payload AFTER computing the digest
	// (or sends the honest payload with no digest): detectable from the
	// single frame.
	corrupted := false
	go func() {
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
			task, err := tasks.New(msg.Task, msg.Params)
			if err != nil {
				continue
			}
			var ck tasks.Checkpoint
			res, err := task.Process(context.Background(), msg.Input, &ck)
			if err != nil {
				continue
			}
			digest := tasks.Digest(res)
			if msg.Partition >= 0 && !corrupted {
				corrupted = true
				if strip {
					digest = tasks.Sum{}
				} else {
					mangled := append([]byte(nil), res...)
					mangled[0] ^= 0xff
					res = mangled // digest now stale: claimed != computed
				}
			}
			_ = f.conn.Send(&protocol.Message{Type: protocol.TypeResult,
				JobID: msg.JobID, Partition: msg.Partition, Attempt: msg.Attempt,
				Result: res, Digest: digest,
				ExecMs: 1, ProcessedKB: float64(len(msg.Input)) / 1024})
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 1); err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(tasks.PrimeCount{}, primesInput, true)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 receives the corrupt frame and re-queues; round 2 gets the
	// honest retry.
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Result(id); ok {
		t.Fatal("corrupt frame must not fold")
	}
	if v := reg.Counter("cwc_verify_mismatches_total", "kind", "digest").Value(); v != 1 {
		t.Errorf("digest mismatches = %d, want 1", v)
	}
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, m, id, 10*time.Second)
	if want := groundTruth(t, tasks.PrimeCount{}, primesInput); string(res) != string(want) {
		t.Fatalf("result = %q, want %q", res, want)
	}
}

// Reputation and quarantine state is WAL record 13: it must survive both
// raw-log replay and a compaction snapshot.
func TestReputationSurvivesWALRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	m := startMaster(t, Config{WAL: wl})
	// Four losses: 0.6, 0.36, 0.216 (quarantined), 0.1296.
	m.do(func() {
		for i := 0; i < 4; i++ {
			m.reputationEventLocked(7, false, "test")
		}
		m.reputationEventLocked(3, true, "test") // 1.0 -> 1.0: state unchanged
	})
	wantRep := m.Reputation(7)
	m.Close()
	wl.Close()

	wl2 := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	m2 := startMaster(t, Config{WAL: wl2})
	if err := m2.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if r := m2.Reputation(7); math.Abs(r-wantRep) > 1e-9 {
		t.Errorf("recovered reputation = %v, want %v", r, wantRep)
	}
	if !m2.Quarantined(7) {
		t.Error("quarantine lost across recovery")
	}
	if r := m2.Reputation(3); r != 1.0 {
		t.Errorf("phone 3 reputation = %v, want untouched 1.0", r)
	}
	// Compact (snapshot path) and recover a third master from it.
	if err := m2.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	m2.Close()
	wl2.Close()

	wl3 := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	m3 := startMaster(t, Config{WAL: wl3})
	if err := m3.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if r := m3.Reputation(7); math.Abs(r-wantRep) > 1e-9 {
		t.Errorf("snapshot reputation = %v, want %v", r, wantRep)
	}
	if !m3.Quarantined(7) {
		t.Error("quarantine lost across compaction")
	}
}

// badAggTask is breakable but its aggregation always fails — the
// regression trigger for the terminal-aggregation-failure path.
type badAggTask struct{}

func (badAggTask) Name() string    { return "badagg" }
func (badAggTask) Params() []byte  { return nil }
func (badAggTask) ExecKB() float64 { return 1 }
func (badAggTask) Process(_ context.Context, input []byte, ck *tasks.Checkpoint) ([]byte, error) {
	ck.Offset = int64(len(input))
	return []byte("x"), nil
}
func (badAggTask) Split(input []byte, sizesKB []float64) ([][]byte, error) {
	// Byte-exact proportional split (no record boundaries to honour).
	var total float64
	for _, s := range sizesKB {
		total += s
	}
	out := make([][]byte, len(sizesKB))
	off := 0
	for i, s := range sizesKB {
		n := int(float64(len(input)) * s / total)
		if i == len(sizesKB)-1 || off+n > len(input) {
			n = len(input) - off
		}
		out[i] = input[off : off+n]
		off += n
	}
	return out, nil
}
func (badAggTask) Aggregate([][]byte) ([]byte, error) {
	return nil, errors.New("badagg: aggregation always fails")
}

func init() { tasks.Register("badagg", func([]byte) (tasks.Task, error) { return badAggTask{}, nil }) }

// Satellite regression: an aggregation error is terminal — it surfaces
// to the submitter as a job failure instead of wedging the job in a
// silent re-aggregate-every-round loop, and the WAL replays to the same
// terminal state on a recovered master, and again from the snapshot that
// recovery compacted, where the job record carries the failure.
func TestAggregateFailureIsTerminalAndSurvivesRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	reg := obs.NewRegistry()
	m := startMaster(t, Config{WAL: wl, Metrics: reg})
	newVerifyResponder(dialFake(t, m, "A", 1000), nil)
	newVerifyResponder(dialFake(t, m, "B", 1000), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 2); err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 64*1024)
	id, err := m.Submit(badAggTask{}, input, false)
	if err != nil {
		t.Fatal(err)
	}
	// Drive rounds until the job reaches a terminal state; a wedged
	// master re-aggregates forever and the deadline catches it.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, failed := m.JobFailure(id); failed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("aggregate failure never surfaced")
		}
		if _, err := m.RunRound(ctx); err != nil && !errors.Is(err, ErrNothingToDo) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok := m.Result(id); ok {
		t.Error("failed job must not yield a result")
	}
	if msg, _ := m.JobFailure(id); msg == "" {
		t.Error("empty failure message")
	}
	if v := reg.Counter("cwc_jobs_failed_total").Value(); v != 1 {
		t.Errorf("jobs failed = %d, want 1", v)
	}
	m.Close()
	wl.Close()

	// The recovered master must land in the same terminal state — not
	// re-queue the work, not wedge, not report success.
	wl2 := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	m2 := startMaster(t, Config{WAL: wl2})
	if err := m2.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.Result(id); ok {
		t.Error("recovered master resurrected a failed job's result")
	}
	if msg, failed := m2.JobFailure(id); !failed || msg == "" {
		t.Errorf("recovered failure = %q, %v; want the terminal error", msg, failed)
	}
	if m2.PendingItems() != 0 {
		t.Errorf("recovered master re-queued %d items of a terminally failed job", m2.PendingItems())
	}
	m2.Close()
	wl2.Close()

	// Recovery compacted the log: the snapshot holds the job with its
	// failure and no partial, and a master recovered from it lands in the
	// same terminal state again.
	wl3 := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	var cutFailure string
	for _, r := range wl3.Recovered() {
		rec, err := decodeWAL(r)
		if err != nil {
			t.Fatal(err)
		}
		switch p := rec.(type) {
		case *walCutJob:
			if p.ID == id {
				cutFailure = p.Failure
			}
		case *walReport:
			if p.JobID == id {
				t.Errorf("the compacted log holds a partial of the failed job: %q", p.Partial.Bytes)
			}
		}
	}
	if cutFailure == "" {
		t.Error("the compacted log's job record carries no failure")
	}
	m3 := startMaster(t, Config{WAL: wl3})
	if err := m3.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m3.Result(id); ok {
		t.Error("twice-recovered master resurrected a failed job's result")
	}
	if msg, failed := m3.JobFailure(id); !failed || msg != cutFailure {
		t.Errorf("twice-recovered failure = %q, %v; want %q", msg, failed, cutFailure)
	}
	if m3.PendingItems() != 0 {
		t.Errorf("twice-recovered master re-queued %d items of a terminally failed job", m3.PendingItems())
	}
}
