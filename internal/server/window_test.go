package server

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"cwc/internal/obs"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
)

// windowJobs is how many jobs a window test queues on its one phone: two
// to fill the dispatch window and two behind them.
const windowJobs = 4

// windowHarness is one master, one scripted phone and windowJobs keyed
// jobs that each carry resume state, a partition number and a retry
// count, so a hand-back that loses or rewrites any of them shows.
type windowHarness struct {
	t      *testing.T
	m      *Master
	f      *fakePhone
	reg    *obs.Registry
	cancel context.CancelFunc // cancels the first round's context
	// roundOver is closed when the first round has returned; a script whose
	// phone stays in the pool waits on it before serving later rounds.
	roundOver chan struct{}
	// speculated is the job whose range was queued by speculation, which
	// (unlike a hand-back) spends no retry; 0: none.
	speculated int

	ids    []int
	want   map[int][]byte            // job -> lockstep reference aggregate
	resume map[int]*tasks.Checkpoint // job -> resume state it was queued with
}

const (
	windowPartition = 10 // + job ID: the partition number each item carries
	windowRetries   = 1
)

func newWindowHarness(t *testing.T, cfg Config) *windowHarness {
	t.Helper()
	h := &windowHarness{t: t, reg: obs.NewRegistry(), roundOver: make(chan struct{}),
		want: map[int][]byte{}, resume: map[int]*tasks.Checkpoint{}}
	cfg.Metrics = h.reg
	h.m = startMaster(t, cfg)
	h.f = dialFake(t, h.m, "HTC G2", 806)
	for j := 0; j < windowJobs; j++ {
		input := numberLines(1000*j+1, 1000*j+400)
		a := openTestRange(t, h.m, tasks.PrimeCount{}, input, true, 0)
		id := a.item.jobID
		h.ids = append(h.ids, id)
		h.want[id] = groundTruth(t, tasks.PrimeCount{}, input)
		h.resume[id] = checkpointAt(&protocol.Message{Task: "primecount", Input: input})
		// Turn the range into a re-queued one mid-way through its input, as
		// a failed earlier round would have left it.
		h.m.do(func() {
			h.m.walAppend(&walMigrate{JobID: id, Key: a.key, Resume: h.resume[id].Clone(),
				Retries: windowRetries, Partition: windowPartition + id})
			a.rng.queued = true
			h.m.pending = append(h.m.pending, itemOf(h.m.jobs[a.item.jobID], a.rng))
		})
	}
	return h
}

// nextAssign blocks for the phone's next real assignment, serving
// profiling executions and skipping every other frame. It returns nil
// once the connection is gone.
func (h *windowHarness) nextAssign() *protocol.Message {
	for {
		if err := h.f.conn.SetReadDeadline(time.Now().Add(20 * time.Second)); err != nil {
			return nil
		}
		msg, err := h.f.conn.Recv()
		if err != nil {
			return nil
		}
		if msg.Type != protocol.TypeAssign {
			continue
		}
		if msg.JobID == 0 {
			_ = h.f.conn.Send(&protocol.Message{Type: protocol.TypeResult, Attempt: msg.Attempt,
				Result: []byte("0"), Digest: tasks.Digest([]byte("0")), ExecMs: 1, ProcessedKB: 1})
			continue
		}
		return msg
	}
}

// serveRest answers every assignment of the later rounds honestly.
func (h *windowHarness) serveRest() {
	<-h.roundOver
	for msg := h.nextAssign(); msg != nil; msg = h.nextAssign() {
		replyResult(h.f, msg)
	}
}

func (h *windowHarness) fail(msg *protocol.Message, why string) {
	_ = h.f.conn.Send(&protocol.Message{Type: protocol.TypeFailure,
		JobID: msg.JobID, Partition: msg.Partition, Attempt: msg.Attempt, Error: why})
}

// firstRound runs one round against script, which is handed the two
// assignments the window put on the phone.
func (h *windowHarness) firstRound(script func(running, prefetched *protocol.Message)) (*RoundReport, [2]*protocol.Message) {
	h.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	h.cancel = cancel
	defer cancel()
	held := make(chan [2]*protocol.Message, 1)
	go func() {
		a, b := h.nextAssign(), h.nextAssign()
		held <- [2]*protocol.Message{a, b}
		if a != nil && b != nil {
			script(a, b)
		}
	}()
	rep, err := h.m.RunRound(ctx)
	close(h.roundOver)
	if err != nil {
		h.t.Fatalf("first round: %v", err)
	}
	pair := <-held
	if pair[0] == nil || pair[1] == nil {
		h.t.Fatal("the phone never held two assignments at once")
	}
	return rep, pair
}

// checkSettled asserts what every exit path owes: the loop's windows hold
// no attempt and no round's work, no key is queued twice, and
// every job not yet finished is queued exactly as it was handed out —
// same resume state, same partition number, one retry spent.
func (h *windowHarness) checkSettled(open ...int) {
	h.t.Helper()
	type held struct {
		phone int
		win   []flight
		feeds bool // its window feeds a round
	}
	var wins []held
	var pending []*workItem
	h.m.do(func() {
		for _, ps := range h.m.phones {
			if ps.alive() {
				wins = append(wins, held{ps.info.ID, slices.Clone(ps.win), ps.rnd != nil})
			}
		}
		pending = slices.Clone(h.m.pending)
	})
	for _, w := range wins {
		for _, f := range w.win {
			h.t.Errorf("attempt %d (job %d) still live on phone %d after the round returned", f.attempt, f.a.item.jobID, w.phone)
		}
		if w.feeds {
			h.t.Errorf("phone %d's window still feeds a round that returned", w.phone)
		}
	}
	queued := map[int]*workItem{}
	keys := map[int64]bool{}
	for _, it := range pending {
		if keys[it.key] {
			h.t.Errorf("key %d queued twice", it.key)
		}
		keys[it.key] = true
		queued[it.jobID] = it
	}
	if len(pending) != len(open) {
		h.t.Errorf("%d items pending, want %d (%v)", len(pending), len(open), open)
	}
	for _, id := range open {
		it := queued[id]
		if it == nil {
			h.t.Errorf("job %d was not handed back", id)
			continue
		}
		want := h.resume[id]
		if it.resume == nil || it.resume.Offset != want.Offset || !bytes.Equal(it.resume.State, want.State) {
			h.t.Errorf("job %d handed back with resume %+v, want %+v", id, it.resume, want)
		}
		retries := windowRetries + 1
		if id == h.speculated {
			retries = windowRetries
		}
		if it.partition != windowPartition+id || it.retries != retries || !it.atomic || it.key == 0 {
			h.t.Errorf("job %d handed back as %+v", id, it)
		}
	}
}

// checkRows asserts the timeline view of a hand-back: the requeue (or the
// speculation that queued the range instead) is filed under the partition
// number the range was dispatched as, never under a row of its own.
func (h *windowHarness) checkRows(open ...int) {
	h.t.Helper()
	for _, id := range open {
		handedBack := false
		for _, row := range h.m.jobTimeline(id).Partitions {
			for _, ev := range row.Events {
				if ev.Kind != obs.KindRequeue && ev.Kind != obs.KindSpeculate {
					continue
				}
				handedBack = true
				if row.Partition != windowPartition+id {
					h.t.Errorf("job %d: %s filed under partition %d, want %d", id, ev.Kind, row.Partition, windowPartition+id)
				}
			}
		}
		if !handedBack {
			h.t.Errorf("job %d: no requeue or speculate event on its timeline", id)
		}
	}
}

// finish runs rounds on an honest phone until every job is done and
// compares the aggregates with the lockstep reference.
func (h *windowHarness) finish() {
	h.t.Helper()
	honest := dialFake(h.t, h.m, "Nexus S", 1000)
	go scriptedPhone(honest, replyResult)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for round := 0; round < 6 && h.m.PendingItems() > 0; round++ {
		if _, err := h.m.RunRound(ctx); err != nil {
			h.t.Fatalf("follow-up round %d: %v", round, err)
		}
	}
	for _, id := range h.ids {
		got, ok := h.m.Result(id)
		if !ok || !bytes.Equal(got, h.want[id]) {
			h.t.Errorf("job %d aggregate = %q (%v), want %q", id, got, ok, h.want[id])
		}
	}
}

func (h *windowHarness) handback() int64 {
	return h.reg.Counter("cwc_prefetch_handback_bytes_total").Value()
}

func (h *windowHarness) alive() bool {
	for _, p := range h.m.Phones() {
		if p.ID == h.f.id {
			return p.Alive
		}
	}
	return false
}

// others lists the job IDs except the given ones.
func (h *windowHarness) others(except ...int) []int {
	var out []int
	for _, id := range h.ids {
		skip := false
		for _, e := range except {
			skip = skip || e == id
		}
		if !skip {
			out = append(out, id)
		}
	}
	return out
}

// Every way a dispatcher can stop with two attempts on its phone: each
// must settle, detach or drop both exactly once, hand the prefetched
// assignment back untouched, and leave aggregates byte-identical to a
// lockstep run.
func TestDispatchWindowExitPaths(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		script func(h *windowHarness, running, prefetched *protocol.Message)
		// open lists the jobs still queued after the round, given the two
		// the phone held; nil: every job.
		open func(h *windowHarness, running, prefetched int) []int
		// dead: the phone must be gone afterwards. wasted: the prefetched
		// input must be counted as handed back unexecuted.
		dead, wasted bool
		stragglers   int
		// unexpected: result frames the master must count as unexpected and
		// credit to nothing.
		unexpected int64
	}{
		{
			name: "result/result",
			script: func(h *windowHarness, running, prefetched *protocol.Message) {
				replyResult(h.f, running)
				replyResult(h.f, prefetched)
				replyResult(h.f, h.nextAssign())
				replyResult(h.f, h.nextAssign())
			},
			open: func(*windowHarness, int, int) []int { return []int{} },
		},
		{
			// Credited to whatever heads the window, the lie would be folded
			// into the running job's aggregate.
			name: "result naming no attempt",
			script: func(h *windowHarness, running, prefetched *protocol.Message) {
				lie := []byte("424242")
				_ = h.f.conn.Send(&protocol.Message{Type: protocol.TypeResult,
					JobID: running.JobID, Partition: running.Partition,
					Result: lie, Digest: tasks.Digest(lie), ExecMs: 1, ProcessedKB: 1})
				replyResult(h.f, running)
				replyResult(h.f, prefetched)
				replyResult(h.f, h.nextAssign())
				replyResult(h.f, h.nextAssign())
			},
			open:       func(*windowHarness, int, int) []int { return []int{} },
			unexpected: 1,
		},
		{
			name: "failure on running",
			script: func(h *windowHarness, running, _ *protocol.Message) {
				h.fail(running, "unplugged")
			},
			dead: true, wasted: true,
		},
		{
			name: "drained on running",
			script: func(h *windowHarness, running, prefetched *protocol.Message) {
				h.fail(running, drainFailureReason)
				// A drained worker reports once per attempt it holds.
				h.fail(prefetched, drainFailureReason)
				h.serveRest()
			},
			wasted: true,
		},
		{
			name: "refusal of the prefetched assignment arrives first",
			script: func(h *windowHarness, _, prefetched *protocol.Message) {
				h.fail(prefetched, "worker assignment queue full")
			},
			dead: true,
		},
		{
			name: "deadline, speculation, abandon on running",
			cfg:  Config{DeadlineFloor: 150 * time.Millisecond, DeadlineFactor: 0.001},
			script: func(h *windowHarness, _, _ *protocol.Message) {
				h.serveRest() // neither is ever answered
			},
			wasted: true, stragglers: 1,
		},
		{
			name: "connection death",
			script: func(h *windowHarness, _, _ *protocol.Message) {
				h.f.conn.Close()
			},
			dead: true, wasted: true,
		},
		{
			name: "context cancelled",
			script: func(h *windowHarness, _, _ *protocol.Message) {
				h.cancel()
				h.serveRest()
			},
			wasted: true,
		},
		{
			name: "quarantine mid-queue",
			script: func(h *windowHarness, running, _ *protocol.Message) {
				h.m.do(func() { h.m.quarantined[h.f.id] = true })
				replyResult(h.f, running)
			},
			open:   func(h *windowHarness, running, _ int) []int { return h.others(running) },
			wasted: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newWindowHarness(t, tc.cfg)
			rep, pair := h.firstRound(func(a, b *protocol.Message) { tc.script(h, a, b) })
			running, prefetched := pair[0], pair[1]
			for _, msg := range pair {
				want := h.resume[msg.JobID]
				if msg.Resume == nil || msg.Resume.Offset != want.Offset || msg.Partition != windowPartition+msg.JobID {
					t.Fatalf("job %d shipped as partition %d resume %+v", msg.JobID, msg.Partition, msg.Resume)
				}
			}
			open := h.ids
			if tc.open != nil {
				open = tc.open(h, running.JobID, prefetched.JobID)
			}
			if tc.stragglers > 0 {
				h.speculated = running.JobID
			}
			h.checkSettled(open...)
			h.checkRows(open...)
			if got := h.reg.Counter("cwc_frames_unexpected_total", "type", "result").Value(); got != tc.unexpected {
				t.Errorf("cwc_frames_unexpected_total{type=result} = %d, want %d", got, tc.unexpected)
			}
			if h.alive() == tc.dead {
				t.Errorf("phone alive = %v, want %v", h.alive(), !tc.dead)
			}
			if got := len(rep.Stragglers); got != tc.stragglers {
				t.Errorf("%d stragglers, want %d", got, tc.stragglers)
			}
			want := int64(0)
			if tc.wasted {
				want = int64(len(prefetched.Input))
			}
			if got := h.handback(); got != want {
				t.Errorf("cwc_prefetch_handback_bytes_total = %d, want %d", got, want)
			}
			h.finish()
		})
	}
}

// An assignment's deadline clock starts when its predecessor settles, not
// when its bytes were sent: the time it sat prefetched behind a slow
// predecessor must not make it a straggler.
func TestDispatchWindowSlowPredecessorIsNotAStraggler(t *testing.T) {
	const floor = 600 * time.Millisecond
	h := newWindowHarness(t, Config{DeadlineFloor: floor, DeadlineFactor: 0.001})
	rep, _ := h.firstRound(func(running, prefetched *protocol.Message) {
		// Each takes three quarters of a deadline; the second has been on
		// the phone for one and a half by the time it reports.
		time.Sleep(floor * 3 / 4)
		replyResult(h.f, running)
		time.Sleep(floor * 3 / 4)
		replyResult(h.f, prefetched)
		replyResult(h.f, h.nextAssign())
		replyResult(h.f, h.nextAssign())
	})
	if len(rep.Stragglers) != 0 {
		t.Errorf("stragglers = %v, want none", rep.Stragglers)
	}
	h.checkSettled()
	h.finish()
}

// A pair is prefetched only when both inputs fit the phone's RAM: a
// too-large pair runs in lockstep, each assignment shipped only after the
// previous one reported.
func TestDispatchWindowRAMGuardKeepsLockstep(t *testing.T) {
	m := startMaster(t, Config{})
	f := dialFake(t, m, "HTC G2", 806)
	m.do(func() { m.phones[f.id].info.RAMMB = 1 })
	var ids []int
	want := map[int][]byte{}
	for j := 0; j < 3; j++ {
		// 600 KB each: one fits the phone's megabyte, two do not.
		input := bytes.Repeat([]byte(fmt.Sprintf("%07d\n", 1000002+2*j)), 600*1024/8)
		id, err := m.Submit(tasks.PrimeCount{}, input, true)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		want[id] = groundTruth(t, tasks.PrimeCount{}, input)
	}
	overlapped := make(chan string, 1)
	go scriptedPhone(f, func(f *fakePhone, msg *protocol.Message) {
		// Nothing else may arrive while this one is unanswered.
		_ = f.conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
		for {
			extra, err := f.conn.Recv()
			if err != nil {
				break
			}
			if extra.Type == protocol.TypeAssign {
				select {
				case overlapped <- fmt.Sprintf("job %d arrived while job %d was executing", extra.JobID, msg.JobID):
				default:
				}
			}
		}
		replyResult(f, msg)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case what := <-overlapped:
		t.Error(what)
	default:
	}
	for _, id := range ids {
		if got, ok := m.Result(id); !ok || !bytes.Equal(got, want[id]) {
			t.Errorf("job %d = %q (%v), want %q", id, got, ok, want[id])
		}
	}
}

// Replicated voting with every phone running a window: copies of one key
// sit at different depths of different phones' queues, and the vote still
// reaches quorum on the truth and quarantines the liar.
func TestVotingWithWindowsQuarantinesLiar(t *testing.T) {
	m := startMaster(t, Config{VerifyReplicas: 2})
	newVerifyResponder(dialFake(t, m, "liar", 2000), lie(3))
	newVerifyResponder(dialFake(t, m, "honest-1", 1500), nil)
	newVerifyResponder(dialFake(t, m, "honest-2", 800), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 3); err != nil {
		t.Fatal(err)
	}
	var ids []int
	want := map[int][]byte{}
	for j := 0; j < 12; j++ {
		input := numberLines(100*j+2, 100*j+60)
		id, err := m.Submit(tasks.PrimeCount{}, input, true)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		want[id] = groundTruth(t, tasks.PrimeCount{}, input)
	}
	deepest := 0
	for round := 0; round < 10; round++ {
		rep, err := m.RunRound(ctx)
		if err == ErrNothingToDo {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// How many assignments a phone held at once, from the timeline.
		held := map[int]int{}
		for _, e := range rep.Events {
			switch e.Kind {
			case "assign":
				held[e.PhoneID]++
				deepest = max(deepest, held[e.PhoneID])
			case "result", "failure":
				held[e.PhoneID]--
			}
		}
	}
	if deepest != 2 {
		t.Errorf("deepest window = %d assignments on one phone, want 2", deepest)
	}
	for _, id := range ids {
		if res := waitResult(t, m, id, 15*time.Second); !bytes.Equal(res, want[id]) {
			t.Errorf("job %d = %q, want %q", id, res, want[id])
		}
	}
	if !m.Quarantined(0) {
		t.Errorf("liar not quarantined (reputation %v)", m.Reputation(0))
	}
	if got := m.QuarantinedPhones(); len(got) != 1 {
		t.Errorf("quarantined %v, want the liar alone", got)
	}
}
