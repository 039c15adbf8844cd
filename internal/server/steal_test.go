package server

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"cwc/internal/core"
	"cwc/internal/obs"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
	"cwc/internal/wal"
	"cwc/internal/wire"
)

// modelMakespan is the round's predicted finish as the steal rule prices
// it: the latest phone's window and unshipped queue.
func modelMakespan(rnd *round) float64 {
	worst := 0.0
	for i, ps := range rnd.phones {
		ms := rnd.windowMs(i)
		for _, a := range ps.queue[ps.next:] {
			ms += rnd.price(i, a)
		}
		worst = max(worst, ms)
	}
	return worst
}

// randomRound is a round in flight on a seeded random fleet: phones with
// their own links, per-job rates, RAM caps and charge windows, each with
// a queue of assignments of random jobs and sizes, some of them
// verification copies (votes names their keys).
func randomRound(rng *rand.Rand) (*round, map[int64]*voteGroup) {
	n, jobs := 2+rng.Intn(7), 1+rng.Intn(5)
	inst := &core.Instance{}
	for j := 0; j < jobs; j++ {
		inst.Jobs = append(inst.Jobs, core.Job{ID: j, ExecKB: float64(rng.Intn(13))})
	}
	rnd := &round{inst: inst}
	votes := map[int64]*voteGroup{}
	key := int64(0)
	for i := 0; i < n; i++ {
		p := core.Phone{ID: i + 1, BMsPerKB: 0.1 + 7*rng.Float64(), RAMKB: 16 + float64(rng.Intn(64))}
		if rng.Intn(4) == 0 {
			p.AvailMs = 50 + 2000*rng.Float64()
		}
		inst.Phones = append(inst.Phones, p)
		row := make([]float64, jobs)
		for j := range row {
			row[j] = 0.05 + 3*rng.Float64()
		}
		inst.C = append(inst.C, row)
		ps := &phoneState{info: PhoneInfo{ID: i + 1, RAMMB: rng.Intn(2) * 64}, rnd: rnd}
		for k := rng.Intn(9); k > 0; k-- {
			key++
			ps.queue = append(ps.queue, assignment{job: rng.Intn(jobs), key: key,
				input: make([]byte, 1024*(1+rng.Intn(40)))})
			if rng.Intn(6) == 0 {
				votes[key] = &voteGroup{}
			}
		}
		rnd.phones = append(rnd.phones, ps)
	}
	return rnd, votes
}

// No steal raises the round's model makespan, over seeded random rounds
// driven through random completions, shipments and steal attempts: the
// taker ends before the victim would have reached the piece, inside its
// RAM cap, beside what it executes and inside its charge window, and the
// piece is the victim's last that is no verification copy.
func TestStealRuleNeverRaisesTheModelMakespan(t *testing.T) {
	steals := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rnd, votes := randomRound(rng)
		for step := 0; step < 400; step++ {
			ti := rng.Intn(len(rnd.phones))
			ps := rnd.phones[ti]
			switch {
			case len(ps.win) > 0 && rng.Intn(2) == 0:
				ps.win = ps.win[1:] // the head reported
			case ps.next < len(ps.queue) && len(ps.win) < 2:
				ps.win = append(ps.win, flight{a: ps.queue[ps.next]})
				ps.next++
			case ps.next == len(ps.queue) && len(ps.win) < 2:
				elapsed := 1000 * rng.Float64()
				before := modelMakespan(rnd)
				vi, k := rnd.stealFor(ti, elapsed, votes)
				if vi < 0 {
					continue
				}
				victim := rnd.phones[vi]
				a := victim.queue[k]
				if votes[a.key] != nil {
					t.Fatalf("seed %d: stole verification copy %d", seed, a.key)
				}
				for _, b := range victim.queue[k+1:] {
					if votes[b.key] == nil {
						t.Fatalf("seed %d: stole key %d ahead of the victim's last movable, %d", seed, a.key, b.key)
					}
				}
				p := rnd.inst.Phones[ti]
				finish := rnd.windowMs(ti) + rnd.price(ti, a)
				if float64(len(a.input))/1024 > p.RAMKB || p.AvailMs > 0 && elapsed+finish > p.AvailMs ||
					len(ps.win) == 1 && !pairFits(ps, ps.win[0].a, a) {
					t.Fatalf("seed %d: phone %d took %d bytes past its RAM, window or pair bound", seed, ti, len(a.input))
				}
				victim.queue = slices.Delete(victim.queue, k, k+1)
				ps.queue = append(ps.queue, a)
				steals++
				if after := modelMakespan(rnd); after > before+1e-9 {
					t.Fatalf("seed %d: a steal raised the model makespan from %.3f to %.3f ms", seed, before, after)
				}
			}
		}
	}
	if steals < 100 {
		t.Fatalf("only %d steals over 300 rounds; the property is barely exercised", steals)
	}
}

// idleRig is a master that has not started, holding a round on two equal
// phones: the victim with two attempts in its window and the queue given,
// the taker with one executing. Each assignment is a 4 KB range of its own
// job under its own key.
func idleRig(t *testing.T, cfg Config, queue int) (*Master, *round) {
	t.Helper()
	m := New(cfg)
	inst := &core.Instance{}
	rnd := &round{inst: inst, start: time.Now(), snap: &SchedSnapshot{}}
	for i := 0; i < 2; i++ {
		ps := &phoneState{info: PhoneInfo{ID: i + 1}, rnd: rnd, dead: make(chan struct{})}
		inst.Phones = append(inst.Phones, core.Phone{ID: i + 1, BMsPerKB: 1, RAMKB: 64})
		m.phones[i+1] = ps
		rnd.phones = append(rnd.phones, ps)
		rnd.snap.Phones = append(rnd.snap.Phones, SchedPhone{PhoneID: i + 1})
	}
	inst.C = make([][]float64, 2)
	add := func(pi int) assignment {
		j := len(inst.Jobs)
		inst.Jobs = append(inst.Jobs, core.Job{ID: j, ExecKB: 1})
		for i := range inst.C {
			inst.C[i] = append(inst.C[i], 1)
		}
		a := assignment{item: &workItem{jobID: j + 1}, job: j, key: int64(j + 1), input: make([]byte, 4096)}
		rnd.snap.Phones[pi].Assignments = append(rnd.snap.Phones[pi].Assignments,
			SchedAssignment{JobID: j + 1, Key: a.key, Outcome: "pending"})
		return a
	}
	victim, taker := rnd.phones[0], rnd.phones[1]
	for k := 0; k < 2+queue; k++ {
		victim.queue = append(victim.queue, add(0))
	}
	for _, a := range victim.queue[:2] {
		victim.win = append(victim.win, flight{a: a})
	}
	victim.next = 2
	taker.queue = append(taker.queue, add(1))
	taker.win, taker.next = []flight{{a: taker.queue[0]}}, 1
	return m, rnd
}

// keys lists the keys of a phone's unshipped queue.
func keys(ps *phoneState) []int64 {
	var out []int64
	for _, a := range ps.queue[ps.next:] {
		out = append(out, a.key)
	}
	return out
}

// A verification copy is never moved: it runs where its vote placed it.
// The taker skips past a victim's copies to its last movable assignment,
// and takes nothing from a victim that holds only copies.
func TestStealNeverMovesAVoteCopy(t *testing.T) {
	m, rnd := idleRig(t, Config{}, 3) // victim: 1, 2 in its window; 3, 4, 5 queued
	victim, taker := rnd.phones[0], rnd.phones[1]
	m.votes[5] = &voteGroup{}
	m.do(func() { m.stealLocked(time.Now(), taker) })
	if got := keys(taker); !slices.Equal(got, []int64{4}) {
		t.Fatalf("taker queued %v, want [4]: the last assignment that is no verification copy", got)
	}
	if got := keys(victim); !slices.Equal(got, []int64{3, 5}) {
		t.Fatalf("victim queued %v, want [3 5]", got)
	}

	m, rnd = idleRig(t, Config{}, 2)
	m.votes[3], m.votes[4] = &voteGroup{}, &voteGroup{}
	m.do(func() { m.stealLocked(time.Now(), rnd.phones[1]) })
	if got := keys(rnd.phones[1]); len(got) != 0 {
		t.Fatalf("taker queued %v off a victim holding only verification copies", got)
	}
}

// A phone that is draining, quarantined, or whose predicted charge window
// the piece would cross never steals; the same phone with room in its
// window does, and the snapshot's entry moves with the piece, priced for
// the taker.
func TestStealSkipsDrainingAndWindowedPhones(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(m *Master, rnd *round)
		steal bool
	}{
		{name: "idle", steal: true},
		{name: "draining", setup: func(m *Master, _ *round) { m.drains[2] = "window closing" }},
		{name: "quarantined", setup: func(m *Master, _ *round) { m.quarantined[2] = true }},
		{name: "windowed", setup: func(_ *Master, rnd *round) { rnd.inst.Phones[1].AvailMs = 5 }},
		{name: "window-with-room", setup: func(_ *Master, rnd *round) { rnd.inst.Phones[1].AvailMs = 1000 }, steal: true},
		{name: "dead", setup: func(m *Master, rnd *round) { rnd.phones[1].deadClosed = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, rnd := idleRig(t, Config{}, 3)
			if tc.setup != nil {
				tc.setup(m, rnd)
			}
			m.do(func() { m.stealLocked(time.Now(), rnd.phones[1]) })
			got := keys(rnd.phones[1])
			if !tc.steal {
				if len(got) != 0 {
					t.Fatalf("taker queued %v", got)
				}
				return
			}
			if !slices.Equal(got, []int64{5}) {
				t.Fatalf("taker queued %v, want [5], the victim's last", got)
			}
			sp := rnd.snap.Phones
			if n := len(sp[0].Assignments); n != 4 {
				t.Errorf("victim's snapshot holds %d entries, want 4", n)
			}
			moved := sp[1].Assignments[len(sp[1].Assignments)-1]
			if moved.Key != 5 || moved.PredictedMs != rnd.price(1, rnd.phones[1].queue[rnd.phones[1].next]) {
				t.Errorf("taker's last snapshot entry %+v, want key 5 at the taker's price", moved)
			}
		})
	}
}

// assignLog records every assign frame a fleet of fake phones receives.
type assignLog struct {
	mu  sync.Mutex
	got []protocol.Message // JobID, Partition, Attempt, PhoneID (the receiver)
}

// serve answers each assignment on f, after delay, and logs it.
func (l *assignLog) serve(f *fakePhone, delay time.Duration) {
	scriptedPhone(f, func(f *fakePhone, msg *protocol.Message) {
		l.mu.Lock()
		l.got = append(l.got, protocol.Message{JobID: msg.JobID, Partition: msg.Partition,
			Attempt: msg.Attempt, PhoneID: f.id})
		l.mu.Unlock()
		time.Sleep(delay)
		replyResult(f, msg)
	})
}

// On a fleet of equal phones where half answer slowly, the fast half runs
// dry while the slow half still holds unshipped work: steals fire under
// RunLoop, and every aggregate is byte-identical to the job run alone.
// Every range ships once, each attempt to one phone, and is credited once,
// from the phone that received it; /debug/sched leaves nothing pending.
func TestStealsBalanceASkewedFleet(t *testing.T) {
	tracer := obs.NewTracer(1 << 14)
	m := startMaster(t, Config{Tracer: tracer})
	var log assignLog
	for i := 0; i < 4; i++ {
		delay := time.Duration(0)
		if i%2 == 1 {
			delay = 40 * time.Millisecond
		}
		go log.serve(dialFake(t, m, "HTC G2", 806), delay)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 4); err != nil {
		t.Fatal(err)
	}
	want := map[int][]byte{}
	for j := 0; j < 24; j++ {
		in := numberLines(1000*j+1, 1000*j+400)
		id, err := m.Submit(tasks.PrimeCount{}, in, true)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = groundTruth(t, tasks.PrimeCount{}, in)
	}
	loopCtx, stop := context.WithCancel(ctx)
	defer stop()
	var snaps []*SchedSnapshot
	var snapMu sync.Mutex
	done := make(chan error, 1)
	go func() {
		done <- m.RunLoop(loopCtx, 10*time.Millisecond, func(*RoundReport) {
			snapMu.Lock()
			snaps = append(snaps, m.LastSched())
			snapMu.Unlock()
		})
	}()
	for id, res := range want {
		if got := waitResult(t, m, id, 30*time.Second); string(got) != string(res) {
			t.Errorf("job %d = %q, want %q", id, got, res)
		}
	}
	stop()
	<-done

	evs := tracer.Recent(1 << 14)
	assignedTo := map[[2]int]int{} // (job, partition) -> phone
	stolen := 0
	for _, ev := range evs {
		switch ev.Kind {
		case obs.KindSteal:
			stolen++
		case obs.KindAssign:
			k := [2]int{ev.Job, ev.Partition}
			if _, dup := assignedTo[k]; dup {
				t.Errorf("job %d partition %d assigned twice", ev.Job, ev.Partition)
			}
			assignedTo[k] = ev.Phone
		}
	}
	if stolen == 0 {
		t.Fatal("no steal fired on a fleet whose fast half ran dry")
	}
	if got := m.cfg.Metrics.Counter("cwc_steals_total").Value(); got != int64(stolen) {
		t.Errorf("cwc_steals_total = %d, %d steal events", got, stolen)
	}
	for _, ev := range evs {
		if ev.Kind == obs.KindResult && ev.Job > 0 && assignedTo[[2]int{ev.Job, ev.Partition}] != ev.Phone {
			t.Errorf("job %d partition %d credited from phone %d, shipped to %d",
				ev.Job, ev.Partition, ev.Phone, assignedTo[[2]int{ev.Job, ev.Partition}])
		}
	}
	log.mu.Lock()
	attempts, ranges := map[int64]int{}, map[[2]int]int{}
	for _, msg := range log.got {
		if msg.JobID == 0 {
			continue // profiling
		}
		attempts[msg.Attempt]++
		ranges[[2]int{msg.JobID, msg.Partition}]++
		if assignedTo[[2]int{msg.JobID, msg.Partition}] != msg.PhoneID {
			t.Errorf("job %d partition %d reached phone %d; the master traced it to %d",
				msg.JobID, msg.Partition, msg.PhoneID, assignedTo[[2]int{msg.JobID, msg.Partition}])
		}
	}
	log.mu.Unlock()
	for k, n := range ranges {
		if n != 1 {
			t.Errorf("job %d partition %d shipped %d times", k[0], k[1], n)
		}
	}
	for a, n := range attempts {
		if n != 1 {
			t.Errorf("attempt %d shipped %d times", a, n)
		}
	}
	if got := m.cfg.Metrics.Counter("cwc_results_total").Value(); got != int64(len(ranges)) {
		t.Errorf("%d results credited for %d ranges shipped", got, len(ranges))
	}
	if got := m.cfg.Metrics.Counter("cwc_frames_unexpected_total", "type", string(protocol.TypeResult)).Value(); got != 0 {
		t.Errorf("%d result frames refused", got)
	}
	snapMu.Lock()
	defer snapMu.Unlock()
	for _, snap := range snaps {
		for _, sp := range snap.Phones {
			for _, a := range sp.Assignments {
				if a.Outcome != "result" || assignedTo[[2]int{a.JobID, a.Partition}] != sp.PhoneID {
					t.Errorf("round %d: phone %d's entry for job %d reads %q (shipped to phone %d)",
						snap.Round, sp.PhoneID, a.JobID, a.Outcome, assignedTo[[2]int{a.JobID, a.Partition}])
				}
			}
		}
	}
}

// A master killed anywhere in a round whose work was stolen recovers: the
// live segment of a skewed fleet's run, where steals fired, is cut at the
// end of every record and inside it, and every cut recovers with no
// acknowledged job lost and every aggregate byte-identical to the
// uncrashed run. No record names the phone a range ran on, so a steal
// leaves nothing for replay to reconcile.
func TestWALRecoveryAcrossASteal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	dir := t.TempDir()
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
	a := startMaster(t, Config{WAL: wl})
	var log assignLog
	for i := 0; i < 4; i++ {
		go log.serve(dialFake(t, a, "HTC G2", 806), time.Duration(i%2)*40*time.Millisecond)
	}
	if err := a.WaitForPhones(ctx, 4); err != nil {
		t.Fatal(err)
	}
	first, err := a.Submit(tasks.PrimeCount{}, numberLines(1, 200), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.CompactWAL(); err != nil { // the live segment starts after it
		t.Fatal(err)
	}
	ids := []int{first}
	for j := 0; j < 12; j++ {
		id, err := a.Submit(tasks.PrimeCount{}, numberLines(1000*j+1, 1000*j+300), j%3 == 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	want := map[int][]byte{}
	for round := 0; round < 20 && len(want) < len(ids); round++ {
		if _, err := a.RunRound(ctx); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if res, ok := a.Result(id); ok {
				want[id] = res
			}
		}
	}
	if len(want) != len(ids) {
		t.Fatalf("uncrashed run finished %d of %d jobs", len(want), len(ids))
	}
	if n := a.cfg.Metrics.Counter("cwc_steals_total").Value(); n == 0 {
		t.Fatal("no steal fired in the recorded run; the harness is vacuous")
	}
	a.Close()
	wl.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.wal"))
	if len(segs) != 1 || len(snaps) != 1 {
		t.Fatalf("want one live segment and one snapshot, got %v and %v", segs, snaps)
	}
	r := crashRun{name: "steal", snapName: filepath.Base(snaps[0]), segName: filepath.Base(segs[0]),
		submitEnd: map[int]int64{}, want: want, snapJobs: []int{first}}
	if r.seg, err = os.ReadFile(segs[0]); err != nil {
		t.Fatal(err)
	}
	if r.snap, err = os.ReadFile(snaps[0]); err != nil {
		t.Fatal(err)
	}
	recs, bounds, err := wal.ScanSegment(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.Type == walRecSubmit {
			var p walSubmit
			if err := wire.Decode(rec.Payload, &p); err != nil {
				t.Fatal(err)
			}
			r.submitEnd[p.JobID] = bounds[i]
		}
	}
	cuts := []int64{0}
	for _, end := range bounds {
		cuts = append(cuts, end-3, end) // inside the record, and after it
	}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) { r.recoverAt(t, ctx, cut) })
	}
}
