package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"cwc/internal/core"
	"cwc/internal/obs"
	"cwc/internal/predict"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
	"cwc/internal/wal"
	"cwc/internal/wire"
)

// randomPlan is a packed round on a seeded random fleet: phones with their
// own clocks, links and RAM, and breakable jobs of the three counting
// tasks from 1 to 120 KB, some planned atomic (submitted so, a keyed
// re-queue, or resumed).
func randomPlan(t *testing.T, rng *rand.Rand, phones, jobs int) ([]*workItem, *core.Schedule, *core.Instance) {
	t.Helper()
	est, err := predict.New(600, 1)
	if err != nil {
		t.Fatal(err)
	}
	breakable := []tasks.Task{tasks.PrimeCount{}, tasks.WordCount{Word: "the"}, tasks.MaxInt{}}
	for _, task := range breakable {
		if err := est.SetProfile(task.Name(), 0.05+2*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	infos := make([]PhoneInfo, phones)
	for i := range infos {
		infos[i] = PhoneInfo{ID: i + 1, CPUMHz: 600 + float64(rng.Intn(1000)),
			BMsPerKB: 0.01 + 5*rng.Float64(), RAMMB: rng.Intn(3)}
	}
	items := make([]*workItem, jobs)
	for j := range items {
		task := breakable[rng.Intn(len(breakable))]
		sizeKB := 1 + 119*rng.Float64()
		var input []byte
		if task.Name() == "wordcount" {
			input = tasks.GenText(sizeKB, rng)
		} else {
			input = tasks.GenIntegers(sizeKB, 1000000, rng)
		}
		it := &workItem{jobID: j + 1, task: task, input: input}
		switch rng.Intn(8) {
		case 0:
			it.atomic = true
		case 1:
			it.key, it.atomic, it.partition = int64(100+j), true, 3
		case 2:
			it.key, it.atomic = int64(100+j), true
			it.resume = &tasks.Checkpoint{Offset: int64(len(input) / 2)}
		}
		items[j] = it
	}
	m := New(Config{})
	sched, inst, err := m.buildSchedule(items, infos, est)
	if err != nil {
		t.Fatal(err)
	}
	return items, sched, inst
}

// The cut, over seeded random plans: the predicted makespan is the
// packer's bit for bit and every phone's span agrees to float rounding;
// only planned non-atomic items are cut, never in a one-phone round, and
// each into equal pieces where it sat in the queue; no piece costs more
// than 1/cutPerRound of the makespan unless the floor stopped the cut,
// and none is under the floor; each job's pieces cover its input once,
// at record boundaries, in queue order.
func TestCutToGrainProperty(t *testing.T) {
	for _, tc := range []struct {
		name          string
		phones, jobs  int
		seeds         int64
		wantCutPieces bool
	}{
		{name: "one phone", phones: 1, jobs: 6, seeds: 20},
		{name: "two phones", phones: 2, jobs: 5, seeds: 40, wantCutPieces: true},
		{name: "small fleet", phones: 5, jobs: 12, seeds: 40, wantCutPieces: true},
		{name: "wide fleet", phones: 18, jobs: 30, seeds: 20, wantCutPieces: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			added := 0
			for seed := int64(1); seed <= tc.seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				items, sched, inst := randomPlan(t, rng, tc.phones, tc.jobs)
				packed := slices.Clone(sched.PerPhone)
				for i := range packed {
					packed[i] = slices.Clone(packed[i])
				}
				makespan := sched.Makespan
				cut, extra := cutToGrain(sched, inst)
				added += extra
				checkCut(t, seed, items, sched, inst, cut, extra)
				if math.Float64bits(cut.Makespan) != math.Float64bits(makespan) ||
					math.Float64bits(sched.Makespan) != math.Float64bits(makespan) {
					t.Fatalf("seed %d: makespan %v -> %v", seed, makespan, cut.Makespan)
				}
				for i := range packed {
					if !slices.Equal(sched.PerPhone[i], packed[i]) {
						t.Fatalf("seed %d: the cut changed the packer's queue of phone %d", seed, i)
					}
				}
			}
			if tc.phones == 1 && added != 0 {
				t.Fatalf("one-phone rounds gained %d pieces", added)
			}
			if tc.wantCutPieces && added == 0 {
				t.Fatal("no assignment was cut; the property is not exercised")
			}
		})
	}
}

// checkCut holds one cut plan to the properties TestCutToGrainProperty
// names.
func checkCut(t *testing.T, seed int64, items []*workItem, sched *core.Schedule, inst *core.Instance, cut *core.Schedule, extra int) {
	t.Helper()
	want, got := sched.PhoneSpans(inst), cut.PhoneSpans(inst)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*max(1, want[i]) {
			t.Fatalf("seed %d: phone %d's span %v, uncut %v", seed, i, got[i], want[i])
		}
	}
	grain := sched.Makespan / cutPerRound
	added := 0
	for i, row := range sched.PerPhone {
		pieces := cut.PerPhone[i]
		for _, a := range row {
			// a's pieces are the next entries of the cut queue: the same job,
			// equal sizes summing to a's.
			n := 0
			for sum := 0.0; sum < a.SizeKB*(1-1e-12); n++ {
				if n >= len(pieces) || pieces[n].Job != a.Job || pieces[n].Phone != i {
					t.Fatalf("seed %d: phone %d's queue lost job %d's place", seed, i, a.Job)
				}
				if pieces[n].SizeKB != pieces[0].SizeKB {
					t.Fatalf("seed %d: unequal pieces of job %d on phone %d", seed, a.Job, i)
				}
				sum += pieces[n].SizeKB
			}
			pieces = pieces[n:]
			added += n - 1
			cost := a.SizeKB * inst.Rate(i, a.Job)
			floor := int(a.SizeKB / cutFloorKB)
			switch {
			case n > 1 && (inst.Jobs[a.Job].Atomic || len(inst.Phones) < 2):
				t.Fatalf("seed %d: job %d cut %d-way, planned atomic %v on %d phones",
					seed, a.Job, n, inst.Jobs[a.Job].Atomic, len(inst.Phones))
			case n > 1 && a.SizeKB/float64(n) < cutFloorKB:
				t.Fatalf("seed %d: job %d cut into %.2f KB pieces, under the %d KB floor", seed, a.Job, a.SizeKB/float64(n), cutFloorKB)
			case inst.Jobs[a.Job].Atomic || len(inst.Phones) < 2:
			case cost/float64(n) > grain*(1+1e-9) && n != max(1, floor): // else the floor stopped the cut
				t.Fatalf("seed %d: job %d on phone %d left at %.1f ms a piece, grain %.1f ms, %d pieces, floor %d",
					seed, a.Job, i, cost/float64(n), grain, n, floor)
			}
		}
		if len(pieces) != 0 {
			t.Fatalf("seed %d: phone %d's cut queue holds %d pieces past its plan", seed, i, len(pieces))
		}
	}
	if added != extra {
		t.Fatalf("seed %d: the cut reports %d added pieces, its queues hold %d", seed, extra, added)
	}

	plans, err := slicePartitions(items, cut)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	byJob := map[int][]assignment{}
	for i, plan := range plans {
		slots := cut.PerPhone[i]
		for _, a := range plan {
			// Zero-byte pieces are dropped; every other keeps its slot's place.
			for len(slots) > 0 && slots[0].Job != a.job {
				slots = slots[1:]
			}
			if len(slots) == 0 {
				t.Fatalf("seed %d: phone %d's plan is out of its queue's order", seed, i)
			}
			slots = slots[1:]
			byJob[a.job] = append(byJob[a.job], a)
		}
	}
	for j, it := range items {
		as := byJob[j]
		slices.SortFunc(as, func(a, b assignment) int { return int(a.off - b.off) })
		var rejoined []byte
		for _, a := range as {
			if a.off != int64(len(rejoined)) {
				t.Fatalf("seed %d: job %d's piece at %d, covered up to %d", seed, j, a.off, len(rejoined))
			}
			if len(as) > 1 && a.input[len(a.input)-1] != '\n' && int(a.off)+len(a.input) != len(it.input) {
				t.Fatalf("seed %d: job %d's piece at %d ends mid-record", seed, j, a.off)
			}
			rejoined = append(rejoined, a.input...)
		}
		if !bytes.Equal(rejoined, it.input) {
			t.Fatalf("seed %d: job %d's pieces cover %d of its %d bytes", seed, j, len(rejoined), len(it.input))
		}
	}
}

// skewedPhone answers each assignment after perKB of sleep per KB of its
// input, and logs it. It reports the same execution time whatever it
// sleeps, so the master prices every such phone alike.
func (l *assignLog) skewedPhone(f *fakePhone, perKB time.Duration) {
	scriptedPhone(f, func(f *fakePhone, msg *protocol.Message) {
		l.mu.Lock()
		l.got = append(l.got, protocol.Message{JobID: msg.JobID, Partition: msg.Partition,
			Attempt: msg.Attempt, PhoneID: f.id})
		l.mu.Unlock()
		time.Sleep(time.Duration(len(msg.Input)) * perKB / 1024)
		replyResult(f, msg)
	})
}

// skewedRun runs PrimeCount, WordCount and MaxInt jobs under RunLoop on
// four phones the model prices alike, two of which answer twice as slowly
// as the other two, and checks every aggregate against the job run
// locally and every range against its shipment. It returns the spread of
// the phones' last reports in the first round, and the master.
func skewedRun(t *testing.T) (time.Duration, *Master) {
	t.Helper()
	tracer := obs.NewTracer(1 << 14)
	m := startMaster(t, Config{Tracer: tracer})
	var log assignLog
	for i := 0; i < 4; i++ {
		go log.skewedPhone(dialFake(t, m, "HTC G2", 806), time.Duration(1+i%2)*time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 4); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	want := map[int][]byte{}
	for j := 0; j < 6; j++ {
		var task tasks.Task
		var in []byte
		switch j % 3 {
		case 0:
			task, in = tasks.PrimeCount{}, tasks.GenIntegers(96, 1000000, rng)
		case 1:
			task, in = tasks.WordCount{Word: "the"}, tasks.GenText(96, rng)
		default:
			task, in = tasks.MaxInt{}, tasks.GenIntegers(96, 1<<40, rng)
		}
		id, err := m.Submit(task, in, false)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = groundTruth(t, task, in)
	}
	loopCtx, stop := context.WithCancel(ctx)
	defer stop()
	var reports []*RoundReport
	var repMu sync.Mutex
	done := make(chan error, 1)
	go func() {
		done <- m.RunLoop(loopCtx, 10*time.Millisecond, func(r *RoundReport) {
			repMu.Lock()
			reports = append(reports, r)
			repMu.Unlock()
		})
	}()
	for id, res := range want {
		if got := waitResult(t, m, id, 30*time.Second); !bytes.Equal(got, res) {
			t.Errorf("job %d = %q, want %q", id, got, res)
		}
	}
	stop()
	<-done

	checkShippedOnce(t, m, tracer.Recent(1<<14), &log)
	repMu.Lock()
	defer repMu.Unlock()
	if len(reports) == 0 {
		t.Fatal("no round reported")
	}
	last := map[int]time.Duration{}
	for _, ev := range reports[0].Events {
		if ev.Kind == obs.KindResult {
			last[ev.PhoneID] = max(last[ev.PhoneID], ev.At)
		}
	}
	if len(last) != 4 {
		t.Fatalf("%d phones reported in the first round, want 4", len(last))
	}
	lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
	for _, at := range last {
		lo, hi = min(lo, at), max(hi, at)
	}
	return hi - lo, m
}

// checkShippedOnce: every range was shipped once, each attempt to one
// phone, and credited once, from the phone that received it.
func checkShippedOnce(t *testing.T, m *Master, evs []obs.SpanEvent, log *assignLog) {
	t.Helper()
	assignedTo := map[[2]int]int{} // (job, partition) -> phone
	for _, ev := range evs {
		if ev.Kind == obs.KindAssign {
			k := [2]int{ev.Job, ev.Partition}
			if _, dup := assignedTo[k]; dup {
				t.Errorf("job %d partition %d assigned twice", ev.Job, ev.Partition)
			}
			assignedTo[k] = ev.Phone
		}
	}
	credited := map[[2]int]int{}
	for _, ev := range evs {
		if ev.Kind == obs.KindResult && ev.Job > 0 {
			k := [2]int{ev.Job, ev.Partition}
			credited[k]++
			if assignedTo[k] != ev.Phone {
				t.Errorf("job %d partition %d credited from phone %d, shipped to %d", ev.Job, ev.Partition, ev.Phone, assignedTo[k])
			}
		}
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	attempts, shipped := map[int64]int{}, map[[2]int]int{}
	for _, msg := range log.got {
		if msg.JobID == 0 {
			continue // profiling
		}
		k := [2]int{msg.JobID, msg.Partition}
		attempts[msg.Attempt]++
		shipped[k]++
		if assignedTo[k] != msg.PhoneID {
			t.Errorf("job %d partition %d reached phone %d; the master traced it to %d", k[0], k[1], msg.PhoneID, assignedTo[k])
		}
	}
	for k, n := range shipped {
		if n != 1 || credited[k] != 1 {
			t.Errorf("job %d partition %d shipped %d times, credited %d times", k[0], k[1], n, credited[k])
		}
	}
	for a, n := range attempts {
		if n != 1 {
			t.Errorf("attempt %d shipped %d times", a, n)
		}
	}
	if got := m.cfg.Metrics.Counter("cwc_results_total").Value(); got != int64(len(shipped)) {
		t.Errorf("%d results credited for %d ranges shipped", got, len(shipped))
	}
}

// On four phones the model prices alike, two of which run twice as slowly,
// the cut plan's phones end closer together than the same plan's uncut:
// uncut, each phone's work is one or two big pieces, all in its window at
// once, and nothing is left to steal; cut, the fast phones take the slow
// ones' small tail pieces.
func TestCutBalancesASkewedFleet(t *testing.T) {
	cutSpread, m := skewedRun(t)
	if n := m.mx.cutPieces.Value(); n == 0 {
		t.Fatal("nothing was cut")
	}
	if n := m.mx.steals.Value(); n == 0 {
		t.Fatal("no steal fired on the cut plan")
	}
	cutting = false
	t.Cleanup(func() { cutting = true })
	uncutSpread, m := skewedRun(t)
	if n := m.mx.cutPieces.Value(); n != 0 {
		t.Fatalf("%d pieces cut with the cut off", n)
	}
	t.Logf("last-report spread: cut %v, uncut %v", cutSpread, uncutSpread)
	if cutSpread >= uncutSpread {
		t.Errorf("the phones' last reports spread %v cut, %v uncut", cutSpread, uncutSpread)
	}
}

// A master killed anywhere in rounds whose work was cut and stolen
// recovers: the live segment of a skewed fleet's run, where cuts and
// steals fired, is cut at 0, inside every record and after it, and every
// cut recovers with no acknowledged job lost and every aggregate
// byte-identical to the uncrashed run. Each piece is a range of its own in
// the round record, so replay finds each one open or settled.
func TestWALRecoveryAcrossCutPieces(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	dir := t.TempDir()
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
	a := startMaster(t, Config{WAL: wl})
	var log assignLog
	for i := 0; i < 4; i++ {
		go log.skewedPhone(dialFake(t, a, "HTC G2", 806), time.Duration(i%2)*4*time.Millisecond)
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
	for j := 0; j < 4; j++ {
		var task tasks.Task = tasks.PrimeCount{}
		if j%2 == 1 {
			task = tasks.MaxInt{}
		}
		id, err := a.Submit(task, numberLines(10000*j+1, 10000*j+5000), false)
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
	if a.mx.cutPieces.Value() == 0 || a.mx.steals.Value() == 0 {
		t.Fatalf("recorded run cut %d pieces and stole %d; the harness is vacuous",
			a.mx.cutPieces.Value(), a.mx.steals.Value())
	}
	t.Logf("recorded run: %d pieces cut, %d steals", a.mx.cutPieces.Value(), a.mx.steals.Value())
	a.Close()
	wl.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.wal"))
	if len(segs) != 1 || len(snaps) != 1 {
		t.Fatalf("want one live segment and one snapshot, got %v and %v", segs, snaps)
	}
	r := crashRun{name: "cut", snapName: filepath.Base(snaps[0]), segName: filepath.Base(segs[0]),
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
