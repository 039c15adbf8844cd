package server

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"cwc/internal/core"
	"cwc/internal/predict"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
	"cwc/internal/wire"
)

func TestWorkItemRemainingKB(t *testing.T) {
	it := &workItem{input: make([]byte, 2048)}
	if got := it.remainingKB(); got != 2 {
		t.Errorf("remaining = %v, want 2", got)
	}
	it.resume = &tasks.Checkpoint{Offset: 1024}
	if got := it.remainingKB(); got != 1 {
		t.Errorf("remaining with resume = %v, want 1", got)
	}
	// Nearly-done items stay schedulable.
	it.resume = &tasks.Checkpoint{Offset: 2048}
	if got := it.remainingKB(); got <= 0 {
		t.Errorf("fully-consumed remaining = %v, want small positive", got)
	}
}

func TestProfileSampleBreakable(t *testing.T) {
	input := make([]byte, 0, 8192)
	for len(input) < 8000 {
		input = append(input, []byte("12345\n")...)
	}
	it := &workItem{task: tasks.PrimeCount{}, input: input}
	sample := profileSample(it)
	if len(sample) < 512 || len(sample) > 2048 {
		t.Errorf("sample = %d bytes, want ~1KB", len(sample))
	}
	if sample[len(sample)-1] != '\n' {
		t.Error("sample should end at a record boundary")
	}
}

func TestProfileSampleAtomicUsesWholeInput(t *testing.T) {
	img := []byte("2 2\n1 2 3\n4 5 6\n7 8 9\n10 11 12\n")
	it := &workItem{task: tasks.Blur{}, input: img, atomic: true}
	if got := profileSample(it); len(got) != len(img) {
		t.Errorf("atomic sample truncated: %d of %d bytes", len(got), len(img))
	}
}

func TestProfileSampleSmallInput(t *testing.T) {
	it := &workItem{task: tasks.PrimeCount{}, input: []byte("2\n3\n")}
	if got := profileSample(it); len(got) != 4 {
		t.Errorf("small input sample = %d bytes", len(got))
	}
}

// creditAll folds partials into js as its report records do, then
// finishes it.
func creditAll(js *walJobRec, partials ...string) ([]byte, error) {
	for _, p := range partials {
		js.credit(wire.Held{Bytes: []byte(p)})
	}
	err := js.finish()
	return js.Result.Bytes, err
}

func TestAggregateSingle(t *testing.T) {
	got, err := creditAll(&walJobRec{ID: 1, task: tasks.Blur{}}, "img")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "img" {
		t.Errorf("single partial aggregate = %s", got)
	}
	// A phone may report an empty result: it is the job's result, not the
	// absence of one.
	js := &walJobRec{ID: 2, task: tasks.Blur{}}
	js.credit(wire.Held{}) // as an empty section decodes: nil
	if err := js.finish(); err != nil || js.Result.Bytes == nil || len(js.Result.Bytes) != 0 {
		t.Errorf("empty partial aggregate = %q, %v; want an empty result", js.Result.Bytes, err)
	}
}

func TestAggregateMultipleCounts(t *testing.T) {
	got, err := creditAll(&walJobRec{ID: 1, task: tasks.PrimeCount{}}, "3", "4", "5")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "12" {
		t.Errorf("aggregate = %s, want 12", got)
	}
	// A fold with no task instantiates it by name, as replay does.
	if got, err := creditAll(&walJobRec{ID: 2, Task: "primecount"}, "3", "4"); err != nil || string(got) != "7" {
		t.Errorf("aggregate by name = %s, %v; want 7", got, err)
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, err := creditAll(&walJobRec{ID: 1, task: tasks.PrimeCount{}}); err == nil {
		t.Error("no partials should error")
	}
	js := &walJobRec{ID: 1, task: tasks.Blur{}}
	if _, err := creditAll(js, "a", "b"); err == nil ||
		!strings.Contains(err.Error(), "not breakable") {
		t.Errorf("multi-partial non-breakable err = %v", err)
	}
	// The error is terminal: the accumulator is dropped, and a partial
	// credited after it is dropped too.
	js = &walJobRec{ID: 1, task: tasks.PrimeCount{}}
	js.credit(wire.Held{Bytes: []byte("3")})
	js.credit(wire.Held{Bytes: []byte("x")})
	js.credit(wire.Held{Bytes: []byte("4")})
	if js.Failure == "" || js.Result.Bytes != nil {
		t.Errorf("after a bad partial: failure %q, result %q; want a failure and no result", js.Failure, js.Result.Bytes)
	}
}

func TestSlicePartitionsWholeAndSplit(t *testing.T) {
	input := make([]byte, 0, 12*1024)
	for len(input) < 10*1024 {
		input = append(input, []byte("123456\n")...)
	}
	items := []*workItem{
		{jobID: 1, task: tasks.PrimeCount{}, input: input},
		{jobID: 2, task: tasks.Blur{}, input: []byte("1 1\n1 2 3\n"), atomic: true},
	}
	sched := &core.Schedule{PerPhone: [][]core.Assignment{
		{
			{Phone: 0, Job: 0, SizeKB: 4},
			{Phone: 0, Job: 1, SizeKB: 0.01},
		},
		{
			{Phone: 1, Job: 0, SizeKB: float64(len(input))/1024 - 4},
		},
	}}
	plans, err := slicePartitions(items, sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("%d plans", len(plans))
	}
	// Phone 0: a slice of job 1 and the whole blur.
	if len(plans[0]) != 2 || len(plans[1]) != 1 {
		t.Fatalf("plan shapes: %d, %d", len(plans[0]), len(plans[1]))
	}
	if plans[0][1].item.jobID != 2 || string(plans[0][1].input) != "1 1\n1 2 3\n" {
		t.Error("atomic item not shipped whole")
	}
	// The two pieces of job 1 must concatenate to the input.
	rejoined := append(append([]byte(nil), plans[0][0].input...), plans[1][0].input...)
	if string(rejoined) != string(input) {
		t.Error("split pieces do not reassemble the input")
	}
}

func TestSlicePartitionsRejectsSplitAtomic(t *testing.T) {
	items := []*workItem{
		{jobID: 1, task: tasks.Blur{}, input: []byte("1 1\n1 2 3\n"), atomic: true},
	}
	sched := &core.Schedule{PerPhone: [][]core.Assignment{
		{{Phone: 0, Job: 0, SizeKB: 0.005}},
		{{Phone: 1, Job: 0, SizeKB: 0.005}},
	}}
	if _, err := slicePartitions(items, sched); err == nil {
		t.Error("splitting a non-breakable item should error")
	}
}

func TestSlicePartitionsUnassignedItem(t *testing.T) {
	items := []*workItem{
		{jobID: 1, task: tasks.PrimeCount{}, input: []byte("2\n")},
	}
	sched := &core.Schedule{PerPhone: [][]core.Assignment{{}}}
	if _, err := slicePartitions(items, sched); err == nil {
		t.Error("an item with no assignment should error")
	}
}

func TestRecordFailurePartialReporterPath(t *testing.T) {
	m := New(Config{})
	a := openTestRange(t, m, tasks.PrimeCount{}, []byte("2\n3\n4\n5\n"), false, 0)
	js := m.jobs[a.item.jobID]
	msg := protocolFailure(4, `{"count":2}`)
	m.do(func() { m.recordFailureLocked(a, &msg) })
	if js.Covered != 4 {
		t.Errorf("covered = %d, want 4", js.Covered)
	}
	if got := string(js.Result.Bytes); got != "2" {
		t.Errorf("result = %q, want the checkpointed count 2", got)
	}
	if len(m.pending) != 1 {
		t.Fatalf("pending = %d", len(m.pending))
	}
	re := m.pending[0]
	if string(re.input) != "4\n5\n" || re.resume != nil || re.atomic {
		t.Errorf("requeued item = %+v", re)
	}
}

func TestRecordFailureMigrationPath(t *testing.T) {
	m := New(Config{})
	input := []byte("1 1\n1 2 3\n")
	a := openTestRange(t, m, tasks.Blur{}, input, true, 0)
	js := m.jobs[a.item.jobID]
	msg := protocolFailure(3, `{"row":0,"out":[]}`)
	m.do(func() { m.recordFailureLocked(a, &msg) })
	if js.Covered != 0 {
		t.Errorf("covered = %d, want 0 (no partial result possible)", js.Covered)
	}
	if len(m.pending) != 1 {
		t.Fatalf("pending = %d", len(m.pending))
	}
	re := m.pending[0]
	if re.resume == nil || re.resume.Offset != 3 || !re.atomic {
		t.Errorf("migrated item = %+v", re)
	}
	if string(re.input) != string(input) {
		t.Error("migration must keep the whole input")
	}
}

func TestRecordFailureNoCheckpoint(t *testing.T) {
	m := New(Config{})
	a := openTestRange(t, m, tasks.PrimeCount{}, []byte("2\n3\n"), false, 0)
	msg := protocolFailure(0, "")
	msg.Checkpoint = nil
	m.do(func() { m.recordFailureLocked(a, &msg) })
	if len(m.pending) != 1 {
		t.Fatalf("pending = %d", len(m.pending))
	}
	if m.pending[0].resume != nil {
		t.Error("no checkpoint should requeue fresh")
	}
}

// protocolFailure builds a worker failure report for recordFailureLocked tests.
func protocolFailure(offset int64, state string) protocol.Message {
	ck := &tasks.Checkpoint{Offset: offset}
	if state != "" {
		ck.State = []byte(state)
	}
	return protocol.Message{Type: protocol.TypeFailure, Checkpoint: ck, Error: "unplugged"}
}

// Property: for random breakable inputs and random schedule splits, the
// sliced partitions reassemble exactly to the original input, in slot
// order.
func TestSlicePartitionsReassemblyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 40; trial++ {
		input := tasks.GenIntegers(8+rng.Float64()*64, 1000000, rng)
		it := &workItem{jobID: 1, task: tasks.PrimeCount{}, input: input}
		nPhones := 1 + rng.Intn(5)
		nPieces := 1 + rng.Intn(4)
		totalKB := float64(len(input)) / 1024
		sizes := make([]float64, nPieces)
		rest := totalKB
		for k := 0; k < nPieces-1; k++ {
			sizes[k] = rest * rng.Float64() * 0.6
			rest -= sizes[k]
		}
		sizes[nPieces-1] = rest
		sched := &core.Schedule{PerPhone: make([][]core.Assignment, nPhones)}
		for k, s := range sizes {
			p := rng.Intn(nPhones)
			sched.PerPhone[p] = append(sched.PerPhone[p],
				core.Assignment{Phone: p, Job: 0, SizeKB: s})
			_ = k
		}
		plans, err := slicePartitions([]*workItem{it}, sched)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Reassemble in (phone, slot) order — the canonical enumeration
		// slicePartitions uses.
		var rejoined []byte
		for _, plan := range plans {
			for _, a := range plan {
				rejoined = append(rejoined, a.input...)
			}
		}
		// Partition order across phones is not the original byte order in
		// general, but every byte must be present exactly once. Compare
		// sorted content cheaply via total length + prime count.
		if len(rejoined) != len(input) {
			t.Fatalf("trial %d: reassembled %d bytes, want %d", trial, len(rejoined), len(input))
		}
		var ckA, ckB tasks.Checkpoint
		a, err := (tasks.PrimeCount{}).Process(context.Background(), input, &ckA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := (tasks.PrimeCount{}).Process(context.Background(), rejoined, &ckB)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("trial %d: content changed by slicing", trial)
		}
	}
}

// Every phone's partition cap is its RAM, and at most what one assign
// frame carries: a phone that claims more RAM gets the frame's bound, and
// so does one that claims none — no partition is ever cut that one frame
// cannot ship.
func TestBuildScheduleCapsPartitionsAtOneFrame(t *testing.T) {
	m := New(Config{})
	if _, err := m.Submit(tasks.PrimeCount{}, numberLines(1, 300), false); err != nil {
		t.Fatal(err)
	}
	var items []*workItem
	m.do(func() { items = m.takeLocked(true).items })
	est, err := predict.New(806, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := est.SetProfile("primecount", 0.01); err != nil {
		t.Fatal(err)
	}
	phones := []PhoneInfo{
		{ID: 0, Model: "big", CPUMHz: 806, RAMMB: 1 << 20, BMsPerKB: 1, Alive: true},
		{ID: 1, Model: "unstated", CPUMHz: 806, BMsPerKB: 1, Alive: true},
	}
	_, inst, err := m.buildSchedule(items, phones, est)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range inst.Phones {
		if want := float64(protocol.MaxAssignInput / 1024); p.RAMKB != want {
			t.Errorf("phone %d claiming %d MB RAM: cap %v KB, want one frame's %v KB", p.ID, phones[i].RAMMB, p.RAMKB, want)
		}
	}
}

// An input that must ship whole and is larger than one assign frame
// carries is refused at Submit: no round could ever place it. A breakable
// input of that size is taken, to be cut. The bytes are never touched.
func TestSubmitRefusesWholeInputOverOneFrame(t *testing.T) {
	m := New(Config{})
	input := make([]byte, protocol.MaxAssignInput+1)
	for _, tc := range []struct {
		name   string
		task   tasks.Task
		atomic bool
	}{
		{"atomic", tasks.PrimeCount{}, true},
		{"not breakable", tasks.Blur{}, false},
	} {
		if _, err := m.Submit(tc.task, input, tc.atomic); err == nil {
			t.Errorf("%s: a %d-byte input that ships whole was accepted", tc.name, len(input))
		}
	}
	if _, err := m.Submit(tasks.PrimeCount{}, input, false); err != nil {
		t.Errorf("a breakable %d-byte input was refused: %v", len(input), err)
	}
	if got := m.PendingItems(); got != 1 {
		t.Errorf("%d items pending, want the breakable one", got)
	}
}
