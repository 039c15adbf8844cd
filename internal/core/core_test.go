package core

import (
	"math"
	"math/rand"
	"testing"
)

// oneByOne builds the minimal instance: one phone, one job.
func oneByOne(b, c, execKB, inputKB float64, atomic bool) *Instance {
	return &Instance{
		Phones: []Phone{{ID: 0, BMsPerKB: b}},
		Jobs:   []Job{{ID: 0, Task: "t", ExecKB: execKB, InputKB: inputKB, Atomic: atomic}},
		C:      [][]float64{{c}},
	}
}

// randInstance generates a CWC-shaped random instance: b_i in [1,70] ms/KB
// (the paper's measured range), per-job base compute costs scaled by a
// per-phone speed factor, ~1/3 atomic jobs.
func randInstance(rng *rand.Rand, nPhones, nJobs int) *Instance {
	inst := &Instance{}
	speed := make([]float64, nPhones)
	for i := 0; i < nPhones; i++ {
		speed[i] = 0.5 + rng.Float64()*1.5
		inst.Phones = append(inst.Phones, Phone{ID: i, BMsPerKB: 1 + rng.Float64()*69})
	}
	baseC := make([]float64, nJobs)
	for j := 0; j < nJobs; j++ {
		baseC[j] = 2 + rng.Float64()*40
		inst.Jobs = append(inst.Jobs, Job{
			ID:      j,
			Task:    "t",
			ExecKB:  4 + rng.Float64()*16,
			InputKB: 10 + rng.Float64()*1500,
			Atomic:  rng.Float64() < 0.33,
		})
	}
	inst.C = make([][]float64, nPhones)
	for i := range inst.C {
		inst.C[i] = make([]float64, nJobs)
		for j := range inst.C[i] {
			inst.C[i][j] = baseC[j] / speed[i]
		}
	}
	return inst
}

func TestValidateCatchesBadInstances(t *testing.T) {
	good := oneByOne(2, 3, 10, 100, false)
	if err := good.Validate(); err != nil {
		t.Fatalf("good instance invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Instance)
	}{
		{"no phones", func(i *Instance) { i.Phones = nil }},
		{"no jobs", func(i *Instance) { i.Jobs = nil }},
		{"zero bandwidth", func(i *Instance) { i.Phones[0].BMsPerKB = 0 }},
		{"negative ram", func(i *Instance) { i.Phones[0].RAMKB = -1 }},
		{"zero input", func(i *Instance) { i.Jobs[0].InputKB = 0 }},
		{"negative exec", func(i *Instance) { i.Jobs[0].ExecKB = -1 }},
		{"c rows", func(i *Instance) { i.C = nil }},
		{"c cols", func(i *Instance) { i.C[0] = nil }},
		{"zero c", func(i *Instance) { i.C[0][0] = 0 }},
		{"nan c", func(i *Instance) { i.C[0][0] = math.NaN() }},
		{"dup phone", func(i *Instance) {
			i.Phones = append(i.Phones, Phone{ID: 0, BMsPerKB: 1})
			i.C = append(i.C, []float64{1})
		}},
		{"dup job", func(i *Instance) {
			i.Jobs = append(i.Jobs, Job{ID: 0, InputKB: 1})
			i.C[0] = append(i.C[0], 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := oneByOne(2, 3, 10, 100, false)
			tc.mut(inst)
			if err := inst.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

// TestValidateNamesFirstDuplicate: the error names the ID whose repeat
// comes first in instance order, not the smallest repeated ID.
func TestValidateNamesFirstDuplicate(t *testing.T) {
	inst := randInstance(rand.New(rand.NewSource(1)), 3, 5)
	for j, id := range []int{9, 4, 7, 9, 4} {
		inst.Jobs[j].ID = id
	}
	if err := inst.Validate(); err == nil || err.Error() != "core: duplicate job ID 9" {
		t.Errorf("jobs 9 4 7 9 4: got %v, want duplicate job ID 9", err)
	}
	for i, id := range []int{8, 2, 2} {
		inst.Phones[i].ID = id
	}
	if err := inst.Validate(); err == nil || err.Error() != "core: duplicate phone ID 2" {
		t.Errorf("phones 8 2 2: got %v, want duplicate phone ID 2", err)
	}
}

func TestCostEquationOne(t *testing.T) {
	inst := oneByOne(2, 3, 10, 100, false)
	// E*b + L*(b+c) = 10*2 + 100*(2+3) = 520.
	if got := inst.Cost(0, 0, 100, true); got != 520 {
		t.Errorf("cost with exec = %v, want 520", got)
	}
	if got := inst.Cost(0, 0, 100, false); got != 500 {
		t.Errorf("cost without exec = %v, want 500", got)
	}
}

func TestGreedySinglePhoneSingleJob(t *testing.T) {
	inst := oneByOne(2, 3, 10, 100, false)
	s, err := Greedy(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(inst); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Makespan-520) > 1e-6 {
		t.Errorf("makespan = %v, want 520", s.Makespan)
	}
	if len(s.PerPhone[0]) != 1 {
		t.Errorf("job split unnecessarily: %v", s.PerPhone[0])
	}
}

func TestGreedySplitsAcrossIdenticalPhones(t *testing.T) {
	// Two identical phones, one big breakable job: splitting halves the
	// makespan (plus one extra executable copy).
	inst := &Instance{
		Phones: []Phone{{ID: 0, BMsPerKB: 1}, {ID: 1, BMsPerKB: 1}},
		Jobs:   []Job{{ID: 0, Task: "t", ExecKB: 1, InputKB: 1000}},
		C:      [][]float64{{4}, {4}},
	}
	s, err := Greedy(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(inst); err != nil {
		t.Fatal(err)
	}
	// Whole on one phone: 1 + 1000*5 = 5001. Split: ~2501.
	if s.Makespan > 2700 {
		t.Errorf("makespan = %v, want ~2501 (split across phones)", s.Makespan)
	}
}

func TestGreedyAtomicNeverSplit(t *testing.T) {
	inst := &Instance{
		Phones: []Phone{{ID: 0, BMsPerKB: 1}, {ID: 1, BMsPerKB: 1}},
		Jobs: []Job{
			{ID: 0, Task: "t", ExecKB: 1, InputKB: 1000, Atomic: true},
			{ID: 1, Task: "t", ExecKB: 1, InputKB: 1000, Atomic: true},
		},
		C: [][]float64{{4, 4}, {4, 4}},
	}
	s, err := Greedy(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(inst); err != nil {
		t.Fatal(err)
	}
	// Two atomic jobs over two phones: one each.
	counts := s.PartitionCounts(2)
	if counts[0] != 1 || counts[1] != 1 {
		t.Errorf("partition counts = %v", counts)
	}
	if len(s.PerPhone[0]) != 1 || len(s.PerPhone[1]) != 1 {
		t.Errorf("atomic batch not spread: %v", s.PerPhone)
	}
}

func TestGreedyPrefersFastPhone(t *testing.T) {
	// One fast-everything phone vs one slow phone; small job goes to the
	// fast phone whole.
	inst := &Instance{
		Phones: []Phone{{ID: 0, BMsPerKB: 50}, {ID: 1, BMsPerKB: 1}},
		Jobs:   []Job{{ID: 0, Task: "t", ExecKB: 5, InputKB: 50}},
		C:      [][]float64{{40}, {2}},
	}
	s, err := Greedy(inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.PerPhone[1]) != 1 || len(s.PerPhone[0]) != 0 {
		t.Errorf("job not placed on the fast phone: %v", s.PerPhone)
	}
}

func TestGreedyRAMConstraint(t *testing.T) {
	inst := &Instance{
		Phones: []Phone{
			{ID: 0, BMsPerKB: 1, RAMKB: 100},
			{ID: 1, BMsPerKB: 1, RAMKB: 100},
		},
		Jobs: []Job{{ID: 0, Task: "t", ExecKB: 1, InputKB: 500}},
		C:    [][]float64{{2}, {2}},
	}
	s, err := Greedy(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(inst); err != nil {
		t.Fatalf("RAM-capped schedule invalid: %v", err)
	}
	for _, asgs := range s.PerPhone {
		for _, a := range asgs {
			if a.SizeKB > 100+1e-6 {
				t.Errorf("partition %v exceeds RAM cap", a.SizeKB)
			}
		}
	}
}

func TestGreedyAtomicExceedsAllRAM(t *testing.T) {
	inst := &Instance{
		Phones: []Phone{{ID: 0, BMsPerKB: 1, RAMKB: 10}},
		Jobs:   []Job{{ID: 0, Task: "t", ExecKB: 1, InputKB: 500, Atomic: true}},
		C:      [][]float64{{2}},
	}
	if _, err := Greedy(inst); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestGreedyDeterministic(t *testing.T) {
	inst := randInstance(rand.New(rand.NewSource(11)), 8, 40)
	a, err := Greedy(inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Greedy(inst)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("makespans differ: %v vs %v", a.Makespan, b.Makespan)
	}
	for i := range a.PerPhone {
		if len(a.PerPhone[i]) != len(b.PerPhone[i]) {
			t.Fatalf("phone %d assignment counts differ", i)
		}
		for k := range a.PerPhone[i] {
			if a.PerPhone[i][k] != b.PerPhone[i][k] {
				t.Fatalf("assignment %d/%d differs", i, k)
			}
		}
	}
}

func TestGreedyFixedCapacity(t *testing.T) {
	inst := randInstance(rand.New(rand.NewSource(3)), 5, 20)
	searched, err := Greedy(inst)
	if err != nil {
		t.Fatal(err)
	}
	// Packing at the loose upper bound must be feasible but (typically)
	// worse than the searched capacity.
	loose, err := GreedyOpt(inst, GreedyOptions{FixedCapacity: UpperBoundCapacity(inst)})
	if err != nil {
		t.Fatal(err)
	}
	if err := loose.Validate(inst); err != nil {
		t.Fatal(err)
	}
	if searched.Makespan > loose.Makespan+1e-6 {
		t.Errorf("binary search (%v) worse than loose capacity (%v)",
			searched.Makespan, loose.Makespan)
	}
	// An absurdly small capacity is infeasible.
	if _, err := GreedyOpt(inst, GreedyOptions{FixedCapacity: 0.001}); err != ErrInfeasible {
		t.Errorf("tiny capacity err = %v, want ErrInfeasible", err)
	}
}

func TestGreedyValidOverRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		nP := 2 + rng.Intn(10)
		nJ := 1 + rng.Intn(30)
		inst := randInstance(rng, nP, nJ)
		s, err := Greedy(inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.Validate(inst); err != nil {
			t.Fatalf("trial %d: invalid schedule: %v", trial, err)
		}
		// Makespan can never beat the LP-free lower bound.
		if lbm := LowerBoundMakespan(inst); s.Makespan < lbm-1e-6 {
			t.Fatalf("trial %d: makespan %v below lower bound %v", trial, s.Makespan, lbm)
		}
		if ub := UpperBoundCapacity(inst); s.Makespan > ub+1e-6 {
			t.Fatalf("trial %d: makespan %v above upper bound %v", trial, s.Makespan, ub)
		}
	}
}

func TestScheduleValidateCatchesCorruption(t *testing.T) {
	inst := randInstance(rand.New(rand.NewSource(1)), 3, 6)
	s, err := Greedy(inst)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(f func(*Schedule)) *Schedule {
		c := &Schedule{Makespan: s.Makespan, PerPhone: make([][]Assignment, len(s.PerPhone))}
		for i := range s.PerPhone {
			c.PerPhone[i] = append([]Assignment(nil), s.PerPhone[i]...)
		}
		f(c)
		return c
	}
	find := func(c *Schedule) (int, int) {
		for i := range c.PerPhone {
			if len(c.PerPhone[i]) > 0 {
				return i, 0
			}
		}
		panic("empty schedule")
	}

	t.Run("lost input", func(t *testing.T) {
		c := corrupt(func(c *Schedule) {
			i, k := find(c)
			c.PerPhone[i][k].SizeKB /= 2
		})
		if c.Validate(inst) == nil {
			t.Error("halved partition should fail validation")
		}
	})
	t.Run("wrong phone", func(t *testing.T) {
		c := corrupt(func(c *Schedule) {
			i, k := find(c)
			c.PerPhone[i][k].Phone = (i + 1) % len(c.PerPhone)
		})
		if c.Validate(inst) == nil {
			t.Error("mismatched phone index should fail validation")
		}
	})
	t.Run("wrong makespan", func(t *testing.T) {
		c := corrupt(func(c *Schedule) { c.Makespan *= 2 })
		if c.Validate(inst) == nil {
			t.Error("inflated makespan should fail validation")
		}
	})
	t.Run("bad job index", func(t *testing.T) {
		c := corrupt(func(c *Schedule) {
			i, k := find(c)
			c.PerPhone[i][k].Job = 999
		})
		if c.Validate(inst) == nil {
			t.Error("out-of-range job should fail validation")
		}
	})
	t.Run("phone count", func(t *testing.T) {
		c := corrupt(func(c *Schedule) { c.PerPhone = c.PerPhone[:1] })
		if c.Validate(inst) == nil {
			t.Error("truncated phone list should fail validation")
		}
	})
}

func TestPartitionCounts(t *testing.T) {
	s := &Schedule{PerPhone: [][]Assignment{
		{{Phone: 0, Job: 0, SizeKB: 10}, {Phone: 0, Job: 1, SizeKB: 5}},
		{{Phone: 1, Job: 1, SizeKB: 5}},
	}}
	counts := s.PartitionCounts(2)
	if counts[0] != 1 || counts[1] != 2 {
		t.Errorf("counts = %v", counts)
	}
}
