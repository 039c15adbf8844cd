package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Shapes the differential tests draw instances from. Each is applied on
// top of randInstance's mixed fleet.
const (
	shapeMixed     = iota // a third atomic, 10–1510 KB jobs, no caps
	shapeRAM              // RAM caps on half the phones
	shapeWindows          // availability windows on half the phones
	shapeAtomic           // every job atomic
	shapeBreakable        // every job breakable
	shapeSmall            // 0.2–6 KB breakable jobs: minUnit is often the whole remainder
	shapeSmallCaps        // shapeSmall with sub-unit RAM caps and windows
	shapeDupKeys          // groups of jobs with equal sort keys
	numShapes
)

func shapedInstance(rng *rand.Rand, nPhones, nJobs, shape int) *Instance {
	inst := randInstance(rng, nPhones, nJobs)
	small := func() {
		for j := range inst.Jobs {
			inst.Jobs[j].InputKB = 0.2 + rng.Float64()*5.8
			inst.Jobs[j].Atomic = false
		}
	}
	windows := func() {
		lb := LowerBoundMakespan(inst)
		for i := range inst.Phones {
			if rng.Intn(2) == 0 {
				inst.Phones[i].AvailMs = lb * (0.3 + rng.Float64()*3)
			}
		}
	}
	switch shape {
	case shapeRAM:
		for i := range inst.Phones {
			if rng.Intn(2) == 0 {
				inst.Phones[i].RAMKB = 40 + rng.Float64()*900
			}
		}
	case shapeWindows:
		windows()
	case shapeAtomic, shapeBreakable:
		for j := range inst.Jobs {
			inst.Jobs[j].Atomic = shape == shapeAtomic
		}
	case shapeSmall:
		small()
	case shapeSmallCaps:
		small()
		for i := range inst.Phones {
			if rng.Intn(2) == 0 {
				inst.Phones[i].RAMKB = 0.3 + rng.Float64()*3
			}
		}
		windows()
	case shapeDupKeys:
		// Jobs in a group share input size and cost column, so L's order
		// among them rests on the job-ID tie-break alone.
		for j := range inst.Jobs {
			g := j - j%4
			inst.Jobs[j].InputKB = inst.Jobs[g].InputKB
			for i := range inst.C {
				inst.C[i][j] = inst.C[i][g]
			}
		}
	}
	return inst
}

// checkPackerAgainstReference packs one seeded instance at capacities
// from hopeless to loose, in shuffled order through one reused packer,
// and requires the reference packer's verdict and schedule at each. It
// returns how many of the packings were feasible.
func checkPackerAgainstReference(t *testing.T, seed int64, nPhones, nJobs, shape int) (feasible, total int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inst := shapedInstance(rng, nPhones, nJobs, shape)
	if err := inst.Validate(); err != nil {
		t.Fatalf("seed %d: generated instance invalid: %v", seed, err)
	}
	lo, hi := 0.2*LowerBoundMakespan(inst), 1.05*UpperBoundCapacity(inst)
	const steps = 14
	caps := make([]float64, steps)
	for k := range caps {
		caps[k] = lo * math.Pow(hi/lo, float64(k)/(steps-1))
	}
	rng.Shuffle(len(caps), func(a, b int) { caps[a], caps[b] = caps[b], caps[a] })

	p := newPacker(inst)
	for _, c := range caps {
		got, ok := p.packWithCapacity(c)
		ref, _, refOK := refPackWithCapacity(inst, c)
		if ok != refOK {
			t.Fatalf("seed %d %dx%d shape %d cap %v: feasible = %v, reference says %v",
				seed, nPhones, nJobs, shape, c, ok, refOK)
		}
		if !ok {
			continue
		}
		feasible++
		if !reflect.DeepEqual(got.PerPhone, ref.PerPhone) {
			t.Fatalf("seed %d %dx%d shape %d cap %v: schedule differs from reference",
				seed, nPhones, nJobs, shape, c)
		}
		if got.Makespan != ref.Makespan {
			t.Fatalf("seed %d %dx%d shape %d cap %v: makespan %v, reference %v",
				seed, nPhones, nJobs, shape, c, got.Makespan, ref.Makespan)
		}
		// The reference counts every re-ask of a rejected placement, so
		// only zero-ness and the upper bound carry over.
		if (got.Vetoed == 0) != (ref.Vetoed == 0) || got.Vetoed > ref.Vetoed {
			t.Fatalf("seed %d %dx%d shape %d cap %v: vetoed %d, reference %d",
				seed, nPhones, nJobs, shape, c, got.Vetoed, ref.Vetoed)
		}
	}
	return feasible, len(caps)
}

// TestPackerMatchesReference is the differential oracle: the packer that
// remembers rejections must decide exactly as the one that re-asks.
func TestPackerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	feasible, total := 0, 0
	for n := 0; n < 80*numShapes; n++ {
		f, c := checkPackerAgainstReference(t, rng.Int63(), 1+rng.Intn(32), 1+rng.Intn(120), n%numShapes)
		feasible += f
		total += c
	}
	t.Logf("%d packings compared, %d feasible", total, feasible)
	if feasible < 3000 || total-feasible < 1000 {
		t.Errorf("compared %d feasible and %d infeasible packings, want at least 3000 and 1000",
			feasible, total-feasible)
	}
}

func FuzzPackerMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(15))
	for n := 0; n < 2*numShapes; n++ {
		f.Add(rng.Int63(), uint8(rng.Intn(32)), uint8(rng.Intn(120)), uint8(n))
	}
	f.Fuzz(func(t *testing.T, seed int64, phones, jobs, shape uint8) {
		checkPackerAgainstReference(t, seed, 1+int(phones%32), 1+int(jobs%120), int(shape%numShapes))
	})
}

// wideInstance is shaped like the benchmark's wide-fleet round: 128
// phones cycling an 18-phone testbed, 512 breakable jobs of 2–6 KB of one
// task.
func wideInstance(rng *rand.Rand) *Instance {
	const phones, jobs, testbed = 128, 512, 18
	b, speed := make([]float64, testbed), make([]float64, testbed)
	for k := range b {
		b[k], speed[k] = 1+rng.Float64()*69, 0.5+rng.Float64()*1.5
	}
	inst := &Instance{C: make([][]float64, phones)}
	for j := 0; j < jobs; j++ {
		inst.Jobs = append(inst.Jobs, Job{ID: j, Task: "wordcount", ExecKB: 12, InputKB: 2 + rng.Float64()*4})
	}
	for i := 0; i < phones; i++ {
		inst.Phones = append(inst.Phones, Phone{ID: i, BMsPerKB: b[i%testbed]})
		inst.C[i] = make([]float64, jobs)
		for j := range inst.C[i] {
			inst.C[i][j] = 8 / speed[i%testbed]
		}
	}
	return inst
}

// TestPackerFitsCount guards the packer's complexity with a count that
// cannot flake: fits evaluations per packWithCapacity over the capacities
// Greedy's search visits on a wide-fleet-shaped instance.
func TestPackerFitsCount(t *testing.T) {
	inst := wideInstance(rand.New(rand.NewSource(2012)))
	J, P := len(inst.Jobs), len(inst.Phones)
	// Measured on this instance: the costliest capacity of the search
	// takes 35 366 evaluations, 0.108·J·(J+P); the bound doubles that.
	// The reference packer's costliest takes over 1.5·J·(J+P).
	const k = 0.22
	bound := int(k * float64(J*(J+P)))

	p := newPacker(inst)
	worst, sum, refSum, packs := 0, 0, 0, 0
	_, err := refSearch(inst, func(cap float64) (*Schedule, bool) {
		before := p.fitsCalls
		got, ok := p.packWithCapacity(cap)
		n := p.fitsCalls - before
		ref, refN, refOK := refPackWithCapacity(inst, cap)
		if ok != refOK || (ok && !reflect.DeepEqual(got.PerPhone, ref.PerPhone)) {
			t.Fatalf("cap %v: packing differs from reference", cap)
		}
		if n > worst {
			worst = n
		}
		sum, refSum, packs = sum+n, refSum+refN, packs+1
		return got, ok
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d packs: worst %d fits evaluations (%.3f·J·(J+P)), %d in all, reference %d (%.1fx)",
		packs, worst, float64(worst)/float64(J*(J+P)), sum, refSum, float64(refSum)/float64(sum))
	if worst > bound {
		t.Errorf("a pack made %d fits evaluations, bound %d = %v·J·(J+P)", worst, bound, k)
	}
	if refSum < 10*sum {
		t.Errorf("reference made %d fits evaluations to the packer's %d, want at least 10x", refSum, sum)
	}
}

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// checkGreedyAgainstReference runs the whole capacity search on the
// instance and requires the reference search's verdict and schedule.
func checkGreedyAgainstReference(t *testing.T, name string, inst *Instance) {
	t.Helper()
	got, err := Greedy(inst)
	ref, refErr := RefGreedy(inst)
	if err != refErr {
		t.Fatalf("%s: error %v, reference %v", name, err, refErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got.PerPhone, ref.PerPhone) {
		t.Fatalf("%s: schedule differs from the reference search's", name)
	}
	if got.Makespan != ref.Makespan {
		t.Fatalf("%s: makespan %v, reference %v", name, got.Makespan, ref.Makespan)
	}
	if (got.Vetoed == 0) != (ref.Vetoed == 0) || got.Vetoed > ref.Vetoed {
		t.Fatalf("%s: vetoed %d, reference %d", name, got.Vetoed, ref.Vetoed)
	}
	if err := got.Validate(inst); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestGreedyMatchesReferenceSearch is the differential oracle for the
// search as a whole: which packing it keeps, the bracket it narrows with
// that packing's makespan, and the schedule it copies out. Instances of
// different shapes and sizes alternate, so scratch a pooled packer keeps
// from one search must not leak into the next.
func TestGreedyMatchesReferenceSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	checkGreedyAgainstReference(t, "wide", wideInstance(rng))
	checkGreedyAgainstReference(t, "3x7", shapedInstance(rng, 3, 7, shapeMixed))
	checkGreedyAgainstReference(t, "32x120", shapedInstance(rng, 32, 120, shapeWindows))
	checkGreedyAgainstReference(t, "wide again", wideInstance(rng))
	for n := 0; n < 40*numShapes; n++ {
		seed := rng.Int63()
		r := rand.New(rand.NewSource(seed))
		phones, jobs, shape := 1+r.Intn(32), 1+r.Intn(120), n%numShapes
		checkGreedyAgainstReference(t, fmt.Sprintf("seed %d %dx%d shape %d", seed, phones, jobs, shape),
			shapedInstance(r, phones, jobs, shape))
	}
}

// TestGreedySearchAllocs holds the search to allocating its answer: with
// the packer's scratch reused from the previous search, a wide-fleet
// round allocates a handful of times, not once per list it grows.
func TestGreedySearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	inst := wideInstance(rand.New(rand.NewSource(1)))
	if _, err := Greedy(inst); err != nil { // warm-up: the pool now holds a packer this wide
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Greedy(inst); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Greedy on a %dx%d instance: %v allocations", len(inst.Phones), len(inst.Jobs), allocs)
	if allocs > 16 {
		t.Errorf("Greedy allocated %v times per search, budget 16", allocs)
	}
}
