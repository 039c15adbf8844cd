package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"cwc/internal/core"
	"cwc/internal/expt"
)

// TestGreedyMatchesReferenceOnPaperInstance runs the whole capacity
// search, not one pack, on the paper's 18-phone, 150-task instance: the
// schedule EXPERIMENTS.md's numbers come from must be the one the
// reference packer finds.
func TestGreedyMatchesReferenceOnPaperInstance(t *testing.T) {
	for _, seed := range []int64{1, 2012} {
		rng := rand.New(rand.NewSource(seed))
		tb, err := expt.NewTestbed(rng)
		if err != nil {
			t.Fatal(err)
		}
		inst := tb.Instance(expt.PaperWorkload(rng, 1))
		got, err := core.Greedy(inst)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.RefGreedy(inst)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.PerPhone, ref.PerPhone) || got.Makespan != ref.Makespan {
			t.Errorf("seed %d: Greedy (makespan %v) differs from the reference search (makespan %v)",
				seed, got.Makespan, ref.Makespan)
		}
	}
}
