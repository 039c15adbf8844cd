package core

import (
	"math/rand"
	"testing"
)

func benchInstance(nPhones, nJobs int) *Instance {
	return randInstance(rand.New(rand.NewSource(1)), nPhones, nJobs)
}

func BenchmarkGreedySmall(b *testing.B) {
	inst := benchInstance(6, 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyPaperSize(b *testing.B) {
	inst := benchInstance(18, 150)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyLarge(b *testing.B) {
	inst := benchInstance(50, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyWide is the benchmark's wide-fleet round: 128 phones,
// 512 breakable jobs of about 4 KB.
func BenchmarkGreedyWide(b *testing.B) {
	inst := wideInstance(rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSinglePack(b *testing.B) {
	inst := benchInstance(18, 150)
	cap := UpperBoundCapacity(inst)
	for i := 0; i < b.N; i++ {
		if _, ok := newPacker(inst).packWithCapacity(cap); !ok {
			b.Fatal("infeasible at upper bound")
		}
	}
}

func BenchmarkEqualSplit(b *testing.B) {
	inst := benchInstance(18, 150)
	for i := 0; i < b.N; i++ {
		if _, err := EqualSplit(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRelaxedLowerBound(b *testing.B) {
	inst := benchInstance(10, 60)
	for i := 0; i < b.N; i++ {
		if _, err := RelaxedLowerBound(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleValidate(b *testing.B) {
	inst := benchInstance(18, 150)
	s, err := Greedy(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Validate(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImprove(b *testing.B) {
	inst := benchInstance(18, 150)
	sched, err := Greedy(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Improve(inst, sched, 100)
	}
}
