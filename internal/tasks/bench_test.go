package tasks

import (
	"context"
	"math/rand"
	"testing"
)

// TestKernelsDoNotAllocatePerByte: the text kernels scan their input in
// place. Word counting allocates a fixed handful of times however long
// the text, and a blur allocates as often on a 64 KB image as on a 16 KB
// one (its buffers are sized once, from the header).
func TestKernelsDoNotAllocatePerByte(t *testing.T) {
	text := GenText(256, rand.New(rand.NewSource(2)))
	if allocs := testing.AllocsPerRun(10, func() {
		var ck Checkpoint
		if _, err := (WordCount{Word: "sale"}).Process(context.Background(), text, &ck); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Errorf("WordCount.Process over %d bytes allocates %v times, want at most 4", len(text), allocs)
	}

	blurAllocs := func(kb float64) float64 {
		img, err := GenImageKB(kb, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			var ck Checkpoint
			if _, err := (Blur{}).Process(context.Background(), img, &ck); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := blurAllocs(16), blurAllocs(64); small != large {
		t.Errorf("Blur.Process allocates %v times on a 16 KB image and %v on a 64 KB one, want the same", small, large)
	}
}

func BenchmarkPrimeCountProcess(b *testing.B) {
	input := GenIntegers(256, 1000000, rand.New(rand.NewSource(1)))
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ck Checkpoint
		if _, err := (PrimeCount{}).Process(context.Background(), input, &ck); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWordCountProcess(b *testing.B) {
	input := GenText(256, rand.New(rand.NewSource(2)))
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ck Checkpoint
		if _, err := (WordCount{Word: "sale"}).Process(context.Background(), input, &ck); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxIntProcess(b *testing.B) {
	input := GenIntegers(256, 1000000, rand.New(rand.NewSource(3)))
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ck Checkpoint
		if _, err := (MaxInt{}).Process(context.Background(), input, &ck); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlurProcess(b *testing.B) {
	input, err := GenImageKB(64, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ck Checkpoint
		if _, err := (Blur{}).Process(context.Background(), input, &ck); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSplit(b *testing.B) {
	input := GenIntegers(1024, 1000000, rand.New(rand.NewSource(5)))
	sizes := []float64{100, 300, 200, 424}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (PrimeCount{}).Split(input, sizes); err != nil {
			b.Fatal(err)
		}
	}
}
