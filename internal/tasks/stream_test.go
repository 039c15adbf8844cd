package tasks

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
)

func TestCheckpointClone(t *testing.T) {
	var nilCk *Checkpoint
	if nilCk.Clone() != nil {
		t.Error("nil checkpoint should clone to nil")
	}
	ck := &Checkpoint{Offset: 9, State: []byte("abc")}
	c := ck.Clone()
	if c.Offset != 9 || string(c.State) != "abc" {
		t.Fatalf("clone = %+v", c)
	}
	c.State[0] = 'Z'
	if string(ck.State) != "abc" {
		t.Error("clone shares the state buffer with the original")
	}
}

func TestSinkStreamsDuringPrimeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	input := GenIntegers(16, 100000, rng) // 16 KB, ~2800 lines
	var flushed []*Checkpoint
	sink := &CheckpointSink{
		EveryBytes: 2 * 1024,
		Flush:      func(ck *Checkpoint) { flushed = append(flushed, ck) },
	}
	ctx := WithCheckpointSink(context.Background(), sink)
	var ck Checkpoint
	want, err := (PrimeCount{}).Process(ctx, input, &ck)
	if err != nil {
		t.Fatal(err)
	}
	if len(flushed) < 3 {
		t.Fatalf("only %d flushes over 16 KB at a 2 KB interval", len(flushed))
	}
	last := int64(0)
	for i, f := range flushed {
		if f.Offset <= last || f.Offset > int64(len(input)) {
			t.Fatalf("flush %d offset %d not in (%d, %d]", i, f.Offset, last, len(input))
		}
		last = f.Offset
		// Every flushed checkpoint is independently resumable: finishing
		// the computation from it reproduces the full answer.
		resume := f.Clone()
		got, err := (PrimeCount{}).Process(context.Background(), input, resume)
		if err != nil {
			t.Fatalf("resuming from flush %d: %v", i, err)
		}
		if string(got) != string(want) {
			t.Errorf("resume from flush %d (offset %d) = %s, want %s", i, f.Offset, got, want)
		}
	}
}

func TestSinkFlushesAreDeepCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	input := GenIntegers(8, 100000, rng)
	var flushed []*Checkpoint
	sink := &CheckpointSink{
		EveryBytes: 2 * 1024,
		Flush:      func(ck *Checkpoint) { flushed = append(flushed, ck) },
	}
	ctx := WithCheckpointSink(context.Background(), sink)
	var ck Checkpoint
	if _, err := (PrimeCount{}).Process(ctx, input, &ck); err != nil {
		t.Fatal(err)
	}
	if len(flushed) < 2 {
		t.Fatalf("only %d flushes", len(flushed))
	}
	// Counts must be strictly increasing across snapshots: if the task's
	// later progress mutated an earlier flush's state, they would all
	// show the final count.
	lastCount := int64(-1)
	for i, f := range flushed {
		var st struct {
			Count int64 `json:"count"`
		}
		if err := json.Unmarshal(f.State, &st); err != nil {
			t.Fatalf("flush %d state: %v", i, err)
		}
		if st.Count <= lastCount {
			t.Errorf("flush %d count %d <= previous %d: snapshots share state", i, st.Count, lastCount)
		}
		lastCount = st.Count
	}
}

func TestSinkFirstCallAnchorsOnly(t *testing.T) {
	// A resumed execution must not instantly re-stream the checkpoint it
	// was handed: the first due() call anchors the interval at the resume
	// offset.
	flushes := 0
	sink := &CheckpointSink{
		EveryBytes: 100,
		Flush:      func(*Checkpoint) { flushes++ },
	}
	ctx := WithCheckpointSink(context.Background(), sink)
	ck := &Checkpoint{Offset: 5000}
	StreamCheckpoint(ctx, 5000, ck, nil)
	StreamCheckpoint(ctx, 5050, ck, nil)
	if flushes != 0 {
		t.Fatalf("%d flushes before a full interval elapsed", flushes)
	}
	StreamCheckpoint(ctx, 5100, ck, nil)
	if flushes != 1 {
		t.Fatalf("flushes = %d after a full interval, want 1", flushes)
	}
	// The interval re-anchors at the flush offset.
	StreamCheckpoint(ctx, 5150, ck, nil)
	if flushes != 1 {
		t.Fatalf("flushes = %d mid-interval, want 1", flushes)
	}
}

func TestWithCheckpointSinkNoops(t *testing.T) {
	base := context.Background()
	for name, s := range map[string]*CheckpointSink{
		"nil sink":     nil,
		"nil flush":    {EveryBytes: 1},
		"no triggers":  {Flush: func(*Checkpoint) {}},
		"neg triggers": {EveryBytes: -1, Flush: func(*Checkpoint) {}},
	} {
		if got := WithCheckpointSink(base, s); got != base {
			t.Errorf("%s: context was wrapped", name)
		}
	}
	// And a sink-less context streams nothing, cheaply.
	StreamCheckpoint(base, 100, &Checkpoint{}, nil)
}

func TestSinkStreamsDuringBlur(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	img, err := GenImageKB(32, rng)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	sink := &CheckpointSink{
		EveryBytes: 4 * 1024,
		Flush:      func(ck *Checkpoint) { offsets = append(offsets, ck.Offset) },
	}
	ctx := WithCheckpointSink(context.Background(), sink)
	var ck Checkpoint
	want, err := (Blur{}).Process(ctx, img, &ck)
	if err != nil {
		t.Fatal(err)
	}
	if len(offsets) == 0 {
		t.Fatal("blur never streamed a checkpoint")
	}
	for i, off := range offsets {
		if off <= 0 || off > int64(len(img)) {
			t.Errorf("flush %d offset %d out of range", i, off)
		}
	}
	// Sanity: a sink-less run produces the same output.
	var ck2 Checkpoint
	plain, err := (Blur{}).Process(context.Background(), img, &ck2)
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != string(want) {
		t.Error("streaming changed the blur output")
	}
}
