package tasks

import (
	"context"
	"sync/atomic"
)

// CheckpointSink receives periodic checkpoint snapshots while a task
// executes — checkpoint streaming. The paper only saves state on an
// *online* failure (the unplug handler ships a checkpoint with the
// failure report); a phone that dies silently loses its partition's
// entire progress. A sink closes that gap: the worker runtime attaches
// one per execution via WithCheckpointSink and the task's processing
// loop drives it through StreamCheckpoint at the same record-granularity
// points as its interruption checks, so even an offline failure loses at
// most one flush interval of work.
//
// A sink is single-use: it carries per-execution pacing state and must
// not be shared across executions.
type CheckpointSink struct {
	// EveryBytes flushes after this many input bytes have been processed
	// since the previous flush; 0 disables streaming.
	EveryBytes int64
	// Flush receives a private deep copy of the checkpoint. It runs on
	// the task's goroutine, so it should hand off quickly (the worker's
	// sink sends one frame and never blocks on the network round trip).
	Flush func(ck *Checkpoint)

	started    bool
	lastOffset int64
	forced     atomic.Bool
}

// Force makes the next StreamCheckpoint call flush regardless of the
// byte trigger — the proactive-drain path uses it to capture the
// freshest possible state before an anticipated disconnect. Unlike the
// rest of the sink it may be called from any goroutine.
func (s *CheckpointSink) Force() { s.forced.Store(true) }

// ckSinkKey is the context key carrying the sink.
type ckSinkKey struct{}

// WithCheckpointSink returns a context instructing tasks run under it to
// stream periodic checkpoints into s. A nil sink, a nil Flush, or a sink
// whose EveryBytes is not positive leaves the context unchanged.
func WithCheckpointSink(ctx context.Context, s *CheckpointSink) context.Context {
	if s == nil || s.Flush == nil || s.EveryBytes <= 0 {
		return ctx
	}
	return context.WithValue(ctx, ckSinkKey{}, s)
}

// StreamCheckpoint is the flush point task authors call from their
// processing loops, typically right next to the cancellation check:
// when ctx carries a due sink, ck.Offset is set to offset, save (if
// non-nil) serializes the accumulator into ck, and the sink receives a
// deep copy. Without a sink it costs one context lookup.
func StreamCheckpoint(ctx context.Context, offset int64, ck *Checkpoint, save func()) {
	sinkFrom(ctx).maybeFlush(offset, ck, save)
}

// sinkFrom extracts the context's sink, or nil.
func sinkFrom(ctx context.Context) *CheckpointSink {
	s, _ := ctx.Value(ckSinkKey{}).(*CheckpointSink)
	return s
}

// maybeFlush flushes through a possibly-nil sink when an interval has
// elapsed at the given offset.
func (s *CheckpointSink) maybeFlush(offset int64, ck *Checkpoint, save func()) {
	if s == nil || !s.due(offset) {
		return
	}
	ck.Offset = offset
	if save != nil {
		save()
	}
	s.lastOffset = offset
	s.Flush(ck.Clone())
}

// due reports whether a flush interval has elapsed at the given offset.
// The first call only anchors the interval: a resumed execution starts
// counting from its inherited offset instead of instantly re-streaming
// the checkpoint it was handed.
func (s *CheckpointSink) due(offset int64) bool {
	forced := s.forced.Swap(false)
	if !s.started {
		s.started = true
		s.lastOffset = offset
		return forced
	}
	return forced || offset-s.lastOffset >= s.EveryBytes
}
