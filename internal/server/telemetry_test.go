package server

import (
	"strconv"
	"testing"
	"time"

	"cwc/internal/obs"
	"cwc/internal/protocol"
)

// TestIngestWorkerStatsMonotoneFolding covers the restart seam: a
// worker's piggybacked counters are cumulative per process, so a
// reconnect identity takeover restarts them from zero. The master must
// fold the dying incarnation's last snapshot into a base so the
// published per-phone series never regress.
func TestIngestWorkerStatsMonotoneFolding(t *testing.T) {
	m := New(Config{})
	const phone = 3

	get := func() protocol.WorkerStats {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.workerStats[phone].total()
	}

	// First incarnation counts up.
	m.ingestWorkerStats(phone, &protocol.WorkerStats{ExecMs: 100, Assignments: 2, CkptFrames: 1})
	m.ingestWorkerStats(phone, &protocol.WorkerStats{ExecMs: 250, Assignments: 5, CkptFrames: 3, TransferKB: 7})
	if got := get(); got.ExecMs != 250 || got.Assignments != 5 {
		t.Fatalf("pre-restart totals = %+v", got)
	}

	// Restart: the next snapshot regresses on every field. The published
	// totals must keep the 250ms/5 assignments and add the new process's.
	m.ingestWorkerStats(phone, &protocol.WorkerStats{ExecMs: 10, Assignments: 1})
	got := get()
	if got.ExecMs != 260 || got.Assignments != 6 || got.CkptFrames != 3 || got.TransferKB != 7 {
		t.Fatalf("post-restart totals = %+v, want fold of 250/5/3/7 + 10/1", got)
	}

	// The new incarnation keeps counting; no double-fold.
	m.ingestWorkerStats(phone, &protocol.WorkerStats{ExecMs: 40, Assignments: 2, ThrottlePauses: 1})
	got = get()
	if got.ExecMs != 290 || got.Assignments != 7 || got.ThrottlePauses != 1 {
		t.Fatalf("second-incarnation totals = %+v", got)
	}

	// A second restart folds again.
	m.ingestWorkerStats(phone, &protocol.WorkerStats{})
	m.ingestWorkerStats(phone, &protocol.WorkerStats{ExecMs: 5})
	got = get()
	if got.ExecMs != 295 || got.Assignments != 7 || got.CkptFrames != 3 {
		t.Fatalf("third-incarnation totals = %+v", got)
	}

	// The published gauges track the folded totals.
	if v := m.cfg.Metrics.Gauge("cwc_worker_exec_ms", "phone", strconv.Itoa(phone)).Value(); v != 295 {
		t.Fatalf("exec_ms gauge = %v, want 295", v)
	}
	if v := m.cfg.Metrics.Gauge("cwc_worker_assignments", "phone", strconv.Itoa(phone)).Value(); v != 7 {
		t.Fatalf("assignments gauge = %v, want 7", v)
	}
}

// TestFoldTelemetry exercises the master's telemetry frame fold: events
// land in the trace ring tagged with the originating phone, orphan
// spans are counted, unknown kinds survive version skew, and the
// worker-reported drop counter is published.
func TestFoldTelemetry(t *testing.T) {
	tracer := obs.NewTracer(64)
	m := New(Config{Tracer: tracer})
	const phone = 7

	// A known job whose span worker events should anchor to.
	m.mu.Lock()
	m.jobs[1] = &walJobRec{ID: 1}
	m.mu.Unlock()

	ps := &phoneState{info: PhoneInfo{ID: phone}}
	m.foldTelemetry(ps, &protocol.Message{
		Type:    protocol.TypeTelemetry,
		Dropped: 4,
		Events: []protocol.WorkerEvent{
			{TSMs: 1000, Kind: protocol.EventAssignRecv, Span: "j1", Job: 1, Partition: 0, Epoch: 1},
			{TSMs: 1001, Kind: protocol.EventExecStart, Span: "j1", Job: 1, Partition: 0, Epoch: 1},
			{TSMs: 1002, Kind: protocol.EventThrottlePause, Detail: "batt", Epoch: 1}, // phone-scoped: no span
			{TSMs: 1003, Kind: protocol.EventExecFinish, Span: "j999", Job: 999, Epoch: 1},
			{TSMs: 1004, Kind: protocol.EventKind("future_kind"), Span: "j1", Epoch: 1},
		},
	})

	evs := tracer.Span("j1")
	if len(evs) != 3 { // assign_recv, exec_start, future_kind
		t.Fatalf("span j1 folded %d events, want 3", len(evs))
	}
	for _, ev := range evs {
		if ev.Phone != phone || ev.Src != "worker" {
			t.Fatalf("folded event = %+v, want phone=%d src=worker", ev, phone)
		}
		if ev.Epoch != 1 {
			t.Fatalf("folded event epoch = %d, want the worker's mint epoch 1", ev.Epoch)
		}
	}

	r := m.cfg.Metrics
	if v := r.Counter("cwc_telemetry_events_total", "kind", "assign_recv").Value(); v != 1 {
		t.Fatalf("assign_recv counter = %d, want 1", v)
	}
	if v := r.Counter("cwc_telemetry_orphan_spans_total").Value(); v != 1 {
		t.Fatalf("orphan counter = %d, want 1 (the j999 exec_finish)", v)
	}
	if v := r.Counter("cwc_telemetry_unknown_total").Value(); v != 1 {
		t.Fatalf("unknown-kind counter = %d, want 1", v)
	}
	if v := r.Gauge("cwc_telemetry_dropped", "phone", strconv.Itoa(phone)).Value(); v != 4 {
		t.Fatalf("dropped gauge = %v, want 4", v)
	}
}

// TestTimelineMergesSides: jobTimeline interleaves master-side trace
// events with folded worker telemetry into one per-partition row, in
// time order, with job-wide milestones split out and every fencing
// epoch the events crossed listed.
func TestTimelineMergesSides(t *testing.T) {
	tracer := obs.NewTracer(64)
	m := New(Config{Tracer: tracer})
	m.mu.Lock()
	m.jobs[1] = &walJobRec{ID: 1}
	m.mu.Unlock()

	base := time.UnixMilli(5000)
	tracer.Record(obs.SpanEvent{TS: base, Span: "j1", Kind: obs.KindSubmit, Job: 1, Phone: -1, Epoch: 1})
	tracer.Record(obs.SpanEvent{TS: base.Add(10 * time.Millisecond), Span: "j1",
		Kind: obs.KindAssign, Job: 1, Partition: 1, Phone: 7, Epoch: 1})
	m.foldTelemetry(&phoneState{info: PhoneInfo{ID: 7}}, &protocol.Message{
		Type: protocol.TypeTelemetry,
		Events: []protocol.WorkerEvent{
			{TSMs: 5015, Kind: protocol.EventAssignRecv, Span: "j1", Job: 1, Partition: 1, Epoch: 1},
			{TSMs: 5020, Kind: protocol.EventExecFinish, Span: "j1", Job: 1, Partition: 1, Epoch: 2},
		},
	})
	tracer.Record(obs.SpanEvent{TS: base.Add(30 * time.Millisecond), Span: "j1",
		Kind: obs.KindResult, Job: 1, Partition: 1, Phone: 7, Epoch: 2})

	tl := m.jobTimeline(1)
	if tl == nil {
		t.Fatal("jobTimeline returned nil for a known job")
	}
	if tl.Span != "j1" || len(tl.JobEvents) != 1 || tl.JobEvents[0].Kind != obs.KindSubmit {
		t.Fatalf("job-level events = %+v", tl.JobEvents)
	}
	if len(tl.Partitions) != 1 || tl.Partitions[0].Partition != 1 {
		t.Fatalf("partitions = %+v", tl.Partitions)
	}
	evs := tl.Partitions[0].Events
	if len(evs) != 4 {
		t.Fatalf("partition 1 has %d events, want 4 (assign, assign_recv, exec_finish, result)", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS.Before(evs[i-1].TS) {
			t.Fatalf("events out of time order: %v after %v", evs[i], evs[i-1])
		}
	}
	wantSrc := []string{"", "worker", "worker", ""}
	for i, ev := range evs {
		if ev.Src != wantSrc[i] {
			t.Fatalf("event %d src = %q, want %q (both process sides interleaved)", i, ev.Src, wantSrc[i])
		}
	}
	if len(tl.Epochs) != 2 || tl.Epochs[0] != 1 || tl.Epochs[1] != 2 {
		t.Fatalf("epochs = %v, want [1 2]", tl.Epochs)
	}

	if m.jobTimeline(42) != nil {
		t.Fatal("unknown job should yield a nil timeline")
	}
}

// TestFoldTelemetryLazySpan: no job stores its span (a recovered one
// never had it minted by Submit); worker events carrying the
// deterministic "j<id>" span must still resolve as known.
func TestFoldTelemetryLazySpan(t *testing.T) {
	m := New(Config{Tracer: obs.NewTracer(16)})
	m.mu.Lock()
	m.jobs[2] = &walJobRec{ID: 2}
	m.mu.Unlock()

	ps := &phoneState{info: PhoneInfo{ID: 1}}
	m.foldTelemetry(ps, &protocol.Message{
		Type:   protocol.TypeTelemetry,
		Events: []protocol.WorkerEvent{{TSMs: 1, Kind: protocol.EventCkptFlush, Span: "j2", Job: 2}},
	})
	if v := m.cfg.Metrics.Counter("cwc_telemetry_orphan_spans_total").Value(); v != 0 {
		t.Fatalf("lazy-span event counted as orphan (counter = %d)", v)
	}
}

// TestFoldTelemetryOrphanSpans: only the canonical "j<id>" of a known
// job resolves; near misses that a lenient parse would map onto jobs 7
// and 12 count as orphans, as does an unknown ID.
func TestFoldTelemetryOrphanSpans(t *testing.T) {
	m := New(Config{Tracer: obs.NewTracer(16)})
	m.mu.Lock()
	m.jobs[7] = &walJobRec{ID: 7}
	m.jobs[12] = &walJobRec{ID: 12}
	m.mu.Unlock()

	ps := &phoneState{info: PhoneInfo{ID: 1}}
	orphans := m.cfg.Metrics.Counter("cwc_telemetry_orphan_spans_total")
	for _, tc := range []struct {
		span   string
		orphan bool
	}{
		{"j7", false}, {"j12", false},
		{"j007", true}, {"j12x", true}, {"j-1", true}, {"j+7", true},
		{"j", true}, {"7", true}, {"jj7", true}, {"j 7", true}, {"j999", true},
	} {
		before := orphans.Value()
		m.foldTelemetry(ps, &protocol.Message{
			Type:   protocol.TypeTelemetry,
			Events: []protocol.WorkerEvent{{TSMs: 1, Kind: protocol.EventExecStart, Span: tc.span}},
		})
		if got := orphans.Value()-before == 1; got != tc.orphan {
			t.Errorf("span %q: counted as orphan = %v, want %v", tc.span, got, tc.orphan)
		}
	}
}
