package server

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"cwc/internal/obs"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
)

// checkpointThenResult serves every assignment on conn the way a worker
// with checkpoint streaming does: one streamed checkpoint after the
// first line, then the result.
func checkpointThenResult(conn *protocol.Conn) {
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		if msg.Type != protocol.TypeAssign {
			continue // pings and checkpoint acks
		}
		task, err := tasks.New(msg.Task, msg.Params)
		if err != nil {
			continue
		}
		ck := &tasks.Checkpoint{}
		if _, err := task.Process(context.Background(), msg.Input[:bytes.IndexByte(msg.Input, '\n')+1], ck); err != nil {
			continue
		}
		_ = conn.Send(&protocol.Message{Type: protocol.TypeCheckpoint,
			JobID: msg.JobID, Partition: msg.Partition, Attempt: msg.Attempt,
			Checkpoint: ck, Digest: ck.Digest()})
		res, err := task.Process(context.Background(), msg.Input, &tasks.Checkpoint{})
		if err != nil {
			continue
		}
		_ = conn.Send(&protocol.Message{Type: protocol.TypeResult,
			JobID: msg.JobID, Partition: msg.Partition, Attempt: msg.Attempt,
			Result: res, Digest: tasks.Digest(res), ExecMs: 1, ProcessedKB: float64(len(msg.Input)) / 1024})
	}
}

// TestWorkerRestartNeverRegressesMasterCounters: a phone's worker process
// restarts and takes its identity back. What the admin plane publishes
// about the phone's work is counted by the master, one event at a time,
// so the restart can move no series backwards and loses nothing: the
// new process's drop report adds to the old one's.
func TestWorkerRestartNeverRegressesMasterCounters(t *testing.T) {
	m := startMaster(t, Config{})
	r := m.cfg.Metrics
	names := []string{"cwc_results_total", "cwc_exec_ms_count", "cwc_checkpoint_frames_total", "cwc_telemetry_dropped_total"}
	read := func() []int64 {
		return []int64{r.Counter(names[0]).Value(), r.Histogram("cwc_exec_ms").Count(),
			r.Counter(names[2]).Value(), r.Counter(names[3]).Value()}
	}
	last := read()
	// settle waits until the telemetry frames sent so far are folded, then
	// checks that no series moved backwards since the last stage.
	settle := func(stage string, dropped int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for read()[3] < dropped && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		now := read()
		for i, name := range names {
			if now[i] < last[i] {
				t.Errorf("%s: %s went from %d to %d", stage, name, last[i], now[i])
			}
		}
		if now[3] != dropped {
			t.Fatalf("%s: cwc_telemetry_dropped_total = %d, want %d", stage, now[3], dropped)
		}
		last = now
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	round := func(stage string) {
		t.Helper()
		if _, err := m.Submit(tasks.PrimeCount{}, []byte("2\n3\n4\n5\n"), false); err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunRound(ctx); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	telemetry := func(c *protocol.Conn, dropped int64) {
		t.Helper()
		if err := c.Send(&protocol.Message{Type: protocol.TypeTelemetry, Dropped: dropped,
			Events: []protocol.WorkerEvent{{TSMs: 1, Kind: protocol.EventThrottlePause}}}); err != nil {
			t.Fatal(err)
		}
	}

	// The old process: results, streamed checkpoints, and 5 dropped events.
	old := dialFake(t, m, "HTC G2", 806)
	go checkpointThenResult(old.conn)
	round("old process")
	telemetry(old.conn, 5)
	settle("old process", 5)
	if last[0] == 0 || last[1] == 0 || last[2] == 0 {
		t.Fatalf("old process left %v = %v; want every series counted", names, last)
	}

	// The new process rejoins under the same ID and model; its counts
	// start from zero, and it reports 2 dropped events of its own.
	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fresh := protocol.NewConn(raw)
	defer fresh.Close()
	if err := fresh.Send(&protocol.Message{Type: protocol.TypeHello, Model: "HTC G2",
		CPUMHz: 806, RAMMB: 512, Rejoin: true, PhoneID: old.id}); err != nil {
		t.Fatal(err)
	}
	_ = fresh.SetReadDeadline(time.Now().Add(10 * time.Second))
	if w, err := fresh.Recv(); err != nil || w.Type != protocol.TypeWelcome || w.PhoneID != old.id {
		t.Fatalf("rejoin welcome = %+v, %v; want phone %d back", w, err, old.id)
	}
	_ = fresh.SetReadDeadline(time.Time{})
	telemetry(fresh, 2)
	settle("rejoin", 7)
	go checkpointThenResult(fresh)
	before := last[0]
	round("new process")
	settle("new process", 7)
	if last[0] <= before {
		t.Errorf("the new process's results were not counted: cwc_results_total stayed %d", last[0])
	}
}

// TestFoldTelemetry exercises the master's telemetry frame fold: events
// land in the trace ring tagged with the originating phone, orphan
// spans are counted, unknown kinds survive version skew, and the
// worker-reported drops are added to the fleet-wide counter.
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
	if v := r.Counter("cwc_telemetry_dropped_total").Value(); v != 4 {
		t.Fatalf("dropped counter = %d, want 4", v)
	}

	// From the wire, the decoder refuses a kind outside protocol.EventCodes,
	// so the only unknown kind that arrives is none at all: an event with
	// no kind field. It folds as unknown, under kind="other".
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		_ = protocol.NewConn(client).Send(&protocol.Message{Type: protocol.TypeTelemetry,
			Events: []protocol.WorkerEvent{{TSMs: 1005, Span: "j1", Epoch: 1}}})
	}()
	msg, err := protocol.NewConn(server).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Events) != 1 || msg.Events[0].Kind != "" {
		t.Fatalf("decoded events = %+v, want one with no kind", msg.Events)
	}
	m.foldTelemetry(ps, msg)
	if v := r.Counter("cwc_telemetry_unknown_total").Value(); v != 2 {
		t.Fatalf("unknown-kind counter = %d, want 2 (future_kind and the kind-less event)", v)
	}
	if v := r.Counter("cwc_telemetry_events_total", "kind", "other").Value(); v != 2 {
		t.Fatalf(`kind="other" counter = %d, want 2`, v)
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
