package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span event kinds recorded by the master over a partition's life. A
// span is minted per job at Submit and carried in protocol frames, so
// every event of every partition of a submission shares one span ID:
//
//	submit → round → assign → (checkpoint)* → result | failure
//	       → requeue/speculate/abandon/deadletter → ... → aggregate
const (
	KindSubmit     = "submit"
	KindRound      = "round"
	KindAssign     = "assign"
	KindCheckpoint = "checkpoint"
	KindResult     = "result"
	KindFailure    = "failure"
	KindRequeue    = "requeue"
	KindSpeculate  = "speculate"
	KindStraggler  = "straggler"
	KindDeadLetter = "deadletter"
	KindAggregate  = "aggregate"
	KindPromote    = "promote"
	// KindLog is a log line (in Detail) shadowed into a flight-recorder
	// ring beside the span events; it belongs to no job.
	KindLog = "log"
)

// SpanEvent is one entry in a task-lifecycle trace.
type SpanEvent struct {
	TS   time.Time `json:"ts"`
	Span string    `json:"span"`
	Kind string    `json:"kind"`
	// Job is the submission the event belongs to; Partition and Key
	// identify the byte range where the event is range-scoped (assign,
	// checkpoint, result, ...). Phone is -1 when no phone is involved.
	Job       int     `json:"job"`
	Partition int     `json:"partition"`
	Key       int64   `json:"key,omitempty"`
	Phone     int     `json:"phone"`
	Bytes     int64   `json:"bytes,omitempty"`
	Ms        float64 `json:"ms,omitempty"`
	Detail    string  `json:"detail,omitempty"`
	// Src names the process side that minted the event: "" or "master"
	// for master-side events, "worker" for events folded out of
	// telemetry frames. Epoch is the fencing regime the event was
	// minted under (0: replication untracked), so a timeline assembled
	// across a standby promotion keeps the regime boundary visible.
	Src   string `json:"src,omitempty"`
	Epoch int64  `json:"epoch,omitempty"`
}

// Tracer records span events into a bounded in-memory ring and,
// optionally, an append-only JSONL sink. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops), so callers can
// thread a tracer through unconditionally.
//
// A second Tracer is the black-box flight recorder: fed every event of
// the first by SetTee(recorder.Record) and every log line by
// Logger.SetTap(recorder.Log), it is dumped as JSONL when the process
// dies messily (panic, SIGQUIT) or on demand (/debug/blackbox). By the
// time you know you needed -log-level debug the incident is over; the
// recorder was running anyway.
type Tracer struct {
	mu    sync.Mutex
	ring  []SpanEvent   // guarded by mu
	next  int           // guarded by mu
	total int64         // guarded by mu
	enc   *json.Encoder // guarded by mu
	epoch atomic.Int64
	tee   atomic.Pointer[func(SpanEvent)]
}

// NewTracer returns a tracer whose ring keeps the last ringSize events
// (minimum 16).
func NewTracer(ringSize int) *Tracer {
	if ringSize < 16 {
		ringSize = 16
	}
	return &Tracer{ring: make([]SpanEvent, 0, ringSize)}
}

// SetSink attaches a JSONL writer: every subsequent event is encoded as
// one JSON line. Pass nil to detach. The tracer serializes writes; the
// writer need not be concurrency-safe.
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if w == nil {
		t.enc = nil
		return
	}
	t.enc = json.NewEncoder(w)
}

// SetEpoch stamps every subsequently recorded event that does not carry
// its own epoch with e. The master calls this at WAL recovery and on
// every BumpEpoch, so master-side events are regime-annotated without
// touching each Record site.
func (t *Tracer) SetEpoch(e int64) {
	if t == nil {
		return
	}
	t.epoch.Store(e)
}

// SetTee attaches a callback invoked (outside the ring lock) with every
// recorded event — the hook a black-box recorder uses to shadow the
// trace stream. Pass nil to detach.
func (t *Tracer) SetTee(fn func(SpanEvent)) {
	if t == nil {
		return
	}
	if fn == nil {
		t.tee.Store(nil)
		return
	}
	t.tee.Store(&fn)
}

// Record appends one event, stamping TS if unset.
func (t *Tracer) Record(ev SpanEvent) {
	if t == nil {
		return
	}
	if ev.TS.IsZero() {
		ev.TS = time.Now()
	}
	if ev.Epoch == 0 {
		ev.Epoch = t.epoch.Load()
	}
	if fn := t.tee.Load(); fn != nil {
		(*fn)(ev)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.next] = ev
		t.next = (t.next + 1) % cap(t.ring)
	}
	t.total++
	if t.enc != nil {
		_ = t.enc.Encode(ev) // best effort: a full disk must not stall dispatch
	}
}

// Log records a log line as a KindLog event: the signature Logger.SetTap
// wants.
func (t *Tracer) Log(line string) {
	t.Record(SpanEvent{Kind: KindLog, Job: -1, Partition: -1, Phone: -1, Detail: line})
}

// Total returns how many events have ever been recorded (including ones
// the ring has since evicted).
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// snapshot returns the ring contents oldest-first.
func (t *Tracer) snapshot() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanEvent, 0, len(t.ring))
	if len(t.ring) < cap(t.ring) {
		return append(out, t.ring...)
	}
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Recent returns up to n of the newest events, oldest-first.
func (t *Tracer) Recent(n int) []SpanEvent {
	if n <= 0 {
		return nil
	}
	all := t.snapshot()
	if len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// Span returns every ring-resident event for the given span ID,
// oldest-first. History evicted from the ring is only in the JSONL
// sink, if one was attached.
func (t *Tracer) Span(span string) []SpanEvent {
	var out []SpanEvent
	for _, ev := range t.snapshot() {
		if ev.Span == span {
			out = append(out, ev)
		}
	}
	return out
}

// WriteJSONL dumps the ring oldest-first, one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range t.snapshot() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// DumpFile writes the ring to path (truncating), fsyncing so the dump
// survives the crash that triggered it. Best-effort by design: it is
// called from panic handlers and signal handlers where there is nobody
// left to report an error to, so the error return is advisory.
func (t *Tracer) DumpFile(path string) error {
	if t == nil || path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	werr := t.WriteJSONL(f)
	serr := f.Sync()
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if serr != nil {
		return serr
	}
	return cerr
}
