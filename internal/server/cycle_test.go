package server

import (
	"bytes"
	"net"
	"strconv"
	"testing"
	"time"

	"cwc/internal/protocol"
	"cwc/internal/tasks"
	"cwc/internal/wal"
)

// cycleConn is a phone's link as the master sees it: reads return the
// frames the phone sent, writes vanish.
type cycleConn struct {
	net.Conn
	r *bytes.Reader
}

func (c cycleConn) Read(p []byte) (int, error)    { return c.r.Read(p) }
func (cycleConn) Write(p []byte) (int, error)     { return len(p), nil }
func (cycleConn) Close() error                    { return nil }
func (cycleConn) SetReadDeadline(time.Time) error { return nil }

// cycleRig is one dispatch window in its steady state, on a master (not
// started) whose loop, read loop and writer are driven by hand on one
// goroutine: one
// phone, n one-range jobs of a wide-fleet 4 KB wordcount queued on it,
// and on its link the result frame of every attempt, in attempt order.
// Each result is distinct and of one length, so a receive buffer
// recycled under a folded partial would show in the job's result.
type cycleRig struct {
	tb   testing.TB
	m    *Master
	ps   *phoneState
	out  protocol.Message // the writer's message
	ids  []int            // job of attempt k+1
	want [][]byte         // result of attempt k+1
}

func newCycleRig(tb testing.TB, m *Master, n int) *cycleRig {
	tb.Helper()
	r := &cycleRig{tb: tb, m: m}
	input := bytes.Repeat([]byte("inventory sale\n"), 4096/15)
	queue := make([]assignment, n)
	var frames bytes.Buffer
	for k := range queue {
		queue[k] = openTestRange(tb, m, tasks.WordCount{Word: "inventory"}, input, true, 0)
		res := []byte(strconv.Itoa(100000 + k))
		r.ids, r.want = append(r.ids, queue[k].item.jobID), append(r.want, res)
		// The master issues attempts in queue order, from 1.
		frames.Write(encodeFrame(tb, &protocol.Message{Type: protocol.TypeResult,
			JobID: queue[k].item.jobID, Attempt: int64(k + 1), Span: jobSpan(queue[k].item.jobID),
			Result: res, Digest: tasks.Digest(res), ExecMs: 12.345, ProcessedKB: 4}))
	}
	r.ps = &phoneState{
		info: PhoneInfo{ID: 1, Model: "HTC G2", CPUMHz: 806, RAMMB: 512, BMsPerKB: 1, Alive: true},
		conn: protocol.NewConn(cycleConn{r: bytes.NewReader(frames.Bytes())}),
		out:  make(chan flight, writerQueue),
		dead: make(chan struct{}),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.phones[1] = r.ps
	m.roundActive = true // as RunRound holds it while a round dispatches
	m.startLocked(time.Now(), &round{plans: [][]assignment{queue}, phones: []*phoneState{r.ps}, done: make(chan struct{})})
	return r
}

// encodeFrame is the wire bytes Send writes for msg.
func encodeFrame(tb testing.TB, msg *protocol.Message) []byte {
	tb.Helper()
	var sink bytes.Buffer
	if err := protocol.NewConn(captureConn{w: &sink}).Send(msg); err != nil {
		tb.Fatal(err)
	}
	return sink.Bytes()
}

// captureConn keeps what is written to it.
type captureConn struct {
	net.Conn
	w *bytes.Buffer
}

func (c captureConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// write is the phone's writer: it ships what the loop queued, if
// anything, and posts the outcome.
func (r *cycleRig) write() {
	select {
	case f := <-r.ps.out:
		err := r.m.sendAssign(r.ps, &r.out, f.a, f.attempt)
		r.m.mu.Lock()
		r.m.stepLocked(time.Now(), sent{r.ps, f.attempt, err})
		r.m.mu.Unlock()
	default:
	}
}

// fill ships the window's first two assignments: one running, one
// prefetched behind it.
func (r *cycleRig) fill() {
	r.write()
	r.write()
}

// cycle is one report: received, credited — which makes room for the
// next assignment — and that assignment written. It returns the message
// the report arrived in, given back by then.
func (r *cycleRig) cycle() *protocol.Message {
	msg, err := r.ps.conn.Recv()
	if err != nil {
		r.tb.Fatal(err)
	}
	r.m.mu.Lock()
	r.m.stepLocked(time.Now(), reported{r.ps, msg})
	r.m.mu.Unlock()
	r.write()
	return msg
}

// The master's per-report path in its steady state: receiving a result,
// crediting and folding it and writing the assignment it makes room for
// costs seven allocations, as measured: the report's body and span
// string, the two loop inputs (the report, the writer's outcome) boxed
// for the loop's channel, the attempt record, the report record and the
// job's partial list. None of it is a Message, a digest, a span minted
// for an event or an assign, or a window's flight list.
func TestWindowCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const runs = 200
	r := newCycleRig(t, New(Config{}), runs+3)
	r.fill()
	if allocs := testing.AllocsPerRun(runs, func() { r.cycle() }); allocs > 7 {
		t.Errorf("one window cycle allocated %.1f times, want at most 7", allocs)
	}
}

// A credited result's partial is a sub-slice of the frame it arrived in,
// and the message that frame was read into carries the next report: the
// struct is reused (the same one serves every frame), the bytes are not —
// every job's result reads what its phone reported, and the standby's
// fold of the log equals live state at every record.
func TestCreditedPartialSurvivesMessageReuse(t *testing.T) {
	const n = 8
	wl := openWAL(t, t.TempDir(), wal.Options{Sync: wal.SyncNone})
	sink := &oracleSink{t: t, fold: NewWALFold()}
	sink.m = New(Config{WAL: wl, ReplicaSink: sink})
	r := newCycleRig(t, sink.m, n)
	r.fill()
	var first *protocol.Message
	for k := 0; k < n; k++ {
		msg := r.cycle()
		if first == nil {
			first = msg
		} else if msg != first {
			t.Errorf("report %d arrived in a new message, want the first one reused", k+1)
		}
		r.m.mu.Lock()
		for j := 0; j <= k; j++ {
			if got := r.m.jobs[r.ids[j]].Partials; len(got) != 1 || !bytes.Equal(got[0], r.want[j]) {
				t.Errorf("after report %d, job %d holds partials %q, want [%s]", k+1, r.ids[j], got, r.want[j])
			}
		}
		r.m.mu.Unlock()
	}
	sink.check("after every report")
	if sink.compared < 2*n {
		t.Errorf("only %d comparisons made; the oracle is vacuous", sink.compared)
	}
}

// BenchmarkWindowCycle is TestWindowCycleAllocs's cycle timed: one report
// received, credited and folded, and the next assignment written to a
// discarding link. Each rig holds a bounded queue; the benchmark builds
// another, off the clock, when one runs dry.
func BenchmarkWindowCycle(b *testing.B) {
	const batch = 1024
	b.ReportAllocs()
	b.StopTimer()
	for done := 0; done < b.N; {
		k := min(batch, b.N-done)
		r := newCycleRig(b, New(Config{}), k+2)
		r.fill()
		b.StartTimer()
		for range k {
			r.cycle()
		}
		b.StopTimer()
		done += k
	}
}
