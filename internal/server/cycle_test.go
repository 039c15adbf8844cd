package server

import (
	"bytes"
	"io"
	"net"
	"slices"
	"strconv"
	"testing"
	"time"

	"cwc/internal/protocol"
	"cwc/internal/tasks"
	"cwc/internal/wal"
	"cwc/internal/wire"
)

// cycleConn is a phone's link as the master sees it: reads return the
// frames the phone sent, writes vanish.
type cycleConn struct {
	net.Conn
	r io.Reader
}

func (c cycleConn) Read(p []byte) (int, error)    { return c.r.Read(p) }
func (cycleConn) Write(p []byte) (int, error)     { return len(p), nil }
func (cycleConn) Close() error                    { return nil }
func (cycleConn) SetReadDeadline(time.Time) error { return nil }

// cycleRig is one dispatch window in its steady state, on a master (not
// started) whose loop, read loop and writer are driven by hand on one
// goroutine: one phone, and a round of n one-range jobs of a wide-fleet
// 4 KB wordcount taken, packed and committed as RunRound and the loop do,
// all queued on it; on its link, the result frame of every attempt, in
// attempt order. Each result is distinct and of one length, so a receive
// buffer recycled under a folded partial would show in the job's result.
type cycleRig struct {
	tb   testing.TB
	m    *Master
	ps   *phoneState
	rnd  *round
	out  protocol.Message // the writer's message
	ids  []int            // job of attempt k+1
	want [][]byte         // result of attempt k+1
}

func newCycleRig(tb testing.TB, m *Master, n int) *cycleRig {
	tb.Helper()
	r := &cycleRig{tb: tb, m: m}
	input := bytes.Repeat([]byte("inventory sale\n"), 4096/15)
	for range n {
		if _, err := m.Submit(tasks.WordCount{Word: "inventory"}, input, true); err != nil {
			tb.Fatal(err)
		}
	}
	var frames bytes.Buffer
	r.ps = &phoneState{
		info: PhoneInfo{ID: 1, Model: "HTC G2", CPUMHz: 806, RAMMB: 512, BMsPerKB: 1, Alive: true},
		conn: protocol.NewConn(cycleConn{r: &frames}),
		out:  make(chan flight, writerQueue),
		dead: make(chan struct{}),
	}
	var t *taking
	m.do(func() {
		m.phones[1] = r.ps
		t = m.takeLocked(true)
	})
	if err := t.est.SetProfile("wordcount", 0.01); err != nil {
		tb.Fatal(err)
	}
	sched, inst, err := m.buildSchedule(t.items, t.infos, t.est)
	if err != nil {
		tb.Fatal(err)
	}
	plans, err := slicePartitions(t.items, sched)
	if err != nil {
		tb.Fatal(err)
	}
	r.rnd = &round{plans: plans, phones: t.phones, items: t.items, sched: sched, inst: inst, done: make(chan struct{})}
	r.step(r.rnd)
	for k, a := range r.rnd.plans[0] {
		res := []byte(strconv.Itoa(100000 + k))
		r.ids, r.want = append(r.ids, a.item.jobID), append(r.want, res)
		// The master issues attempts in queue order, from 1.
		frames.Write(encodeFrame(tb, &protocol.Message{Type: protocol.TypeResult,
			JobID: a.item.jobID, Attempt: int64(k + 1), Span: jobSpan(a.item.jobID),
			Result: res, Digest: tasks.Digest(res), ExecMs: 12.345, ProcessedKB: 4}))
	}
	return r
}

// step is one step of the master's loop, run as do runs a call while no
// loop runs: holding the state's token. It takes the token itself rather
// than post a closure, whose allocation the cycle's budget does not hold.
func (r *cycleRig) step(in any) {
	<-r.m.stopped
	r.m.stepLocked(time.Now(), in)
	r.m.stopped <- struct{}{}
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
		r.step(sent{r.ps, f.attempt, err})
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
	msg := r.report()
	r.write()
	return msg
}

// report is the next report received and credited.
func (r *cycleRig) report() *protocol.Message {
	msg, err := r.ps.conn.Recv()
	if err != nil {
		r.tb.Fatal(err)
	}
	r.step(reported{ps: r.ps, msg: msg})
	return msg
}

// The master's per-report path in its steady state: receiving a result,
// crediting and folding it and writing the assignment it makes room for
// costs six allocations, as measured: the report's body and span
// string, the two loop inputs (the report, the writer's outcome) boxed
// for the loop's channel, the attempt record and the report record. The
// job's first partial is its accumulator as it came. None of it is a
// Message, a digest, a span minted for an event or an assign, or a
// window's flight list.
func TestWindowCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const runs = 200
	r := newCycleRig(t, New(Config{}), runs+3)
	r.fill()
	if allocs := testing.AllocsPerRun(runs, func() { r.cycle() }); allocs > 6 {
		t.Errorf("one window cycle allocated %.1f times, want at most 6", allocs)
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
		results := make([]wire.Held, k+1)
		r.m.do(func() {
			for j := range results {
				results[j] = r.m.jobs[r.ids[j]].Result
			}
		})
		for j := 0; j <= k; j++ {
			if got := results[j]; got.N != 0 || !bytes.Equal(got.Bytes, r.want[j]) {
				t.Errorf("after report %d, job %d holds result %q (coded %d), want %s", k+1, r.ids[j], got.Bytes, got.N, r.want[j])
			}
		}
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

// A round runs to its report in loop steps: taken, packed and committed
// as RunRound and the loop do, then fed its writer's outcomes and its
// phone's reports by hand. The step that lets go of its last window ends
// it — swept, aggregated and reported in that step, whatever let go: the
// last report credited, the phone's death, or the round's cancellation.
func TestRoundRunsToItsReportInLoopSteps(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		name string
		// cut is fed after two reports; nil: every report comes.
		cut          func(r *cycleRig) any
		completed    int
		requeued     int
		failedPhones []int
	}{
		{name: "all-results", completed: n},
		{name: "died", cut: func(r *cycleRig) any { return died{r.ps, offlineConnLost, "cut"} },
			completed: 2, requeued: n - 2, failedPhones: []int{1}},
		{name: "cancelled", cut: func(r *cycleRig) any { return cancelled{r.rnd} },
			completed: 2, requeued: n - 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newCycleRig(t, New(Config{}), n)
			r.fill()
			reports := n
			if tc.cut != nil {
				reports = 2
			}
			for k := 0; k < reports; k++ {
				select {
				case <-r.rnd.done:
					t.Fatalf("round ended before step %d", k+1)
				default:
				}
				if k < reports-1 || tc.cut != nil {
					r.cycle()
				} else {
					r.report() // the last: no assignment left to write
				}
			}
			if tc.cut != nil {
				select {
				case <-r.rnd.done:
					t.Fatal("round ended before the cut")
				default:
				}
				r.step(tc.cut(r))
			}
			select {
			case <-r.rnd.done:
			default:
				t.Fatal("the step that let go of the round's last window did not end it")
			}
			rep := r.rnd.report
			if r.rnd.err != nil || rep == nil {
				t.Fatalf("round ended with report %v, err %v", rep, r.rnd.err)
			}
			completed, want := slices.Clone(rep.CompletedJobs), slices.Clone(r.ids[:tc.completed])
			slices.Sort(completed)
			slices.Sort(want)
			if !slices.Equal(completed, want) {
				t.Errorf("completed jobs %v, want %v", completed, want)
			}
			if rep.Requeued != tc.requeued {
				t.Errorf("requeued %d, want %d", rep.Requeued, tc.requeued)
			}
			if !slices.Equal(rep.FailedPhones, tc.failedPhones) {
				t.Errorf("failed phones %v, want %v", rep.FailedPhones, tc.failedPhones)
			}
			var open int
			r.m.do(func() { open = len(r.m.open) })
			if open != tc.requeued {
				t.Errorf("%d ranges open, want %d (the requeued)", open, tc.requeued)
			}
			if snap := r.m.LastSched(); snap == nil || snap.Round != 1 {
				t.Errorf("last sched %+v, want round 1's", snap)
			}
		})
	}
}
