package worker

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"testing"
	"time"

	"cwc/internal/protocol"
	"cwc/internal/tasks"
)

// captureConn is a transport that keeps what is written to it.
type captureConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *captureConn) Write(b []byte) (int, error) { return c.buf.Write(b) }

// wireBytes returns the frame Send puts on the wire for m.
func wireBytes(t *testing.T, m *protocol.Message) []byte {
	t.Helper()
	cc := &captureConn{}
	if err := protocol.NewConn(cc).Send(m); err != nil {
		t.Fatal(err)
	}
	return cc.buf.Bytes()
}

// A phone receives each assignment into a buffer it already owns: after
// two warm-up assignments, a stream of 64 KB assignments, one always
// prefetched behind the running one, allocates a small fraction of its
// input bytes. The master's frames are encoded before the clock starts,
// so what is counted is the worker's frame loop, executor and reports
// (and the test's reading of those reports).
func TestWorkerReusesItsReceiveBuffers(t *testing.T) {
	const warmup, measured, perAssignment = 2, 100, 8 << 10
	_, fs, _ := startWorker(t, Config{})
	fs.welcome(1)
	input := primesOfKB(64)
	want := strconv.Itoa(bytes.Count(input, []byte("\n")))
	frames := make([][]byte, warmup+measured+2)
	for i := range frames {
		frames[i] = wireBytes(t, &protocol.Message{Type: protocol.TypeAssign, JobID: i + 1,
			Attempt: int64(i + 1), Task: "primecount", Input: input})
	}
	sent := 0
	send := func() {
		if sent < len(frames) {
			if _, err := fs.raw.Write(frames[sent]); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	if err := fs.conn.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	// report reads assignment k's result and sends the next assignment,
	// so one stays queued behind the running one throughout.
	report := func(k int) {
		res, err := fs.conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if res.Type != protocol.TypeResult || res.JobID != k+1 || string(res.Result) != want {
			t.Fatalf("assignment %d: %s for job %d = %q (%s), want result %s", k, res.Type, res.JobID, res.Result, res.Error, want)
		}
		send()
	}
	send()
	send()
	for k := 0; k < warmup; k++ {
		report(k)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := warmup; k < warmup+measured; k++ {
		report(k)
	}
	runtime.ReadMemStats(&after)
	for k := warmup + measured; k < len(frames); k++ {
		report(k)
	}
	per := (after.TotalAlloc - before.TotalAlloc) / measured
	if per >= perAssignment {
		t.Fatalf("each %d-byte assignment allocated %d bytes, want under %d", len(input), per, perAssignment)
	}
	t.Logf("each %d-byte assignment allocated %d bytes", len(input), per)
}

// refJob is one assignment of the fake master below, with the reference
// its report is checked against, computed on a private copy of the input.
type refJob struct {
	msg    *protocol.Message
	input  []byte // private copy
	task   tasks.Task
	resume *tasks.Checkpoint // private copy of msg.Resume
	want   []byte
}

// newRefJob builds assignment k: a primecount, wordcount or maxint over
// kb KB of seeded input, resuming halfway through it if resume is set.
func newRefJob(t *testing.T, k int, kb float64, resume bool, rng *rand.Rand) *refJob {
	t.Helper()
	j := &refJob{msg: &protocol.Message{Type: protocol.TypeAssign, JobID: k + 1, Partition: k % 5, Attempt: int64(k + 1)}}
	var state string
	switch k % 3 {
	case 0:
		j.task, j.input, state = tasks.PrimeCount{}, tasks.GenIntegers(kb, 1<<20, rng), `{"count":1000003}`
	case 1:
		j.task, j.input, state = tasks.WordCount{Word: "inventory"}, tasks.GenText(kb, rng), `{"count":2000003}`
	default:
		j.task, j.input, state = tasks.MaxInt{}, tasks.GenIntegers(kb, 1<<40, rng), `{"max":1125899906842624,"seen":true}`
	}
	j.msg.Task, j.msg.Params = j.task.Name(), j.task.Params()
	j.msg.Input = bytes.Clone(j.input)
	if resume {
		half := len(j.input) / 2
		off := int64(half + bytes.IndexByte(j.input[half:], '\n') + 1)
		j.resume = &tasks.Checkpoint{Offset: off, State: []byte(state)}
		j.msg.Resume = j.resume.Clone()
	}
	ck := j.resume.Clone()
	if ck == nil {
		ck = &tasks.Checkpoint{}
	}
	var err error
	if j.want, err = j.task.Process(context.Background(), bytes.Clone(j.input), ck); err != nil {
		t.Fatal(err)
	}
	return j
}

// check holds a report to its job's reference: a result must be the
// reference's bytes; a failure's checkpoint (none: start over), resumed on
// the private input, must give them, and a checkpoint still at the
// assignment's resume offset must be that resume state. It returns the
// report's error text.
func check(t *testing.T, jobs map[int64]*refJob, rep *protocol.Message) string {
	t.Helper()
	j := jobs[rep.Attempt]
	if j == nil {
		t.Fatalf("report for unknown attempt %d: %+v", rep.Attempt, rep)
	}
	switch rep.Type {
	case protocol.TypeResult:
		if !bytes.Equal(rep.Result, j.want) {
			t.Fatalf("attempt %d: result %q, want %q", rep.Attempt, rep.Result, j.want)
		}
	case protocol.TypeFailure:
		ck := rep.Checkpoint
		if ck == nil {
			ck = &tasks.Checkpoint{} // handed back before it started: it restarts
		}
		if j.resume != nil && ck.Offset == j.resume.Offset && !bytes.Equal(ck.State, j.resume.State) {
			t.Fatalf("attempt %d: checkpoint state %q at the given offset, want the given %q", rep.Attempt, ck.State, j.resume.State)
		}
		got, err := j.task.Process(context.Background(), bytes.Clone(j.input), ck.Clone())
		if err != nil || !bytes.Equal(got, j.want) {
			t.Fatalf("attempt %d: resuming its checkpoint (offset %d, state %q) gives %q (%v), want %q",
				rep.Attempt, ck.Offset, ck.State, got, err, j.want)
		}
	default:
		t.Fatalf("attempt %d: unexpected %s frame", rep.Attempt, rep.Type)
	}
	return rep.Error
}

// Recycling never corrupts a report. A fake master streams assignments
// of varied sizes and tasks with one always prefetched — one of them
// several times the rest, some resuming — then drains the phone while it runs one
// assignment and holds another carrying resume state, and cuts the
// connection, so both reports wait in unsent and are replayed on the
// next connection after their buffers have gone back. More assignments
// follow on the new connection. Every result must be byte-identical to
// the reference, and every checkpoint must resume to it.
func TestRecyclingNeverCorruptsAReport(t *testing.T) {
	gate := make(chan struct{}, 1)
	served := make(chan net.Conn, 2)
	w, err := New(Config{
		CPUMHz:     1000,
		DelayPerKB: 50 * time.Microsecond,
		Reconnect:  ReconnectPolicy{BaseDelay: time.Millisecond},
		Dial: func(ctx context.Context) (net.Conn, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			server, phone := net.Pipe()
			served <- server
			return phone, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go w.Run(ctx)
	connect := func() *fakeServer {
		gate <- struct{}{}
		raw := <-served
		t.Cleanup(func() { raw.Close() })
		fs := &fakeServer{t: t, conn: protocol.NewConn(raw), raw: raw}
		fs.welcome(1)
		return fs
	}

	rng := rand.New(rand.NewSource(20121210))
	jobs := map[int64]*refJob{}
	next := 0
	newJob := func(kb float64, resume bool) *refJob {
		j := newRefJob(t, next, kb, resume, rng)
		jobs[j.msg.Attempt] = j
		next++
		return j
	}
	// stream sends n assignments, keeping two outstanding, and checks
	// every report.
	stream := func(fs *fakeServer, n int) {
		outstanding := 0
		for i := 0; i < n; i++ {
			kb := 1 + float64((next*37)%97)
			if next == 25 {
				kb = 320 // the large one
			}
			fs.send(newJob(kb, next%4 == 3).msg)
			if outstanding++; outstanding == 2 {
				check(t, jobs, fs.recv())
				outstanding--
			}
		}
		for ; outstanding > 0; outstanding-- {
			check(t, jobs, fs.recv())
		}
	}

	fs := connect()
	stream(fs, 56)

	running, queued := newJob(512, false), newJob(4, true)
	fs.send(running.msg)
	fs.send(queued.msg)
	fs.send(&protocol.Message{Type: protocol.TypeDrain})
	fs.raw.Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var parked int
		w.do(func() { parked = len(w.unsent) })
		if parked == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d reports parked after the cut, want 2", parked)
		}
	}

	fs = connect()
	for range 2 {
		rep := fs.recv()
		why := check(t, jobs, rep)
		if rep.Attempt == queued.msg.Attempt && (rep.Type != protocol.TypeFailure || why != drainedReason) {
			t.Fatalf("the queued assignment reported %s %q, want a drained hand-back", rep.Type, why)
		}
	}
	stream(fs, 8)
	if next < 50 {
		t.Fatalf("%d assignments, want at least 50", next)
	}
}
