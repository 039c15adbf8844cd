package worker

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cwc/internal/obs"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
)

// fakeServer accepts exactly one worker over an in-memory pipe and lets
// the test drive the server side of the protocol by hand.
type fakeServer struct {
	t    *testing.T
	conn *protocol.Conn
	raw  net.Conn // conn's transport, for frames encoded ahead of time
}

// startWorker wires a worker to a fake server over net.Pipe and runs it.
func startWorker(t *testing.T, cfg Config) (*Phone, *fakeServer, context.CancelFunc) {
	t.Helper()
	serverSide, workerSide := net.Pipe()
	cfg.Dial = func(context.Context) (net.Conn, error) { return workerSide, nil }
	if cfg.CPUMHz == 0 {
		cfg.CPUMHz = 1000
	}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		if err := w.Run(ctx); err != nil {
			t.Logf("worker exited: %v", err)
		}
	}()
	fs := &fakeServer{t: t, conn: protocol.NewConn(serverSide), raw: serverSide}
	t.Cleanup(func() {
		cancel()
		fs.conn.Close()
	})
	return w, fs, cancel
}

func (fs *fakeServer) recv() *protocol.Message {
	fs.t.Helper()
	if err := fs.conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		fs.t.Fatal(err)
	}
	m, err := fs.conn.Recv()
	if err != nil {
		fs.t.Fatal(err)
	}
	return m
}

func (fs *fakeServer) send(m *protocol.Message) {
	fs.t.Helper()
	if err := fs.conn.Send(m); err != nil {
		fs.t.Fatal(err)
	}
}

// welcome consumes the hello and welcomes the worker with the given ID.
func (fs *fakeServer) welcome(id int) *protocol.Message {
	fs.t.Helper()
	hello := fs.recv()
	if hello.Type != protocol.TypeHello {
		fs.t.Fatalf("first frame = %s, want hello", hello.Type)
	}
	fs.send(&protocol.Message{Type: protocol.TypeWelcome, PhoneID: id, KeepaliveMs: 30000})
	return hello
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{ServerAddr: "x", CPUMHz: 0}); err == nil {
		t.Error("zero clock should error")
	}
	if _, err := New(Config{CPUMHz: 1000}); err == nil {
		t.Error("no address and no dialer should error")
	}
}

func TestRegistration(t *testing.T) {
	w, fs, _ := startWorker(t, Config{Model: "HTC G2", CPUMHz: 806, RAMMB: 512})
	hello := fs.welcome(7)
	if hello.Model != "HTC G2" || hello.CPUMHz != 806 || hello.RAMMB != 512 {
		t.Errorf("hello = %+v", hello)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.WaitRegistered(ctx); err != nil {
		t.Fatal(err)
	}
	if w.ID() != 7 {
		t.Errorf("ID = %d, want 7", w.ID())
	}
}

func TestWaitRegisteredTimeout(t *testing.T) {
	serverSide, workerSide := net.Pipe()
	defer serverSide.Close()
	w, err := New(Config{
		CPUMHz: 1000,
		Dial:   func(context.Context) (net.Conn, error) { return workerSide, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	go w.Run(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := w.WaitRegistered(ctx); err == nil {
		t.Error("expected registration timeout")
	}
}

func TestPingPong(t *testing.T) {
	_, fs, _ := startWorker(t, Config{})
	fs.welcome(1)
	fs.send(&protocol.Message{Type: protocol.TypePing, Seq: 42})
	pong := fs.recv()
	if pong.Type != protocol.TypePong || pong.Seq != 42 {
		t.Errorf("pong = %+v", pong)
	}
}

func TestProbeAck(t *testing.T) {
	_, fs, _ := startWorker(t, Config{})
	fs.welcome(1)
	fs.send(&protocol.Message{Type: protocol.TypeProbe, Payload: make([]byte, 2048), Seq: 3})
	ack := fs.recv()
	if ack.Type != protocol.TypeProbeAck {
		t.Errorf("ack = %+v", ack)
	}
}

func TestAssignExecutesAndReports(t *testing.T) {
	_, fs, _ := startWorker(t, Config{})
	fs.welcome(1)
	fs.send(&protocol.Message{
		Type:  protocol.TypeAssign,
		JobID: 5, Partition: 2,
		Task:  "primecount",
		Input: []byte("2\n3\n4\n"),
	})
	res := fs.recv()
	if res.Type != protocol.TypeResult {
		t.Fatalf("got %s: %s", res.Type, res.Error)
	}
	if res.JobID != 5 || res.Partition != 2 {
		t.Errorf("result routing = %+v", res)
	}
	if string(res.Result) != "2" {
		t.Errorf("result = %s, want 2", res.Result)
	}
	if res.ProcessedKB <= 0 {
		t.Error("processed KB missing")
	}
}

func TestAssignWithResume(t *testing.T) {
	_, fs, _ := startWorker(t, Config{})
	fs.welcome(1)
	// Resume after the first two lines with one prime already counted.
	fs.send(&protocol.Message{
		Type:  protocol.TypeAssign,
		JobID: 1,
		Task:  "primecount",
		Input: []byte("2\n4\n5\n7\n"),
		Resume: &tasks.Checkpoint{
			Offset: 4, // past "2\n4\n"
			State:  []byte(`{"count":1}`),
		},
	})
	res := fs.recv()
	if res.Type != protocol.TypeResult {
		t.Fatalf("got %s: %s", res.Type, res.Error)
	}
	if string(res.Result) != "3" { // 1 carried + 5, 7
		t.Errorf("resumed result = %s, want 3", res.Result)
	}
}

func TestAssignUnknownTaskFails(t *testing.T) {
	_, fs, _ := startWorker(t, Config{})
	fs.welcome(1)
	fs.send(&protocol.Message{Type: protocol.TypeAssign, JobID: 9, Task: "nope"})
	res := fs.recv()
	if res.Type != protocol.TypeFailure || res.JobID != 9 {
		t.Errorf("expected failure for unknown task, got %+v", res)
	}
}

func TestAssignBadInputFails(t *testing.T) {
	_, fs, _ := startWorker(t, Config{})
	fs.welcome(1)
	fs.send(&protocol.Message{Type: protocol.TypeAssign, JobID: 3, Task: "blur",
		Input: []byte("not an image")})
	res := fs.recv()
	if res.Type != protocol.TypeFailure {
		t.Errorf("expected failure for bad image, got %+v", res)
	}
}

func TestUnplugDuringExecution(t *testing.T) {
	w, fs, _ := startWorker(t, Config{DelayPerKB: 50 * time.Millisecond})
	fs.welcome(1)
	input := make([]byte, 0, 64*1024)
	for len(input) < 60*1024 {
		input = append(input, []byte("104729\n")...)
	}
	fs.send(&protocol.Message{Type: protocol.TypeAssign, JobID: 2,
		Task: "primecount", Input: input})
	time.Sleep(100 * time.Millisecond)
	w.Unplug()
	res := fs.recv()
	if res.Type != protocol.TypeFailure {
		t.Fatalf("expected failure report, got %s", res.Type)
	}
	if res.Checkpoint == nil {
		t.Fatal("failure must carry the checkpoint for migration")
	}
	if res.Error != "unplugged" {
		t.Errorf("error = %q", res.Error)
	}
	// The connection closes after the report — possibly already, and a
	// pipe whose far end is gone refuses a new deadline.
	_ = fs.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := fs.conn.Recv(); err == nil {
		t.Error("worker should disconnect after unplugging")
	}
}

func TestUnplugWhileIdleSendsBye(t *testing.T) {
	w, fs, _ := startWorker(t, Config{})
	fs.welcome(1)
	// Give the worker a beat to be idle, then unplug. net.Pipe is
	// unbuffered, so the Bye send blocks until we read it: unplug from a
	// goroutine.
	time.Sleep(20 * time.Millisecond)
	go w.Unplug()
	msg := fs.recv()
	if msg.Type != protocol.TypeBye {
		t.Errorf("idle unplug sent %s, want bye", msg.Type)
	}
}

func TestVanishClosesSilently(t *testing.T) {
	w, fs, _ := startWorker(t, Config{})
	fs.welcome(1)
	time.Sleep(20 * time.Millisecond)
	w.Vanish()
	// The pipe may already be closed, making SetReadDeadline itself fail;
	// either way the next Recv must error without delivering a frame.
	_ = fs.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := fs.conn.Recv(); err == nil {
		t.Error("vanish should close without any frame")
	}
}

func TestByeExitsCleanly(t *testing.T) {
	serverSide, workerSide := net.Pipe()
	w, err := New(Config{
		CPUMHz: 1000,
		Dial:   func(context.Context) (net.Conn, error) { return workerSide, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- w.Run(context.Background()) }()
	fs := &fakeServer{t: t, conn: protocol.NewConn(serverSide)}
	fs.welcome(1)
	fs.send(&protocol.Message{Type: protocol.TypeBye})
	select {
	case err := <-errCh:
		if err != nil {
			t.Errorf("Run returned %v after bye", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not exit after bye")
	}
}

func TestContextCancelStopsWorker(t *testing.T) {
	_, fs, cancel := startWorker(t, Config{})
	fs.welcome(1)
	cancel()
	if err := fs.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.conn.Recv(); err == nil {
		t.Error("canceled worker should drop the connection")
	}
}

func TestDialFailure(t *testing.T) {
	w, err := New(Config{ServerAddr: "127.0.0.1:1", CPUMHz: 1000, // nothing listens there
		Reconnect: ReconnectPolicy{BaseDelay: time.Millisecond, MaxAttempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelT := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelT()
	if err := w.Run(ctx); err == nil || !strings.Contains(err.Error(), "giving up after") {
		t.Errorf("dialing a dead address returned %v, want the give-up error", err)
	}
}

// A context that is never cancelled (Background's, whose Done is nil) is
// not a cancelled one: Run retries a failing dial as its policy says.
func TestRunRetriesUnderBackgroundContext(t *testing.T) {
	var dials atomic.Int32
	w, err := New(Config{CPUMHz: 1000, Reconnect: ReconnectPolicy{BaseDelay: time.Millisecond, MaxAttempts: 2},
		Dial: func(context.Context) (net.Conn, error) {
			dials.Add(1)
			return nil, errors.New("refused")
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "giving up after 2") {
		t.Errorf("Run returned %v, want the give-up error after 2 retries", err)
	}
	if n := dials.Load(); n != 3 {
		t.Errorf("%d dials, want 3", n)
	}
}

// A phone that leaves while Run waits out a reconnect backoff is gone:
// Run returns at once and dials no more, so the phone never rejoins to
// answer pings and swallow assignments it will not report.
func TestLeavingDuringBackoffEndsRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		leave func(*Phone)
	}{
		{"unplug", (*Phone).Unplug},
		{"vanish", (*Phone).Vanish},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var dials atomic.Int32
			served := make(chan net.Conn, 2)
			w, err := New(Config{CPUMHz: 1000, Reconnect: ReconnectPolicy{BaseDelay: 300 * time.Millisecond},
				Dial: func(context.Context) (net.Conn, error) {
					dials.Add(1)
					server, phone := net.Pipe()
					served <- server
					return phone, nil
				}})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			ran := make(chan error, 1)
			go func() { ran <- w.Run(ctx) }()
			raw := <-served
			(&fakeServer{t: t, conn: protocol.NewConn(raw), raw: raw}).welcome(1)
			raw.Close()
			time.Sleep(50 * time.Millisecond)
			tc.leave(w)
			select {
			case err := <-ran:
				if err != nil {
					t.Errorf("Run returned %v, want nil", err)
				}
			case <-time.After(time.Second):
				t.Fatal("Run still running a second after the phone left")
			}
			if n := dials.Load(); n != 1 {
				t.Errorf("%d dials, want 1: a departed phone must not redial", n)
			}
		})
	}
}

func TestWorkerSendsAuthToken(t *testing.T) {
	_, fs, _ := startWorker(t, Config{AuthToken: "sekrit"})
	hello := fs.recv()
	if hello.Type != protocol.TypeHello || hello.Token != "sekrit" {
		t.Errorf("hello = %+v", hello)
	}
}

func TestAssignmentsExecuteSerially(t *testing.T) {
	_, fs, _ := startWorker(t, Config{DelayPerKB: 2 * time.Millisecond})
	fs.welcome(1)
	// Fire three assignments back to back; results must come back in
	// order because execution is strictly serial.
	input := make([]byte, 0, 8*1024)
	for len(input) < 8*1024 {
		input = append(input, []byte("11\n")...)
	}
	for k := 0; k < 3; k++ {
		fs.send(&protocol.Message{Type: protocol.TypeAssign, JobID: k + 1,
			Partition: k, Task: "primecount", Input: input})
	}
	for k := 0; k < 3; k++ {
		res := fs.recv()
		if res.Type != protocol.TypeResult {
			t.Fatalf("assignment %d: %s (%s)", k, res.Type, res.Error)
		}
		if res.JobID != k+1 {
			t.Fatalf("results out of order: got job %d, want %d", res.JobID, k+1)
		}
	}
}

func TestChunkedAssignmentAssembly(t *testing.T) {
	_, fs, _ := startWorker(t, Config{})
	fs.welcome(1)
	input := []byte("2\n3\n4\n5\n7\n9\n11\n")
	// Stream in three pieces.
	fs.send(&protocol.Message{
		Type: protocol.TypeAssign, JobID: 4, Partition: 1,
		Task: "primecount", Input: input[:5], TotalLen: int64(len(input)),
	})
	fs.send(&protocol.Message{
		Type: protocol.TypeAssignChunk, JobID: 4, Partition: 1, Input: input[5:9],
	})
	fs.send(&protocol.Message{
		Type: protocol.TypeAssignChunk, JobID: 4, Partition: 1, Input: input[9:],
	})
	res := fs.recv()
	if res.Type != protocol.TypeResult {
		t.Fatalf("got %s: %s", res.Type, res.Error)
	}
	if string(res.Result) != "5" { // 2 3 5 7 11
		t.Errorf("chunked result = %s, want 5", res.Result)
	}
}

func TestUnexpectedChunkRejected(t *testing.T) {
	_, fs, _ := startWorker(t, Config{})
	fs.welcome(1)
	fs.send(&protocol.Message{Type: protocol.TypeAssignChunk, JobID: 9, Partition: 0,
		Input: []byte("x")})
	res := fs.recv()
	if res.Type != protocol.TypeFailure {
		t.Errorf("stray chunk got %s", res.Type)
	}
}

func TestChunkOverflowRejected(t *testing.T) {
	_, fs, _ := startWorker(t, Config{})
	fs.welcome(1)
	fs.send(&protocol.Message{
		Type: protocol.TypeAssign, JobID: 5, Partition: 0,
		Task: "primecount", Input: []byte("123"), TotalLen: 5,
	})
	fs.send(&protocol.Message{
		Type: protocol.TypeAssignChunk, JobID: 5, Partition: 0,
		Input: []byte("4567890"), // 3 + 7 > 5
	})
	res := fs.recv()
	if res.Type != protocol.TypeFailure {
		t.Errorf("overflowing chunk got %s", res.Type)
	}
}

// A corrupt or hostile total_len must neither panic the worker (a cap
// out of range) nor commit memory before any chunk lands: an impossible
// one is answered with a failure, a merely huge one costs only what has
// actually arrived — and the worker keeps serving either way.
func TestHostileTotalLen(t *testing.T) {
	_, fs, _ := startWorker(t, Config{})
	fs.welcome(1)
	for _, total := range []int64{1 << 62, maxAssignBytes + 1} {
		fs.send(&protocol.Message{
			Type: protocol.TypeAssign, JobID: 6, Partition: 3, Attempt: 11,
			Task: "primecount", Input: []byte("2\n"), TotalLen: total,
		})
		res := fs.recv()
		if res.Type != protocol.TypeFailure || res.JobID != 6 || res.Partition != 3 || res.Attempt != 11 {
			t.Fatalf("total_len %d answered with %+v, want a failure for job 6 partition 3 attempt 11", total, res)
		}
	}

	// The largest possible claim is accepted but never completes; it may
	// hold only the bytes that landed.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fs.send(&protocol.Message{
		Type: protocol.TypeAssign, JobID: 7, Partition: 0,
		Task: "primecount", Input: make([]byte, 4096), TotalLen: maxAssignBytes,
	})
	fs.send(&protocol.Message{Type: protocol.TypePing, Seq: 1})
	if pong := fs.recv(); pong.Type != protocol.TypePong {
		t.Fatalf("after a huge total_len got %s, want the pong", pong.Type)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("a %d-byte claim with 4 KB delivered allocated %d bytes", int64(maxAssignBytes), got)
	}

	// Still alive and assembling honestly.
	fs.send(&protocol.Message{
		Type: protocol.TypeAssign, JobID: 8, Partition: 0,
		Task: "primecount", Input: []byte("2\n3\n"), TotalLen: 6,
	})
	fs.send(&protocol.Message{Type: protocol.TypeAssignChunk, JobID: 8, Partition: 0, Input: []byte("5\n")})
	if res := fs.recv(); res.Type != protocol.TypeResult || string(res.Result) != "3" {
		t.Fatalf("after hostile frames: %+v, want result 3", res)
	}
}

// appendChunk grows with the bytes received, never past the announced
// total, and ends in a buffer of exactly that size.
func TestAppendChunkGrowth(t *testing.T) {
	const total = 10 << 10
	var input []byte
	for len(input) < total {
		landed := len(input) + 1<<10
		input = appendChunk(input, make([]byte, 1<<10), total)
		if cap(input) > total || cap(input) > 2*landed {
			t.Fatalf("with %d of %d bytes landed the buffer holds %d", landed, total, cap(input))
		}
	}
	if len(input) != total || cap(input) != total {
		t.Fatalf("assembled %d bytes in a %d-byte buffer, want exactly %d", len(input), cap(input), total)
	}
}

// The emulated-CPU delay is execution time: a phone with DelayPerKB = d
// reports at least n·d for an n-KB partition, in the result frame and in
// its cumulative stats — that number is what the master refines c_ij on.
func TestExecMsIncludesEmulatedCPUDelay(t *testing.T) {
	const perKB = 20 * time.Millisecond
	reg := obs.NewRegistry()
	w, fs, _ := startWorker(t, Config{DelayPerKB: perKB, Metrics: reg})
	fs.welcome(1)
	input := bytes.Repeat([]byte("7\n"), 4<<10/2) // 4 KB
	wantMs := 4 * float64(perKB/time.Millisecond)
	fs.send(&protocol.Message{Type: protocol.TypeAssign, JobID: 1, Task: "primecount", Input: input})
	res := fs.recv()
	if res.Type != protocol.TypeResult {
		t.Fatalf("got %s: %s", res.Type, res.Error)
	}
	if res.ExecMs < wantMs {
		t.Errorf("ExecMs = %.1f, want at least the %.0f ms of emulated CPU time", res.ExecMs, wantMs)
	}
	if got := w.Stats().ExecMs; got < wantMs {
		t.Errorf("cumulative ExecMs = %.1f, want at least %.0f", got, wantMs)
	}

	// Interrupted during the delay: the time spent is still reported.
	fs.send(&protocol.Message{Type: protocol.TypeAssign, JobID: 2, Task: "primecount",
		Input: bytes.Repeat(input, 64)}) // 256 KB: a 5 s delay
	// The exec clock starts before the task does: once its exec_start is
	// counted, the next 50 ms are all on that clock.
	for reg.Counter("cwc_worker_events_total", "kind", "exec_start").Value() < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	before := w.Stats().ExecMs
	w.Unplug()
	if fail := fs.recv(); fail.Type != protocol.TypeFailure || fail.Error != "unplugged" {
		t.Fatalf("got %+v, want an unplugged failure", fail)
	}
	if got := w.Stats().ExecMs - before; got < 40 {
		t.Errorf("an execution interrupted ~50 ms into its delay metered %.1f ms", got)
	}
}

// A master that answers the hello in the old all-JSON frame layout is
// rejected on that first frame, not after the handshake timeout.
func TestOldFormatWelcomeFailsAtOnce(t *testing.T) {
	serverSide, workerSide := net.Pipe()
	defer serverSide.Close()
	w, err := New(Config{
		CPUMHz:    1000,
		Dial:      func(context.Context) (net.Conn, error) { return workerSide, nil },
		Reconnect: ReconnectPolicy{Disabled: true, HandshakeTimeout: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	if _, err := protocol.NewConn(serverSide).Recv(); err != nil { // the hello
		t.Fatal(err)
	}
	welcome := `{"type":"welcome","phone_id":1,"keepalive_ms":30000}`
	go serverSide.Write(append([]byte{0, 0, 0, byte(len(welcome))}, welcome...))
	select {
	case err := <-done:
		if !errors.Is(err, protocol.ErrCorrupt) {
			t.Fatalf("Run returned %v, want ErrCorrupt", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker still waiting on an old-format welcome")
	}
}

// primesOfKB builds a primecount input of about kb KB whose every line is
// the prime 104729.
func primesOfKB(kb int) []byte {
	input := make([]byte, 0, (kb+1)*1024)
	for len(input) < kb*1024 {
		input = append(input, []byte("104729\n")...)
	}
	return input
}

// The server keeps one assignment queued behind the running one: its
// input, chunked, must be fully assembled while the first still executes,
// and the two must run in arrival order.
func TestPrefetchedAssignmentAssemblesWhileExecuting(t *testing.T) {
	const delay = 400 * time.Millisecond
	w, fs, _ := startWorker(t, Config{DelayPerKB: delay})
	fs.welcome(1)
	start := time.Now()
	fs.send(&protocol.Message{Type: protocol.TypeAssign, JobID: 1, Attempt: 1,
		Task: "primecount", Input: primesOfKB(1)})
	// net.Pipe is unbuffered: each send returns once the worker's frame
	// loop has taken the frame, so after the last one the input is whole.
	second := []byte("2\n3\n4\n5\n7\n9\n11\n")
	fs.send(&protocol.Message{Type: protocol.TypeAssign, JobID: 2, Partition: 1, Attempt: 2,
		Task: "primecount", Input: second[:5], TotalLen: int64(len(second))})
	fs.send(&protocol.Message{Type: protocol.TypeAssignChunk, JobID: 2, Partition: 1, Input: second[5:9]})
	fs.send(&protocol.Message{Type: protocol.TypeAssignChunk, JobID: 2, Partition: 1, Input: second[9:]})
	fs.send(&protocol.Message{Type: protocol.TypeProbe, Seq: 1}) // taken after the last chunk was
	if ack := fs.recv(); ack.Type != protocol.TypeProbeAck {
		t.Fatalf("got %s while the first assignment should still be executing", ack.Type)
	}
	if took := time.Since(start); took >= delay {
		t.Skipf("host too slow to observe the overlap (%v)", took)
	}
	if got := w.Stats().Assignments; got != 2 {
		t.Errorf("%d assignments queued while the first executes, want 2", got)
	}
	for k := 1; k <= 2; k++ {
		res := fs.recv()
		if res.Type != protocol.TypeResult || res.JobID != k || res.Attempt != int64(k) {
			t.Fatalf("report %d = %s for job %d attempt %d (%s)", k, res.Type, res.JobID, res.Attempt, res.Error)
		}
		if k == 2 && string(res.Result) != "5" {
			t.Errorf("prefetched result = %s, want 5", res.Result)
		}
	}
}

// Work still queued when the phone is unplugged or vanishes never starts:
// the connection is gone and the master requeues it. The other phases of
// an assignment a leave or a drain can land in — its chunks still
// arriving, executing, its report parked during a disconnect — are the
// later rows (the rest are covered by the unplug, drain and recycling
// tests): each attempt gets exactly one report, or none for work a
// departed phone never started and for a vanish, and Run returns nil
// once the phone has left, while a drained phone stays.
func TestQueuedAssignmentDroppedWhenPhoneLeaves(t *testing.T) {
	for _, tc := range []struct {
		name  string
		leave func(*Phone)
		phase string // "": queued behind a running assignment
		want  string // the attempt's report: "" none, "result", else a failure's error
	}{
		{"unplug", (*Phone).Unplug, "", ""},
		{"vanish", (*Phone).Vanish, "", ""},
		{"unplug-assembling", (*Phone).Unplug, "assembling", ""},
		{"vanish-assembling", (*Phone).Vanish, "assembling", ""},
		{"drain-assembling", nil, "assembling", drainedReason},
		{"vanish-executing", (*Phone).Vanish, "executing", ""},
		{"unplug-parked", (*Phone).Unplug, "parked", "result"},
		{"vanish-parked", (*Phone).Vanish, "parked", "result"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.phase != "" {
				leaveInPhase(t, tc.leave, tc.phase, tc.want)
				return
			}
			w, fs, _ := startWorker(t, Config{DelayPerKB: 50 * time.Millisecond})
			fs.welcome(1)
			fs.send(&protocol.Message{Type: protocol.TypeAssign, JobID: 1, Attempt: 1,
				Task: "primecount", Input: primesOfKB(60)})
			fs.send(&protocol.Message{Type: protocol.TypeAssign, JobID: 2, Attempt: 2,
				Task: "primecount", Input: []byte("2\n3\n")})
			go tc.leave(w) // the pipe is unbuffered: an unplug's report blocks until read
			_ = fs.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			for {
				msg, err := fs.conn.Recv()
				if err != nil {
					break
				}
				if msg.JobID == 2 {
					t.Fatalf("queued assignment reported %s", msg.Type)
				}
			}
			// Had the queued assignment run, its result would be parked for
			// replay by now (it is a few bytes of input).
			time.Sleep(300 * time.Millisecond)
			w.do(func() {
				for _, m := range w.unsent {
					if m.JobID == 2 {
						t.Errorf("queued assignment ran to a parked %s; it must be dropped unexecuted", m.Type)
					}
				}
			})
			if got := w.Stats().Assignments; got != 2 {
				t.Errorf("%d assignments received, want 2", got)
			}
		})
	}
}

// leaveInPhase runs a worker on net.Pipe connections whose every dial
// waits for a gate, puts assignment attempt 5 in phase and makes the phone
// leave (nil: the server drains it). It checks the attempt's reports
// against want, and what Run does.
func leaveInPhase(t *testing.T, leave func(*Phone), phase, want string) {
	gate := make(chan struct{}, 1)
	served := make(chan net.Conn, 1)
	w, err := New(Config{CPUMHz: 1000, DelayPerKB: 20 * time.Millisecond,
		Dial: func(ctx context.Context) (net.Conn, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			server, phone := net.Pipe()
			served <- server
			return phone, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	ran := make(chan error, 1)
	go func() { ran <- w.Run(ctx) }()
	gate <- struct{}{}
	raw := <-served
	t.Cleanup(func() { raw.Close() })
	fs := &fakeServer{t: t, conn: protocol.NewConn(raw), raw: raw}
	fs.welcome(1)
	input := primesOfKB(4) // 80 ms of emulated CPU
	assign := &protocol.Message{Type: protocol.TypeAssign, JobID: 1, Attempt: 5, Task: "primecount", Input: input}
	parked := func() (reports []*protocol.Message) {
		w.do(func() { reports = slices.Clone(w.unsent) })
		return reports
	}
	switch phase {
	case "assembling":
		first := *assign
		first.Input, first.TotalLen = input[:1024], int64(len(input))
		fs.send(&first)
	case "executing":
		fs.send(assign)
		time.Sleep(20 * time.Millisecond)
	case "parked":
		fs.send(assign)
		raw.Close() // the result parks; the next dial waits on the gate
		for deadline := time.Now().Add(10 * time.Second); len(parked()) == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("no report parked")
			}
		}
	}

	var reports []*protocol.Message
	switch {
	case leave == nil:
		fs.send(&protocol.Message{Type: protocol.TypeDrain})
		fs.send(&protocol.Message{Type: protocol.TypeAssignChunk, JobID: 1, Input: input[1024:]})
		reports = append(reports, fs.recv())
		fs.send(&protocol.Message{Type: protocol.TypePing, Seq: 9})
		if pong := fs.recv(); pong.Type != protocol.TypePong {
			t.Fatalf("a drained phone answered a ping with %s", pong.Type)
		}
	case phase == "parked":
		leave(w)
		reports = parked()
	default:
		go leave(w) // the pipe is unbuffered: an unplug's bye blocks until read
		_ = fs.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			m, err := fs.conn.Recv()
			if err != nil {
				break
			}
			if m.Type != protocol.TypeBye {
				reports = append(reports, m)
			}
		}
		reports = append(reports, parked()...)
	}
	switch {
	case want == "" && len(reports) > 0:
		t.Errorf("attempt 5 reported %s %q, want no report", reports[0].Type, reports[0].Error)
	case want == "":
	case len(reports) != 1 || reports[0].Attempt != 5:
		t.Errorf("%d reports, want one for attempt 5", len(reports))
	case want == "result" && reports[0].Type != protocol.TypeResult,
		want != "result" && (reports[0].Type != protocol.TypeFailure || reports[0].Error != want):
		t.Errorf("attempt 5 reported %s %q, want %s", reports[0].Type, reports[0].Error, want)
	case want == drainedReason && reports[0].Checkpoint != nil:
		t.Errorf("a drained assignment that never started handed back checkpoint %+v, want none", reports[0].Checkpoint)
	}

	wait := time.Second
	if leave == nil {
		wait = 100 * time.Millisecond
	}
	select {
	case err := <-ran:
		if leave == nil || err != nil {
			t.Errorf("Run returned %v; want nil once the phone left, and a drained phone to stay", err)
		}
	case <-time.After(wait):
		if leave != nil {
			t.Error("Run still running a second after the phone left")
		}
	}
}

// The executor reports every outcome in one message of its own; a report
// that cannot go out is parked as a copy. Two results finished while the
// connection is down wait in unsent side by side, and the second leaves
// the first as it was.
func TestParkedReportIsNotOverwritten(t *testing.T) {
	gate := make(chan struct{}, 1)
	served := make(chan net.Conn, 1)
	w, err := New(Config{CPUMHz: 1000, DelayPerKB: 20 * time.Millisecond,
		Dial: func(ctx context.Context) (net.Conn, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			server, phone := net.Pipe()
			served <- server
			return phone, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go w.Run(ctx)
	gate <- struct{}{}
	raw := <-served
	fs := &fakeServer{t: t, conn: protocol.NewConn(raw), raw: raw}
	fs.welcome(1)
	inputs := [][]byte{primesOfKB(4), []byte("2\n3\n5\n")}
	for i, in := range inputs {
		fs.send(&protocol.Message{Type: protocol.TypeAssign, JobID: i + 1, Attempt: int64(i + 1),
			Task: "primecount", Input: in})
	}
	raw.Close() // the next dial waits on gate: both reports park
	var parked []*protocol.Message
	for deadline := time.Now().Add(10 * time.Second); len(parked) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d reports parked, want 2", len(parked))
		}
		w.do(func() { parked = slices.Clone(w.unsent) })
	}
	if parked[0] == parked[1] {
		t.Fatal("both parked reports are one message")
	}
	for i, m := range parked {
		want := strconv.Itoa(bytes.Count(inputs[i], []byte("\n")))
		if m.Type != protocol.TypeResult || m.JobID != i+1 || m.Attempt != int64(i+1) ||
			string(m.Result) != want || m.Digest != tasks.Digest(m.Result) {
			t.Errorf("parked report %d = %s for job %d attempt %d, result %q digest %s; want job %d's result %s",
				i, m.Type, m.JobID, m.Attempt, m.Result, m.Digest, i+1, want)
		}
	}
}

// A drain hands back everything the phone holds: the running assignment
// with its checkpoint, the queued one exactly as it was given, one report
// each. Work assigned after the drain runs normally.
func TestDrainHandsBackQueuedAssignmentUntouched(t *testing.T) {
	_, fs, _ := startWorker(t, Config{DelayPerKB: 50 * time.Millisecond})
	fs.welcome(1)
	fs.send(&protocol.Message{Type: protocol.TypeAssign, JobID: 1, Attempt: 7,
		Task: "primecount", Input: primesOfKB(60)})
	given := &tasks.Checkpoint{Offset: 4, State: []byte(`{"count":2}`)}
	fs.send(&protocol.Message{Type: protocol.TypeAssign, JobID: 2, Partition: 3, Attempt: 8,
		Task: "primecount", Input: []byte("2\n3\n5\n7\n"), Resume: given})
	fs.send(&protocol.Message{Type: protocol.TypeDrain})
	for k, attempt := range []int64{7, 8} {
		res := fs.recv()
		if res.Type != protocol.TypeFailure || res.Error != drainedReason || res.Attempt != attempt {
			t.Fatalf("report %d = %s %q for attempt %d, want a drained failure for attempt %d",
				k, res.Type, res.Error, res.Attempt, attempt)
		}
		if k == 1 && (res.Partition != 3 || res.Checkpoint == nil || res.Checkpoint.Offset != given.Offset ||
			!bytes.Equal(res.Checkpoint.State, given.State)) {
			t.Errorf("queued assignment handed back as partition %d checkpoint %+v, want what it was given",
				res.Partition, res.Checkpoint)
		}
	}
	fs.send(&protocol.Message{Type: protocol.TypeAssign, JobID: 3, Attempt: 9,
		Task: "primecount", Input: []byte("2\n3\n4\n")})
	if res := fs.recv(); res.Type != protocol.TypeResult || res.JobID != 3 || string(res.Result) != "2" {
		t.Fatalf("assignment after the drain = %s %q (%s)", res.Type, res.Result, res.Error)
	}
}
