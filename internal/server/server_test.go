package server

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cwc/internal/obs"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
	"cwc/internal/worker"
)

// fakePhone is a raw protocol-level client used to exercise the master
// without the worker package (so server tests stand alone).
type fakePhone struct {
	t    *testing.T
	id   int      // the phone ID the welcome issued
	raw  net.Conn // for writing deliberately corrupt bytes
	conn *protocol.Conn
}

func dialFake(t *testing.T, m *Master, model string, mhz float64) *fakePhone {
	t.Helper()
	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	f := &fakePhone{t: t, raw: raw, conn: protocol.NewConn(raw)}
	t.Cleanup(func() { f.conn.Close() })
	if err := f.conn.Send(&protocol.Message{
		Type: protocol.TypeHello, Model: model, CPUMHz: mhz, RAMMB: 512,
	}); err != nil {
		t.Fatal(err)
	}
	// Consume the welcome.
	m2 := f.recv()
	if m2.Type != protocol.TypeWelcome {
		t.Fatalf("expected welcome, got %s", m2.Type)
	}
	f.id = m2.PhoneID
	return f
}

func (f *fakePhone) recv() *protocol.Message {
	f.t.Helper()
	if err := f.conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		f.t.Fatal(err)
	}
	m, err := f.conn.Recv()
	if err != nil {
		f.t.Fatal(err)
	}
	return m
}

func (f *fakePhone) send(m *protocol.Message) {
	f.t.Helper()
	if err := f.conn.Send(m); err != nil {
		f.t.Fatal(err)
	}
}

func startMaster(t *testing.T, cfg Config) *Master {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	m := New(cfg)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fill()
	if c.KeepalivePeriod != 30*time.Second {
		t.Errorf("keepalive period = %v, want 30s (paper)", c.KeepalivePeriod)
	}
	if c.KeepaliveTolerance != 3 {
		t.Errorf("tolerance = %d, want 3 (paper)", c.KeepaliveTolerance)
	}
	if c.ProbeKB <= 0 || c.Logger == nil {
		t.Error("defaults not filled")
	}
}

func TestRegistrationAssignsSequentialIDs(t *testing.T) {
	m := startMaster(t, Config{})
	dialFake(t, m, "HTC G2", 806)
	dialFake(t, m, "Nexus S", 1000)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 2); err != nil {
		t.Fatal(err)
	}
	phones := m.Phones()
	if len(phones) != 2 {
		t.Fatalf("%d phones", len(phones))
	}
	if phones[0].ID != 0 || phones[1].ID != 1 {
		t.Errorf("IDs = %d, %d", phones[0].ID, phones[1].ID)
	}
	if phones[0].Model != "HTC G2" || phones[0].CPUMHz != 806 {
		t.Errorf("phone 0 = %+v", phones[0])
	}
	if !phones[0].Alive {
		t.Error("phone 0 should be alive")
	}
}

func TestBadHelloRejected(t *testing.T) {
	m := startMaster(t, Config{})
	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := protocol.NewConn(raw)
	defer c.Close()
	// Zero CPU clock: not a valid registration.
	if err := c.Send(&protocol.Message{Type: protocol.TypeHello, CPUMHz: 0}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); err == nil {
		t.Error("server should close a connection with an invalid hello")
	}
	if len(m.Phones()) != 0 {
		t.Error("invalid phone was registered")
	}
}

func TestNonHelloFirstFrameRejected(t *testing.T) {
	m := startMaster(t, Config{})
	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := protocol.NewConn(raw)
	defer c.Close()
	if err := c.Send(&protocol.Message{Type: protocol.TypePong}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); err == nil {
		t.Error("server should drop a connection that skips hello")
	}
}

func TestKeepalivePingPongAndOfflineDetection(t *testing.T) {
	m := startMaster(t, Config{
		KeepalivePeriod:    30 * time.Millisecond,
		KeepaliveTolerance: 2,
	})
	f := dialFake(t, m, "HTC G2", 806)

	// Answer a few pings: the phone must stay alive.
	for i := 0; i < 3; i++ {
		msg := f.recv()
		if msg.Type != protocol.TypePing {
			t.Fatalf("expected ping, got %s", msg.Type)
		}
		f.send(&protocol.Message{Type: protocol.TypePong, Seq: msg.Seq})
	}
	if p := m.Phones(); !p[0].Alive {
		t.Fatal("responsive phone marked dead")
	}

	// Stop answering: after tolerance misses the phone dies.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !m.Phones()[0].Alive {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("unresponsive phone never marked offline")
}

func TestByeMarksPhoneDead(t *testing.T) {
	m := startMaster(t, Config{})
	f := dialFake(t, m, "HTC G2", 806)
	f.send(&protocol.Message{Type: protocol.TypeBye})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !m.Phones()[0].Alive {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("bye did not mark the phone dead")
}

func TestMeasureBandwidths(t *testing.T) {
	m := startMaster(t, Config{ProbeKB: 8})
	f := dialFake(t, m, "HTC G2", 806)
	go func() {
		msg := f.recv()
		if msg.Type != protocol.TypeProbe {
			t.Errorf("expected probe, got %s", msg.Type)
			return
		}
		if len(msg.Payload) != 8*1024 {
			t.Errorf("probe payload %d bytes", len(msg.Payload))
		}
		f.send(&protocol.Message{Type: protocol.TypeProbeAck, Seq: msg.Seq})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.MeasureBandwidths(ctx); err != nil {
		t.Fatal(err)
	}
	b := m.Phones()[0].BMsPerKB
	if b <= 0 {
		t.Errorf("measured b = %v", b)
	}
}

func TestMeasureBandwidthsNoPhones(t *testing.T) {
	m := startMaster(t, Config{})
	if err := m.MeasureBandwidths(context.Background()); err != ErrNoPhones {
		t.Errorf("err = %v, want ErrNoPhones", err)
	}
}

func TestRunRoundNoWork(t *testing.T) {
	m := startMaster(t, Config{})
	if _, err := m.RunRound(context.Background()); err != ErrNothingToDo {
		t.Errorf("err = %v, want ErrNothingToDo", err)
	}
}

func TestRunRoundNoPhonesRequeues(t *testing.T) {
	m := startMaster(t, Config{})
	if _, err := m.Submit(tasks.PrimeCount{}, []byte("2\n"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunRound(context.Background()); err != ErrNoPhones {
		t.Errorf("err = %v, want ErrNoPhones", err)
	}
	if m.PendingItems() != 1 {
		t.Errorf("pending = %d, work was lost", m.PendingItems())
	}
}

func TestSubmitValidation(t *testing.T) {
	m := startMaster(t, Config{})
	if _, err := m.Submit(tasks.PrimeCount{}, nil, false); err == nil {
		t.Error("empty input should be rejected")
	}
	// Non-breakable tasks are forced atomic.
	id, err := m.Submit(tasks.Blur{}, []byte("1 1\n1 2 3\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	item := m.pending[len(m.pending)-1]
	m.mu.Unlock()
	if !item.atomic {
		t.Error("blur submission should be atomic regardless of the flag")
	}
	_ = id
}

func TestWaitForPhonesContextCancel(t *testing.T) {
	m := startMaster(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.WaitForPhones(ctx, 5); err == nil {
		t.Error("expected timeout waiting for phones")
	}
}

func TestResultUnknownJob(t *testing.T) {
	m := startMaster(t, Config{})
	if _, ok := m.Result(42); ok {
		t.Error("unknown job should have no result")
	}
}

func TestCloseIdempotent(t *testing.T) {
	m := startMaster(t, Config{})
	m.Close()
	m.Close() // second close must not panic or deadlock
}

// TestMigrationLifecycleOnTraceSpan drives a deterministic save -> resume
// -> complete migration with protocol-level fake phones (one phone per
// round, so assignment placement is unambiguous) and reads the paper's
// "server records the transmitted state" audit view off the job's trace
// span: the failure that saved offset 100, the assign that re-shipped it
// to the second phone, the result that retired it.
func TestMigrationLifecycleOnTraceSpan(t *testing.T) {
	tracer := obs.NewTracer(256)
	m := startMaster(t, Config{Tracer: tracer})
	span := func(jobID int) map[string][]obs.SpanEvent {
		byKind := map[string][]obs.SpanEvent{}
		for _, e := range tracer.Span(fmt.Sprintf("j%d", jobID)) {
			byKind[e.Kind] = append(byKind[e.Kind], e)
		}
		return byKind
	}
	f1 := dialFake(t, m, "HTC G2", 806)

	img, err := tasks.GenImageKB(4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	jobID, err := m.Submit(tasks.Blur{}, img, true)
	if err != nil {
		t.Fatal(err)
	}

	// Round 1: f1 serves the profiling run, then fails the real
	// assignment with a checkpoint and is marked dead.
	round1 := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, err := m.RunRound(ctx)
		round1 <- err
	}()
	prof := f1.recv()
	if prof.Type != protocol.TypeAssign || prof.Partition != -1 {
		t.Fatalf("expected profiling assign, got %+v", prof)
	}
	f1.send(&protocol.Message{Type: protocol.TypeResult, JobID: 0, Partition: -1, Attempt: prof.Attempt,
		Result: []byte("x"), Digest: tasks.Digest([]byte("x")), ExecMs: 5, ProcessedKB: 4})
	asg := f1.recv()
	if asg.Type != protocol.TypeAssign || asg.JobID != jobID {
		t.Fatalf("expected real assign, got %+v", asg)
	}
	f1.send(&protocol.Message{
		Type: protocol.TypeFailure, JobID: jobID, Partition: asg.Partition, Attempt: asg.Attempt,
		Checkpoint: &tasks.Checkpoint{Offset: 100, State: []byte(`{"row":0,"out":[]}`)},
		Error:      "unplugged",
	})
	if err := <-round1; err != nil {
		t.Fatal(err)
	}
	after1 := span(jobID)
	if saved := after1[obs.KindFailure]; len(saved) != 1 || saved[0].Bytes != 100 ||
		saved[0].Phone != f1.id || saved[0].Partition != asg.Partition {
		t.Fatalf("failure events after round 1 = %+v, want one from phone %d saving offset 100", saved, f1.id)
	}
	if first := after1[obs.KindAssign]; len(first) != 1 || first[0].Detail != "" || first[0].Bytes != 0 {
		t.Fatalf("assign events after round 1 = %+v, want one carrying no resume state", first)
	}
	if done := after1[obs.KindResult]; len(done) != 0 {
		t.Fatalf("result events while the migration is in flight = %+v", done)
	}

	// Round 2: a fresh phone receives the migrated work with the resume
	// checkpoint and completes it.
	f2 := dialFake(t, m, "Nexus S", 1000)
	round2 := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, err := m.RunRound(ctx)
		round2 <- err
	}()
	resumed := f2.recv()
	if resumed.Type != protocol.TypeAssign || resumed.Resume == nil ||
		resumed.Resume.Offset != 100 {
		t.Fatalf("expected resumed assign with checkpoint, got %+v", resumed)
	}
	f2.send(&protocol.Message{
		Type: protocol.TypeResult, JobID: jobID, Partition: resumed.Partition, Attempt: resumed.Attempt,
		Result: []byte("blurred"), Digest: tasks.Digest([]byte("blurred")), ExecMs: 3, ProcessedKB: 4,
	})
	if err := <-round2; err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Result(jobID); !ok || string(got) != "blurred" {
		t.Fatalf("result = %q %v", got, ok)
	}
	after2 := span(jobID)
	if saved := after2[obs.KindFailure]; len(saved) != 1 {
		t.Errorf("failure events = %+v, want the one save", saved)
	}
	var reshipped []obs.SpanEvent
	for _, e := range after2[obs.KindAssign] {
		if e.Detail == "resume" {
			reshipped = append(reshipped, e)
		}
	}
	if len(after2[obs.KindAssign]) != 2 || len(reshipped) != 1 ||
		reshipped[0].Bytes != 100 || reshipped[0].Phone != f2.id {
		t.Errorf("assign events = %+v, want two, one marked resume at offset 100 on phone %d",
			after2[obs.KindAssign], f2.id)
	}
	if done := after2[obs.KindResult]; len(done) != 1 || done[0].Phone != f2.id {
		t.Errorf("result events = %+v, want one from phone %d", done, f2.id)
	}
}

// TestRoundReportEvents drives a two-assignment round and checks that the
// event timeline records assigns and results in order.
func TestRoundReportEvents(t *testing.T) {
	m := startMaster(t, Config{})
	f := dialFake(t, m, "HTC G2", 806)
	if _, err := m.Submit(tasks.PrimeCount{}, []byte("2\n3\n5\n"), false); err != nil {
		t.Fatal(err)
	}
	reportCh := make(chan *RoundReport, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		r, err := m.RunRound(ctx)
		if err != nil {
			t.Error(err)
		}
		reportCh <- r
	}()
	// Profiling assign, then the real assign.
	for {
		msg := f.recv()
		if msg.Type != protocol.TypeAssign {
			continue
		}
		f.send(&protocol.Message{Type: protocol.TypeResult, JobID: msg.JobID,
			Partition: msg.Partition, Attempt: msg.Attempt, Result: []byte("2"), Digest: tasks.Digest([]byte("2")), ExecMs: 1, ProcessedKB: 0.01})
		if msg.Partition != -1 {
			break
		}
	}
	report := <-reportCh
	if report == nil {
		t.Fatal("no report")
	}
	var kinds []string
	for _, e := range report.Events {
		kinds = append(kinds, e.Kind)
	}
	if len(kinds) < 2 || kinds[0] != "assign" || kinds[len(kinds)-1] != "result" {
		t.Errorf("event kinds = %v", kinds)
	}
	for i := 1; i < len(report.Events); i++ {
		if report.Events[i].At < report.Events[i-1].At {
			t.Error("events out of order")
		}
	}
}

// Submissions racing with an active round land in the next round instead
// of being lost.
func TestSubmitDuringRound(t *testing.T) {
	m := startMaster(t, Config{})
	f := dialFake(t, m, "HTC G2", 806)

	// Auto-responder: answer every assignment (profiling or real) with a
	// plausible result for its task.
	assigns := make(chan string, 16)
	go func() {
		for {
			if err := f.conn.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
				return
			}
			msg, err := f.conn.Recv()
			if err != nil {
				return
			}
			if msg.Type != protocol.TypeAssign {
				continue
			}
			res := []byte("1")
			if msg.Task == "maxint" {
				res = []byte("9")
			}
			if err := f.conn.Send(&protocol.Message{
				Type: protocol.TypeResult, JobID: msg.JobID,
				Partition: msg.Partition, Attempt: msg.Attempt, Result: res, Digest: tasks.Digest(res),
				ExecMs: 1, ProcessedKB: 0.01,
			}); err != nil {
				return
			}
			assigns <- msg.Task
		}
	}()

	if _, err := m.Submit(tasks.PrimeCount{}, []byte("2\n3\n"), false); err != nil {
		t.Fatal(err)
	}
	round1 := make(chan struct{})
	go func() {
		defer close(round1)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := m.RunRound(ctx); err != nil {
			t.Error(err)
		}
	}()
	// Once the first assignment is in flight, round 1's snapshot is
	// taken: a submission now must land in round 2.
	select {
	case <-assigns:
	case <-time.After(20 * time.Second):
		t.Fatal("no assignment arrived")
	}
	lateID, err := m.Submit(tasks.MaxInt{}, []byte("9\n4\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	<-round1
	if m.PendingItems() != 1 {
		t.Fatalf("pending = %d, late submission lost", m.PendingItems())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	res, ok := m.Result(lateID)
	if !ok {
		t.Fatal("late job has no result")
	}
	if string(res) != "9" {
		t.Errorf("late job result = %s", res)
	}
}

func TestRunLoopProcessesSubmissionsAsTheyArrive(t *testing.T) {
	m := startMaster(t, Config{})
	f := dialFake(t, m, "HTC G2", 806)
	// Auto-responder for all assignments.
	go func() {
		for {
			if err := f.conn.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
				return
			}
			msg, err := f.conn.Recv()
			if err != nil {
				return
			}
			if msg.Type != protocol.TypeAssign {
				continue
			}
			_ = f.conn.Send(&protocol.Message{Type: protocol.TypeResult,
				JobID: msg.JobID, Partition: msg.Partition, Attempt: msg.Attempt,
				Result: []byte("1"), Digest: tasks.Digest([]byte("1")), ExecMs: 1, ProcessedKB: 0.01})
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := make(chan *RoundReport, 8)
	loopDone := make(chan error, 1)
	go func() {
		loopDone <- m.RunLoop(ctx, 10*time.Millisecond, func(r *RoundReport) {
			rounds <- r
		})
	}()

	var ids []int
	for k := 0; k < 3; k++ {
		id, err := m.Submit(tasks.PrimeCount{}, []byte("2\n3\n"), false)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		select {
		case <-rounds:
		case <-time.After(20 * time.Second):
			t.Fatal("loop never ran a round")
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range ids {
		for {
			if _, ok := m.Result(id); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d never completed under RunLoop", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	cancel()
	select {
	case err := <-loopDone:
		if err != context.Canceled {
			t.Errorf("loop exit = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("loop did not stop on cancel")
	}
}

func TestRunLoopStopsOnClose(t *testing.T) {
	m := startMaster(t, Config{})
	loopDone := make(chan error, 1)
	go func() {
		loopDone <- m.RunLoop(context.Background(), 5*time.Millisecond, nil)
	}()
	time.Sleep(30 * time.Millisecond)
	m.Close()
	select {
	case err := <-loopDone:
		if err != nil {
			t.Errorf("loop exit after Close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("loop did not stop on Close")
	}
}

func TestAuthTokenEnforcement(t *testing.T) {
	m := startMaster(t, Config{AuthToken: "enrol-secret"})
	// Wrong token: dropped before registration.
	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	bad := protocol.NewConn(raw)
	defer bad.Close()
	if err := bad.Send(&protocol.Message{
		Type: protocol.TypeHello, Token: "wrong", Model: "X", CPUMHz: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	_ = bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bad.Recv(); err == nil {
		t.Error("bad token should be rejected")
	}
	if len(m.Phones()) != 0 {
		t.Error("bad-token phone registered")
	}
	// Correct token: welcomed.
	raw2, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	good := protocol.NewConn(raw2)
	defer good.Close()
	if err := good.Send(&protocol.Message{
		Type: protocol.TypeHello, Token: "enrol-secret", Model: "X", CPUMHz: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	_ = good.SetReadDeadline(time.Now().Add(5 * time.Second))
	msg, err := good.Recv()
	if err != nil || msg.Type != protocol.TypeWelcome {
		t.Fatalf("good token not welcomed: %v %v", msg, err)
	}
}

// TestAdminPlaneServesPprof: the runtime's profiles are served on the
// admin plane's own mux, so an operator can read a live master's
// allocation profile with nothing more than -obs-addr. The plane has no
// authentication, so no endpoint may reveal the enrolment token — which
// cwc-server takes on its command line, so /debug/pprof/cmdline must not
// be served. The test puts the token in os.Args as the daemon's flag
// would.
func TestAdminPlaneServesPprof(t *testing.T) {
	const token = "enrol-secret-7f3a"
	args := os.Args
	os.Args = append(slices.Clip(args), "-token", token)
	t.Cleanup(func() { os.Args = args })
	m := startMaster(t, Config{ObsAddr: "127.0.0.1:0", AuthToken: token})

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + m.ObsAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/debug/pprof/allocs?debug=1"); code != http.StatusOK || !strings.Contains(body, "heap profile") {
		t.Fatalf("/debug/pprof/allocs?debug=1 = %d:\n%.300s", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != http.StatusNotFound {
		t.Errorf("/debug/pprof/cmdline = %d, want 404:\n%.300s", code, body)
	}
	for _, path := range []string{
		"/metrics", "/healthz", "/statusz", "/debug/sched", "/debug/trace",
		"/debug/timeline", "/debug/blackbox", "/debug/pprof/",
		"/debug/pprof/cmdline", "/debug/pprof/goroutine?debug=2",
	} {
		if _, body := get(path); strings.Contains(body, token) {
			t.Errorf("%s reveals the enrolment token", path)
		}
	}
}

// silentConn is a net.Conn whose Close only flips a flag: subsequent
// reads and writes fail, but no FIN ever reaches the peer. Vanish() on a
// plain TCP conn sends a FIN that the master notices instantly as
// conn-lost; this wrapper reproduces the paper's true offline failure
// (a wireless driver crash) where the only detector is the keepalive.
type silentConn struct {
	net.Conn
	dead atomic.Bool
}

func (c *silentConn) Read(p []byte) (int, error) {
	if c.dead.Load() {
		return 0, net.ErrClosed
	}
	n, err := c.Conn.Read(p)
	if c.dead.Load() {
		return 0, net.ErrClosed
	}
	return n, err
}

func (c *silentConn) Write(p []byte) (int, error) {
	if c.dead.Load() {
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

func (c *silentConn) Close() error {
	c.dead.Store(true)
	return nil
}

// TestOfflineFailureEndToEnd drives the full offline-failure path with
// the real worker runtime: a phone dies silently mid-execution (no FIN,
// no failure report), the master detects it after KeepaliveTolerance
// missed pings, re-queues the partition from its last streamed
// checkpoint, and a later round completes the job with the right answer
// on the surviving phone.
func TestOfflineFailureEndToEnd(t *testing.T) {
	tracer := obs.NewTracer(4096)
	m := startMaster(t, Config{
		KeepalivePeriod:    40 * time.Millisecond,
		KeepaliveTolerance: 3,
		CheckpointEveryKB:  4,
		Tracer:             tracer,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	workerCtx, cancelWorkers := context.WithCancel(context.Background())
	t.Cleanup(cancelWorkers)

	// Worker 0 dials through silentConn so its Vanish makes no sound on
	// the wire; worker 1 is an ordinary survivor.
	workers := make([]*worker.Phone, 2)
	for i := range workers {
		muted := i == 0
		w, err := worker.New(worker.Config{
			ServerAddr: m.Addr(),
			Model:      "HTC G2",
			CPUMHz:     806,
			RAMMB:      512,
			Dial: func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				raw, err := d.DialContext(ctx, "tcp", m.Addr())
				if err != nil {
					return nil, err
				}
				t.Cleanup(func() { raw.Close() })
				if muted {
					return &silentConn{Conn: raw}, nil
				}
				return raw, nil
			},
			Reconnect: worker.ReconnectPolicy{Disabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		go func() { _ = w.Run(workerCtx) }()
	}
	if err := m.WaitForPhones(ctx, 2); err != nil {
		t.Fatal(err)
	}

	input := tasks.GenIntegers(64, 100000, rand.New(rand.NewSource(7)))
	var ck tasks.Checkpoint
	want, err := (tasks.SleepCount{}).Process(context.Background(), input, &ck)
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(tasks.SleepCount{PerBatch: 2 * time.Millisecond}, input, false)
	if err != nil {
		t.Fatal(err)
	}

	// Vanish worker 0 once the master holds streamed progress of *its*
	// partition, so the kill lands mid-execution with resumable state on
	// file. (Both workers stream on the same cadence: waiting for any
	// checkpoint at all lets the other phone's arrive first and the kill
	// land just before worker 0's own first flush.)
	go func() {
		streamed := func() bool {
			for _, e := range tracer.Span(fmt.Sprintf("j%d", id)) {
				if e.Kind == obs.KindCheckpoint && e.Detail == "streamed" && e.Phone == workers[0].ID() {
					return true
				}
			}
			return false
		}
		for !streamed() {
			select {
			case <-ctx.Done():
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
		workers[0].Vanish()
	}()

	var got []byte
	ok := false
	deadline := time.Now().Add(60 * time.Second)
	for !ok && time.Now().Before(deadline) {
		if _, err := m.RunRound(ctx); err != nil {
			time.Sleep(10 * time.Millisecond)
		}
		got, ok = m.Result(id)
	}
	if !ok {
		t.Fatalf("job never completed after the offline failure (offline: %+v, dead letters: %+v)",
			m.OfflineFailures(), m.DeadLetters())
	}
	if string(got) != string(want) {
		t.Errorf("result after offline failure %s != local %s", got, want)
	}

	// The death was detected by missed keepalives, not a closing FIN.
	keepaliveDeaths := 0
	for _, f := range m.OfflineFailures() {
		if f.Reason == "keepalive" {
			keepaliveDeaths++
		}
	}
	if keepaliveDeaths == 0 {
		t.Errorf("no keepalive-detected failure recorded: %+v", m.OfflineFailures())
	}

	// The re-queued partition carried streamed state and was re-shipped.
	streamedSaves, resumes := 0, 0
	for _, e := range tracer.Span(fmt.Sprintf("j%d", id)) {
		switch {
		case e.Kind == obs.KindCheckpoint && e.Detail == "streamed":
			streamedSaves++
		case e.Kind == obs.KindAssign && e.Detail == "resume" && e.Bytes > 0:
			resumes++
		}
	}
	if streamedSaves == 0 || streamedSaves != m.StreamedCheckpoints() {
		t.Errorf("%d streamed-checkpoint saves on the job's span, master folded %d",
			streamedSaves, m.StreamedCheckpoints())
	}
	if resumes == 0 {
		t.Error("the re-queued partition was never re-shipped with resume state")
	}
}

// A phone that opens with a hello in the old all-JSON frame layout is
// dropped on that first frame, not after the 10 s hello timeout.
func TestOldFormatHelloDroppedAtOnce(t *testing.T) {
	m := startMaster(t, Config{})
	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	hello := `{"type":"hello","model":"HTC G2","cpu_mhz":806,"ram_mb":512}`
	if _, err := raw.Write(append([]byte{0, 0, 0, byte(len(hello))}, hello...)); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(helloTimeout / 2))
	if _, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after an old-format hello: %v, want the master to have closed the connection", err)
	}
	if n := len(m.Phones()); n != 0 {
		t.Fatalf("%d phones registered from an old-format hello", n)
	}
}

// A streamed checkpoint folds only when its digest matches: a stale
// digest and a stripped one are both dropped (and still acknowledged,
// the ack being flow control).
func TestStreamedCheckpointNeedsItsDigest(t *testing.T) {
	reg := obs.NewRegistry()
	m := startMaster(t, Config{Metrics: reg})
	f := dialFake(t, m, "HTC G2", 806)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	id, err := m.Submit(tasks.PrimeCount{}, primesInput, true)
	if err != nil {
		t.Fatal(err)
	}
	round := make(chan error, 1)
	go func() {
		_, err := m.RunRound(ctx)
		round <- err
	}()
	prof := f.recv()
	x := []byte("1")
	f.send(&protocol.Message{Type: protocol.TypeResult, JobID: 0, Partition: -1, Attempt: prof.Attempt,
		Result: x, Digest: tasks.Digest(x), ExecMs: 1, ProcessedKB: float64(len(prof.Input)) / 1024})
	asg := f.recv()
	if asg.Type != protocol.TypeAssign || asg.JobID != id {
		t.Fatalf("expected the real assign, got %+v", asg)
	}

	ck := &tasks.Checkpoint{Offset: 2, State: []byte(`{"count":1}`)}
	for i, digest := range []tasks.Sum{{}, tasks.Digest([]byte("something else")), ck.Digest()} {
		f.send(&protocol.Message{Type: protocol.TypeCheckpoint, JobID: id, Partition: asg.Partition,
			Attempt: asg.Attempt, Seq: uint64(i + 1), Checkpoint: ck, Digest: digest})
		if ack := f.recv(); ack.Type != protocol.TypeCheckpointAck || ack.Seq != uint64(i+1) {
			t.Fatalf("checkpoint %d answered with %+v, want its ack", i+1, ack)
		}
		if got, want := m.StreamedCheckpoints(), i/2; got != want {
			t.Fatalf("after checkpoint %d (digest %.8s): %d folds, want %d", i+1, digest, got, want)
		}
	}
	if v := reg.Counter("cwc_verify_mismatches_total", "kind", "checkpoint").Value(); v != 2 {
		t.Errorf("checkpoint mismatches = %d, want 2", v)
	}

	res, err := tasks.PrimeCount{}.Process(ctx, asg.Input, &tasks.Checkpoint{})
	if err != nil {
		t.Fatal(err)
	}
	f.send(&protocol.Message{Type: protocol.TypeResult, JobID: id, Partition: asg.Partition,
		Attempt: asg.Attempt, Result: res, Digest: tasks.Digest(res), ExecMs: 1, ProcessedKB: 0.01})
	if err := <-round; err != nil {
		t.Fatal(err)
	}
}

// The master refines c_ij from reported execution times, so a phone's
// emulated CPU slowness (worker DelayPerKB) must show up there: of two
// phones with the same clock, the slow one's learned ms/KB is at least
// its configured delay and the fast one's is well below it.
func TestRefinedCostReflectsEmulatedCPU(t *testing.T) {
	const delay = 4 * time.Millisecond // per KB
	m := startMaster(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	workerCtx, cancelWorkers := context.WithCancel(context.Background())
	t.Cleanup(cancelWorkers)
	var slow, fast *worker.Phone
	for _, p := range []struct {
		w     **worker.Phone
		delay time.Duration
	}{{&slow, delay}, {&fast, 0}} {
		w, err := worker.New(worker.Config{
			ServerAddr: m.Addr(), Model: "HTC G2", CPUMHz: 806, RAMMB: 512,
			DelayPerKB: p.delay,
			Reconnect:  worker.ReconnectPolicy{Disabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		*p.w = w
		go func() { _ = w.Run(workerCtx) }()
		if err := w.WaitRegistered(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WaitForPhones(ctx, 2); err != nil {
		t.Fatal(err)
	}
	input := tasks.GenIntegers(64, 100000, rand.New(rand.NewSource(3)))
	id, err := m.Submit(tasks.PrimeCount{}, input, false)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := m.Result(id); ok {
			break
		}
		if _, err := m.RunRound(ctx); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	est := m.est
	m.mu.Unlock()
	delayMs := float64(delay) / float64(time.Millisecond)
	learnedSlow, ok := est.LearnedEstimate("primecount", slow.ID())
	if !ok || learnedSlow < delayMs {
		t.Errorf("slow phone's refined c_ij = %.3f ms/KB (reported: %v), want at least its %.0f ms/KB delay", learnedSlow, ok, delayMs)
	}
	if learnedFast, ok := est.LearnedEstimate("primecount", fast.ID()); ok && learnedFast > delayMs/2 {
		t.Errorf("fast phone's refined c_ij = %.3f ms/KB, want well under the slow phone's %.0f", learnedFast, delayMs)
	}
}
