package server

import (
	"context"
	"errors"
	"net"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"cwc/internal/obs"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
)

// hookListener hands every accepted connection to wrap.
type hookListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l hookListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}

func listenerHook(wrap func(net.Conn) net.Conn) func(net.Listener) net.Listener {
	return func(ln net.Listener) net.Listener { return hookListener{ln, wrap} }
}

// linkDownAfterWelcome fails every write after the first (the welcome).
type linkDownAfterWelcome struct {
	net.Conn
	writes atomic.Int32
}

func (c *linkDownAfterWelcome) Write(p []byte) (int, error) {
	if c.writes.Add(1) > 1 {
		return 0, errors.New("link down")
	}
	return c.Conn.Write(p)
}

// One phone death is one offline-failure event — or none, when the master
// let go of the phone itself — however many of the read loop, the
// keepalive, the writer and shutdown see it.
func TestOneDeathOneOfflineEvent(t *testing.T) {
	reasons := func(m *Master) []string {
		var out []string
		for _, of := range m.OfflineFailures() {
			out = append(out, of.Reason)
		}
		return out
	}
	t.Run("keepalive", func(t *testing.T) {
		m := startMaster(t, Config{KeepalivePeriod: 20 * time.Millisecond, KeepaliveTolerance: 2})
		dialFake(t, m, "HTC G2", 806) // never answers a ping
		for deadline := time.Now().Add(10 * time.Second); len(m.Phones()) == 0 || m.Phones()[0].Alive; {
			if time.Now().After(deadline) {
				t.Fatal("the silent phone was never declared dead")
			}
			time.Sleep(5 * time.Millisecond)
		}
		m.Close() // every goroutine that saw the death has returned
		if got := reasons(m); !slices.Equal(got, []string{"keepalive"}) {
			t.Errorf("offline failures = %v, want [keepalive]", got)
		}
	})
	t.Run("close", func(t *testing.T) {
		m := startMaster(t, Config{})
		dialFake(t, m, "HTC G2", 806)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.WaitForPhones(ctx, 1); err != nil {
			t.Fatal(err)
		}
		m.Close()
		if got := reasons(m); len(got) != 0 {
			t.Errorf("offline failures = %v, want none: the master let go of the phone itself", got)
		}
	})
	t.Run("send-failed", func(t *testing.T) {
		m := startMaster(t, Config{KeepalivePeriod: time.Hour,
			ListenerHook: listenerHook(func(c net.Conn) net.Conn { return &linkDownAfterWelcome{Conn: c} })})
		dialFake(t, m, "HTC G2", 806)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.WaitForPhones(ctx, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Submit(tasks.PrimeCount{}, numberLines(1, 100), true); err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunRound(ctx); err == nil {
			t.Fatal("a round whose only phone cannot be written to succeeded")
		}
		m.Close()
		if got := reasons(m); !slices.Equal(got, []string{"send-failed"}) {
			t.Errorf("offline failures = %v, want [send-failed]", got)
		}
	})
	// The phone's own frames: each is one death, seen by the reader, the
	// loop, and the writer and shutdown after them.
	for _, tc := range []struct {
		reason string
		send   func(*fakePhone) error
	}{
		{"bye", func(f *fakePhone) error { return f.conn.Send(&protocol.Message{Type: protocol.TypeBye}) }},
		{"corrupt-frame", func(f *fakePhone) error {
			_, err := f.raw.Write([]byte{0, 0, 0, 5, 0xde, 0xad, 0xbe, 0xef, 0x01})
			return err
		}},
	} {
		t.Run(tc.reason, func(t *testing.T) {
			m := startMaster(t, Config{})
			f := dialFake(t, m, "HTC G2", 806)
			if err := tc.send(f); err != nil {
				t.Fatal(err)
			}
			waitDead(t, m, f.id)
			m.Close()
			if got := reasons(m); !slices.Equal(got, []string{tc.reason}) {
				t.Errorf("offline failures = %v, want [%s]", got, tc.reason)
			}
		})
	}
	t.Run("rejoined", func(t *testing.T) {
		reg := obs.NewRegistry()
		m := startMaster(t, Config{Metrics: reg})
		old := dialFake(t, m, "HTC G2", 806)
		// A drain the phone's charge session is under: a reconnect within
		// the session keeps it.
		m.mu.Lock()
		m.startDrainLocked(m.phones[old.id], 1000)
		m.mu.Unlock()
		raw, err := net.Dial("tcp", m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := protocol.NewConn(raw)
		defer c.Close()
		if err := c.Send(&protocol.Message{Type: protocol.TypeHello, Model: "HTC G2",
			CPUMHz: 806, RAMMB: 512, Rejoin: true, PhoneID: old.id}); err != nil {
			t.Fatal(err)
		}
		_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
		if w, err := c.Recv(); err != nil || w.Type != protocol.TypeWelcome || w.PhoneID != old.id {
			t.Fatalf("rejoin welcome = %+v, %v", w, err)
		}
		_ = old.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		for err == nil {
			_, err = old.conn.Recv() // the drain frame, then the close
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("old connection still open after the takeover")
		}
		// The old connection's teardown: its reader has seen the close and
		// posted its death, and the loop has taken every earlier input.
		for reg.Counter("cwc_conn_errors_total").Value() == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
		m.dispatch(context.Background(), &round{done: make(chan struct{})})
		if !m.windows.Plugged(old.id) || m.DrainState(old.id) != drainStarted {
			t.Errorf("plugged %v, drain %q after the superseded connection's teardown: want the charge session and its drain kept",
				m.windows.Plugged(old.id), m.DrainState(old.id))
		}
		m.Close()
		if got := reasons(m); !slices.Equal(got, []string{"rejoined"}) {
			t.Errorf("offline failures = %v, want [rejoined]", got)
		}
	})
	t.Run("probe-send-failed", func(t *testing.T) {
		m := startMaster(t, Config{KeepalivePeriod: time.Hour,
			ListenerHook: listenerHook(func(c net.Conn) net.Conn { return &linkDownAfterWelcome{Conn: c} })})
		dialFake(t, m, "HTC G2", 806)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.WaitForPhones(ctx, 1); err != nil {
			t.Fatal(err)
		}
		if err := m.MeasureBandwidths(ctx); err != nil {
			t.Fatalf("MeasureBandwidths over a link that cannot carry its probe: %v, want it to return once the phone died", err)
		}
		m.Close()
		if got := reasons(m); !slices.Equal(got, []string{"send-failed"}) {
			t.Errorf("offline failures = %v, want [send-failed]", got)
		}
	})
}

// waitDead waits until phone id is registered and dead.
func waitDead(t *testing.T, m *Master, id int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		for _, p := range m.Phones() {
			if p.ID == id && !p.Alive {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("phone %d was never declared dead", id)
		}
	}
}

// stallProbe reports whether a write is in progress on the connection,
// through a send buffer small enough that a peer which stops reading
// blocks the writer within a few hundred KB.
type stallProbe struct {
	net.Conn
	writing atomic.Bool
}

func (c *stallProbe) Write(p []byte) (int, error) {
	c.writing.Store(true)
	defer c.writing.Store(false)
	return c.Conn.Write(p)
}

// The design's main risk: one loop dispatches for every phone, so a slow
// link must never stall it. A phone that stops reading mid-way through a
// multi-MB assignment blocks its own writer in conn.Send; the other phone
// still receives, reports and is credited for its assignments in the same
// round, and once the stalled phone is gone the round returns with its
// work handed back.
func TestStalledLinkDoesNotStallOtherPhones(t *testing.T) {
	reg := obs.NewRegistry()
	probes := make(chan *stallProbe, 2)
	m := startMaster(t, Config{Metrics: reg, KeepalivePeriod: time.Hour, ChunkKB: 256,
		ListenerHook: listenerHook(func(c net.Conn) net.Conn {
			if tc, ok := c.(*net.TCPConn); ok {
				_ = tc.SetWriteBuffer(64 << 10)
			}
			p := &stallProbe{Conn: c}
			probes <- p
			return p
		})})
	var phones []*fakePhone
	for i := 0; i < 2; i++ {
		f := dialFake(t, m, "HTC G2", 806)
		if tc, ok := f.raw.(*net.TCPConn); ok {
			_ = tc.SetReadBuffer(64 << 10)
		}
		phones = append(phones, f)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 2); err != nil {
		t.Fatal(err)
	}
	// Profiled up front: the profiling run would otherwise ship the whole
	// atomic input.
	if err := m.take(false).est.SetProfile("primecount", 0.01); err != nil {
		t.Fatal(err)
	}

	big, err := m.Submit(tasks.PrimeCount{}, numberLines(1, 600000), true) // ~4 MB
	if err != nil {
		t.Fatal(err)
	}
	small := map[int][]byte{}
	for j := 0; j < 6; j++ {
		in := numberLines(1000*j+1, 1000*j+300)
		id, err := m.Submit(tasks.PrimeCount{}, in, true)
		if err != nil {
			t.Fatal(err)
		}
		small[id] = in
	}
	// Each phone answers every assignment, except one streamed in chunks:
	// its phone stops reading after the first frame.
	stalled := make(chan int, 2)
	var replied [2]atomic.Int64
	for i, f := range phones {
		go func() {
			for {
				msg, err := f.conn.Recv()
				if err != nil {
					return
				}
				if msg.Type != protocol.TypeAssign {
					continue
				}
				if msg.TotalLen > 0 {
					stalled <- i
					return
				}
				replyResult(f, msg)
				replied[i].Add(1)
			}
		}()
	}
	round := make(chan error, 1)
	go func() {
		_, err := m.RunRound(ctx)
		round <- err
	}()

	var stuck int
	select {
	case stuck = <-stalled:
	case <-ctx.Done():
		t.Fatal("no phone was given the multi-MB assignment")
	}
	probe := [2]*stallProbe{<-probes, <-probes}[stuck] // accepted in dial order
	other := &replied[1-stuck]
	credited := func() bool {
		return reg.Counter("cwc_results_total").Value() >= replied[0].Load()+replied[1].Load()
	}
	for !probe.writing.Load() || other.Load() < 3 || !credited() {
		select {
		case err := <-round:
			t.Fatalf("the round returned (%v) while a phone held its work", err)
		case <-ctx.Done():
			t.Fatalf("writer blocked: %v, other phone answered %d, all answers credited: %v; "+
				"want a blocked writer and >= 3 credited answers", probe.writing.Load(), other.Load(), credited())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if !probe.writing.Load() {
		t.Fatal("the stalled phone's writer came unblocked; the scenario no longer covers a stalled link")
	}

	phones[stuck].conn.Close()
	if err := <-round; err != nil {
		t.Fatal(err)
	}
	for id, in := range small {
		if got, ok := m.Result(id); !ok || string(got) != string(groundTruth(t, tasks.PrimeCount{}, in)) {
			t.Errorf("job %d = %q (%v)", id, got, ok)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) != 1 || m.pending[0].jobID != big {
		t.Errorf("%d items pending; want the stalled phone's job %d handed back", len(m.pending), big)
	}
}

// The loop applies the epoch fence to every report-carrying frame a read
// loop posts. A result, a failure and a streamed checkpoint stamped with
// another epoch are each counted under cwc_frames_fenced_total{type} and
// neither credited nor folded, and the checkpoint gets no ack; the same
// frames stamped with epoch 0 or with the master's own epoch pass.
func TestFenceAtTheLoop(t *testing.T) {
	reg := obs.NewRegistry()
	m := startMaster(t, Config{Metrics: reg, KeepalivePeriod: time.Hour})
	epoch, err := m.BumpEpoch()
	if err != nil {
		t.Fatal(err)
	}
	other := epoch + 1
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f := dialFake(t, m, "HTC G2", 806)
	if err := m.WaitForPhones(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.take(false).est.SetProfile("primecount", 0.01); err != nil {
		t.Fatal(err)
	}
	submit := func(from int) int {
		id, err := m.Submit(tasks.PrimeCount{}, numberLines(from, from+499), true)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	reports := make(chan *RoundReport, 1)
	runRound := func() {
		go func() {
			rep, err := m.RunRound(ctx)
			if err != nil {
				t.Error(err)
			}
			reports <- rep
		}()
	}
	assign := func(f *fakePhone) *protocol.Message {
		msg := f.recv()
		if msg.Type != protocol.TypeAssign {
			t.Fatalf("phone got %s, want an assignment", msg.Type)
		}
		return msg
	}
	result := func(a *protocol.Message, epoch int64) *protocol.Message {
		res := []byte("1")
		return &protocol.Message{Type: protocol.TypeResult, JobID: a.JobID, Attempt: a.Attempt,
			Result: res, Digest: tasks.Digest(res), Epoch: epoch}
	}
	failure := func(a *protocol.Message, epoch int64) *protocol.Message {
		return &protocol.Message{Type: protocol.TypeFailure, JobID: a.JobID, Attempt: a.Attempt,
			Error: "unplugged", Epoch: epoch}
	}
	checkpoint := func(a *protocol.Message, epoch int64, seq uint64) *protocol.Message {
		ck := &tasks.Checkpoint{Offset: int64(seq), State: []byte(`{"count":0}`)}
		return &protocol.Message{Type: protocol.TypeCheckpoint, JobID: a.JobID, Attempt: a.Attempt,
			Seq: seq, Checkpoint: ck, Digest: ck.Digest(), Epoch: epoch}
	}
	acked := func(seq uint64) {
		t.Helper()
		if ack := f.recv(); ack.Type != protocol.TypeCheckpointAck || ack.Seq != seq {
			t.Fatalf("phone got %s seq %d, want the ack of checkpoint %d", ack.Type, ack.Seq, seq)
		}
	}
	fenced := func(typ protocol.Type, want int64) {
		t.Helper()
		if got := reg.Counter("cwc_frames_fenced_total", "type", string(typ)).Value(); got != want {
			t.Errorf("fenced %s frames = %d, want %d", typ, got, want)
		}
	}

	a, b := submit(1), submit(501)
	runRound()
	first, second := assign(f), assign(f)
	f.send(result(first, other))
	f.send(failure(first, other))
	f.send(checkpoint(first, other, 1))
	// The loop takes a phone's frames in order: the first ack the phone
	// gets is the next checkpoint's, so the fenced one got none.
	f.send(checkpoint(first, 0, 2))
	acked(2)
	for _, typ := range []protocol.Type{protocol.TypeResult, protocol.TypeFailure, protocol.TypeCheckpoint} {
		fenced(typ, 1)
	}
	if n := m.StreamedCheckpoints(); n != 1 {
		t.Errorf("%d streamed checkpoints folded, want only the epoch-0 one", n)
	}
	if _, ok := m.Result(a); ok {
		t.Error("a fenced result was credited")
	}
	select {
	case <-reports:
		t.Fatal("the round ended on fenced frames")
	default:
	}
	f.send(checkpoint(first, epoch, 3))
	acked(3)
	if n := m.StreamedCheckpoints(); n != 2 {
		t.Errorf("%d streamed checkpoints folded, want 2", n)
	}
	f.send(result(first, 0))
	f.send(result(second, epoch))
	if rep := <-reports; rep == nil || !slices.Contains(rep.CompletedJobs, a) || !slices.Contains(rep.CompletedJobs, b) {
		t.Fatalf("round report %+v, want jobs %d and %d completed", rep, a, b)
	}

	// A failure credited is an online failure: the phone is done, and each
	// failure needs a phone of its own.
	submit(1001)
	for _, epoch := range []int64{0, epoch} {
		runRound()
		f.send(failure(assign(f), epoch))
		if rep := <-reports; rep == nil || rep.Requeued != 1 || !slices.Equal(rep.FailedPhones, []int{f.id}) {
			t.Fatalf("failure with epoch %d: round report %+v, want the range requeued and phone %d failed", epoch, rep, f.id)
		}
		f = dialFake(t, m, "HTC G2", 806)
	}
	for _, typ := range []protocol.Type{protocol.TypeResult, protocol.TypeFailure, protocol.TypeCheckpoint} {
		fenced(typ, 1)
	}
}
