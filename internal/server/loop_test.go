package server

import (
	"context"
	"errors"
	"net"
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
	est, err := m.estimator(m.alivePhones())
	if err != nil {
		t.Fatal(err)
	}
	if err := est.SetProfile("primecount", 0.01); err != nil {
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
