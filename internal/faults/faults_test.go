package faults

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"cwc/internal/protocol"
)

func TestNewPlanDeterministic(t *testing.T) {
	a, b := NewPlan(7, 5), NewPlan(7, 5)
	if !reflect.DeepEqual(a.PerPhone, b.PerPhone) {
		t.Error("same seed should yield identical plans")
	}
	c := NewPlan(8, 5)
	if reflect.DeepEqual(a.PerPhone, c.PerPhone) {
		t.Error("different seeds should yield different plans")
	}
	for i := 0; i < 5; i++ {
		p := a.ProfileFor(i)
		if p.zero() {
			t.Errorf("phone %d got a zero (perfect) profile", i)
		}
	}
}

func TestParseScenario(t *testing.T) {
	pl, err := ParseScenario(`
		# every link is a bit slow
		phone *: latency=5ms jitter=2ms bw=256
		phone 3: cut-every=2 max-cuts=4
		phone 3: corrupt=0.05
		phone 1: refuse=0.3 refuse-every=2 seed=42; phone 1: partial=0.25
	`)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Default.LatencyMs != 5 || pl.Default.JitterMs != 2 || pl.Default.BandwidthKBps != 256 {
		t.Errorf("default profile = %+v", pl.Default)
	}
	p3 := pl.ProfileFor(3)
	if p3.CutEvery != 2 || p3.MaxCuts != 4 || p3.CorruptProb != 0.05 {
		t.Errorf("phone 3 clauses did not merge: %+v", p3)
	}
	p1 := pl.ProfileFor(1)
	if p1.RefuseProb != 0.3 || p1.RefuseEvery != 2 || p1.Seed != 42 || p1.PartialWrite != 0.25 {
		t.Errorf("phone 1 = %+v", p1)
	}
	// Phones without an entry inherit the default.
	if got := pl.ProfileFor(9); got != pl.Default {
		t.Errorf("fallback profile = %+v", got)
	}
}

func TestParseScenarioErrors(t *testing.T) {
	for _, src := range []string{
		"3: cut=0.1",            // missing 'phone'
		"phone x: cut=0.1",      // bad id
		"phone 1 cut=0.1",       // missing colon
		"phone 1: cut",          // not key=value
		"phone 1: cut=1.5",      // probability out of range
		"phone 1: latency=fast", // unparsable duration
		"phone 1: warp=9",       // unknown key
	} {
		if _, err := ParseScenario(src); err == nil {
			t.Errorf("ParseScenario(%q) accepted invalid input", src)
		}
	}
}

// pipePair returns a TCP loopback pair (net.Pipe has no buffering, which
// would deadlock single-goroutine write tests).
func pipePair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		server = c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestConnCutEveryIsMidWrite(t *testing.T) {
	pl := &Plan{PerPhone: map[int]Profile{0: {Seed: 1, CutEvery: 2}}}
	client, server := pipePair(t)
	fc := pl.wrap(client, 0, 1, pl.ProfileFor(0))

	if _, err := fc.Write(bytes.Repeat([]byte("a"), 64)); err != nil {
		t.Fatalf("first write should pass: %v", err)
	}
	n, err := fc.Write(bytes.Repeat([]byte("b"), 64))
	if err == nil {
		t.Fatal("second write should be cut")
	}
	if n != 32 {
		t.Errorf("cut after %d bytes, want half the payload (32)", n)
	}
	// Writes after the cut keep failing.
	if _, err := fc.Write([]byte("x")); err == nil {
		t.Error("writes after a cut should fail")
	}
	// The peer sees the truncated stream then EOF.
	buf := make([]byte, 256)
	total := 0
	_ = server.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		k, err := server.Read(buf[total:])
		total += k
		if err != nil {
			break
		}
	}
	if total != 96 {
		t.Errorf("peer received %d bytes, want 96 (64 + half of 64)", total)
	}
	if got := pl.Recorder().Count(Cut); got != 1 {
		t.Errorf("recorded %d cuts, want 1", got)
	}
}

func TestConnMaxCutsBudget(t *testing.T) {
	pl := &Plan{PerPhone: map[int]Profile{0: {Seed: 1, CutEvery: 1, MaxCuts: 1}}}
	c1, _ := pipePair(t)
	fc := pl.wrap(c1, 0, 1, pl.ProfileFor(0))
	if _, err := fc.Write([]byte("abcd")); err == nil {
		t.Fatal("first write should be cut")
	}
	// Second connection of the same phone: budget spent, no more cuts.
	c2, _ := pipePair(t)
	fc2 := pl.wrap(c2, 0, 2, pl.ProfileFor(0))
	if _, err := fc2.Write([]byte("abcd")); err != nil {
		t.Fatalf("cut budget exhausted but write failed: %v", err)
	}
}

func TestConnCorruptionBreaksFrameDecode(t *testing.T) {
	// corrupt=1: every write has one byte flipped. A protocol frame is a
	// single write (header and body coalesced), so the flip lands
	// somewhere in length prefix or JSON body; wherever it lands, the
	// frame must not arrive intact — either Recv errors or the decoded
	// message differs from what was sent.
	pl := &Plan{PerPhone: map[int]Profile{0: {Seed: 3, CorruptProb: 1}}}
	client, server := pipePair(t)
	fc := pl.wrap(client, 0, 1, pl.ProfileFor(0))

	sender := protocol.NewConn(fc)
	go sender.Send(&protocol.Message{Type: protocol.TypePing, Seq: 9})

	receiver := protocol.NewConn(server)
	_ = receiver.SetReadDeadline(time.Now().Add(5 * time.Second))
	if m, err := receiver.Recv(); err == nil && m.Type == protocol.TypePing && m.Seq == 9 {
		t.Error("a corrupted frame arrived intact")
	}
	if pl.Recorder().Count(Corrupt) == 0 {
		t.Error("no corruption recorded")
	}
}

func TestConnPartialWriteStillDelivers(t *testing.T) {
	pl := &Plan{PerPhone: map[int]Profile{0: {Seed: 5, PartialWrite: 1}}}
	client, server := pipePair(t)
	fc := pl.wrap(client, 0, 1, pl.ProfileFor(0))

	payload := bytes.Repeat([]byte("xyz"), 100)
	go func() {
		fc.Write(payload)
		fc.Close()
	}()
	_ = server.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("partial writes changed the payload")
	}
	if pl.Recorder().Count(Partial) == 0 {
		t.Error("no partial write recorded")
	}
}

func TestDialerRefusals(t *testing.T) {
	pl := &Plan{PerPhone: map[int]Profile{2: {Seed: 1, RefuseEvery: 2}}}
	dials := 0
	dial := pl.Dialer(2, func(ctx context.Context) (net.Conn, error) {
		dials++
		c, _ := net.Pipe()
		return c, nil
	})
	var errs int
	for i := 0; i < 6; i++ {
		c, err := dial(context.Background())
		if err != nil {
			if !errors.Is(err, ErrRefused) {
				t.Fatalf("unexpected dial error: %v", err)
			}
			errs++
			continue
		}
		c.Close()
	}
	if errs != 3 {
		t.Errorf("refused %d of 6 dials, want every 2nd (3)", errs)
	}
	if dials != 3 {
		t.Errorf("underlying dial ran %d times, want 3 (refusals must not dial)", dials)
	}
	if got := pl.Recorder().Count(Refuse); got != 3 {
		t.Errorf("recorded %d refusals, want 3", got)
	}
}

func TestWrapListenerRefusesAndWraps(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pl := &Plan{Default: Profile{Seed: 1, RefuseEvery: 2, LatencyMs: 0.1}}
	fl := pl.WrapListener(ln)
	defer fl.Close()

	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := fl.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	// Dial four times; every 2nd accept is refused, so two survive.
	for i := 0; i < 4; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case c := <-accepted:
			if _, ok := c.(*Conn); !ok {
				t.Errorf("accepted conn not fault-wrapped: %T", c)
			}
		case <-deadline:
			t.Fatal("listener did not admit the expected connections")
		}
	}
	// The remaining dials are refused; the accept loop may still be
	// working through them.
	waitUntil := time.Now().Add(5 * time.Second)
	for pl.Recorder().Count(Refuse) < 2 && time.Now().Before(waitUntil) {
		time.Sleep(time.Millisecond)
	}
	if got := pl.Recorder().Count(Refuse); got != 2 {
		t.Errorf("recorded %d refusals, want 2", got)
	}
}

// A standby paces the accept loop of its takeover listener, which a
// harness may have wrapped, with a deadline.
func TestWrapListenerPassesDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := (&Plan{}).WrapListener(ln)
	defer fl.Close()
	if err := fl.SetDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var ne net.Error
	if _, err := fl.Accept(); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("Accept past the deadline = %v, want a timeout", err)
	}
}

// Same profile seed + same write sequence => same injected decisions,
// independent of wall-clock timing.
func TestConnDecisionStreamDeterministic(t *testing.T) {
	run := func() []Event {
		pl := &Plan{PerPhone: map[int]Profile{0: {
			Seed: 99, CorruptProb: 0.3, PartialWrite: 0.3, CutProb: 0.05,
		}}}
		client, server := pipePair(t)
		go io.Copy(io.Discard, server)
		fc := pl.wrap(client, 0, 1, pl.ProfileFor(0))
		for i := 0; i < 40; i++ {
			if _, err := fc.Write(bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
				break
			}
		}
		return pl.Recorder().Events()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("decision streams differ:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Error("no faults injected in 40 writes at these probabilities")
	}
}
