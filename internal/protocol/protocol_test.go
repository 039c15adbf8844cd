package protocol

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cwc/internal/tasks"
)

// pipePair returns two framed conns talking to each other.
func pipePair() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

func TestSendRecvRoundTrip(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()

	want := &Message{
		Type:   TypeAssign,
		JobID:  7,
		Task:   "primecount",
		Input:  []byte("2\n3\n4\n"),
		Resume: &tasks.Checkpoint{Offset: 2, State: []byte(`{"count":1}`)},
	}
	done := make(chan error, 1)
	go func() { done <- a.Send(want) }()
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeAssign || got.JobID != 7 || got.Task != "primecount" {
		t.Errorf("got %+v", got)
	}
	if string(got.Input) != "2\n3\n4\n" {
		t.Errorf("input = %q", got.Input)
	}
	if got.Resume == nil || got.Resume.Offset != 2 || string(got.Resume.State) != `{"count":1}` {
		t.Errorf("resume = %+v", got.Resume)
	}
}

func TestAllMessageTypesRoundTrip(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()

	msgs := []*Message{
		{Type: TypeHello, Model: "HTC G2", CPUMHz: 806, RAMMB: 512},
		{Type: TypeWelcome, PhoneID: 3, CkptEveryKB: 256},
		{Type: TypeProbe, Payload: make([]byte, 4096)},
		{Type: TypeProbeAck},
		{Type: TypeResult, JobID: 1, Partition: 2, Result: []byte("42"), ExecMs: 17.5, ProcessedKB: 12},
		{Type: TypeFailure, JobID: 1, Checkpoint: &tasks.Checkpoint{Offset: 5}, Error: "unplugged"},
		{Type: TypePing, Seq: 9},
		{Type: TypePong, Seq: 9},
		{Type: TypeBye},
	}
	go func() {
		for _, m := range msgs {
			if err := a.Send(m); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, want := range msgs {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("recv %s: %v", want.Type, err)
		}
		if got.Type != want.Type {
			t.Fatalf("type %s, want %s", got.Type, want.Type)
		}
		if got.Seq != want.Seq || got.ExecMs != want.ExecMs || got.PhoneID != want.PhoneID {
			t.Errorf("%s fields mangled: %+v", want.Type, got)
		}
	}
}

func TestRecvRejectsOversizedFrame(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	c := NewConn(server)
	defer c.Close()
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
		client.Write(hdr[:])
	}()
	if _, err := c.Recv(); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("err = %v, want frame-limit error", err)
	}
}

func TestRecvRejectsGarbage(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	c := NewConn(server)
	defer c.Close()
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 3)
		client.Write(hdr[:])
		client.Write([]byte("{{{"))
	}()
	if _, err := c.Recv(); err == nil {
		t.Error("garbage body should fail to decode")
	}
}

func TestRecvRejectsMissingType(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	go a.Send(&Message{})
	if _, err := b.Recv(); err == nil || !strings.Contains(err.Error(), "missing type") {
		t.Errorf("err = %v, want missing-type error", err)
	}
}

func TestRecvEOF(t *testing.T) {
	a, b := pipePair()
	a.Close()
	if _, err := b.Recv(); err == nil {
		t.Error("recv on closed peer should error")
	}
}

func TestConcurrentSenders(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	const n = 50
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := a.Send(&Message{Type: TypePing, Seq: uint64(g*n + i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 4*n; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != TypePing {
			t.Fatalf("frame %d has type %s (interleaved write corruption?)", i, m.Type)
		}
		if seen[m.Seq] {
			t.Fatalf("duplicate seq %d", m.Seq)
		}
		seen[m.Seq] = true
	}
	wg.Wait()
}

func TestReadDeadline(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	if err := b.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := b.Recv(); err == nil {
		t.Error("expected deadline error")
	}
	if time.Since(start) > time.Second {
		t.Error("deadline not honoured")
	}
}

func TestOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan *Message, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		c := NewConn(conn) // exercises the TCP keepalive path
		defer c.Close()
		m, err := c.Recv()
		if err != nil {
			return
		}
		done <- m
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(raw)
	defer c.Close()
	if err := c.Send(&Message{Type: TypeHello, Model: "Nexus S", CPUMHz: 1000}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-done:
		if m.Model != "Nexus S" {
			t.Errorf("model = %q", m.Model)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timed out")
	}
	if c.RemoteAddr() == nil {
		t.Error("remote addr should be set")
	}
}

// Corrupt-stream classification: frames that are structurally broken
// (impossible length, undecodable header, missing type) wrap ErrCorrupt so
// the server can convert them into structured offline failures, while a
// cleanly cut stream surfaces as a plain I/O error.
func TestRecvCorruptClassification(t *testing.T) {
	// Garbage header: four random bytes that decode to a plausible length
	// followed by non-JSON body bytes.
	t.Run("garbage header and body", func(t *testing.T) {
		client, server := net.Pipe()
		defer client.Close()
		c := NewConn(server)
		defer c.Close()
		go client.Write([]byte{0x00, 0x00, 0x00, 0x05, 0xde, 0xad, 0xbe, 0xef, 0x01})
		_, err := c.Recv()
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("oversized length prefix", func(t *testing.T) {
		client, server := net.Pipe()
		defer client.Close()
		c := NewConn(server)
		defer c.Close()
		go client.Write([]byte{0xff, 0xff, 0xff, 0xff})
		_, err := c.Recv()
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("missing type", func(t *testing.T) {
		a, b := pipePair()
		defer a.Close()
		defer b.Close()
		go a.Send(&Message{})
		_, err := b.Recv()
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	// A truncated body (peer dies mid-frame) is a connection failure, not
	// a corrupt frame: framing was intact as far as it got. (Every cut
	// offset is covered by TestRecvTruncationAtEveryOffset.)
	t.Run("truncated body is not corrupt", func(t *testing.T) {
		frame := encodeFrame(t, &Message{Type: TypeAssign, JobID: 1, Input: []byte("0123456789")})
		_, err := recvBytes(frame[:len(frame)-4])
		if err == nil {
			t.Fatal("truncated body should error")
		}
		if errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, should NOT be ErrCorrupt", err)
		}
	})
}

// Attempt IDs and the rejoin flag survive the wire round trip.
func TestAttemptAndRejoinRoundTrip(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	msgs := []*Message{
		{Type: TypeHello, Model: "HTC G2", CPUMHz: 806, PhoneID: 4, Rejoin: true},
		{Type: TypeAssign, JobID: 1, Partition: 0, Attempt: 77, Task: "primecount", Input: []byte("2\n")},
		{Type: TypeResult, JobID: 1, Partition: 0, Attempt: 77, Result: []byte("1")},
	}
	go func() {
		for _, m := range msgs {
			if err := a.Send(m); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	hello, err := b.Recv()
	if err != nil || !hello.Rejoin || hello.PhoneID != 4 {
		t.Fatalf("rejoin hello = %+v, %v", hello, err)
	}
	asg, err := b.Recv()
	if err != nil || asg.Attempt != 77 {
		t.Fatalf("assign attempt = %+v, %v", asg, err)
	}
	res, err := b.Recv()
	if err != nil || res.Attempt != 77 {
		t.Fatalf("result attempt = %+v, %v", res, err)
	}
}
