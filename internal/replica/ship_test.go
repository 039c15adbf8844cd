package replica

import (
	"bufio"
	"io"
	"net"
	"runtime"
	"testing"

	"cwc/internal/server"
	"cwc/internal/wal"
)

// A primary configured for replication but with no standby attached yet
// pays nothing per record and keeps no reference to it.
func TestShipWithoutStandbyDoesNotCopy(t *testing.T) {
	s := NewShipper(ShipperOptions{})
	f := wal.NewFrame(1, make([]byte, 64<<10))
	defer f.Release()
	if n := testing.AllocsPerRun(100, func() { s.Ship(f) }); n != 0 {
		t.Fatalf("shipping a %d-byte record to no standby allocated %.1f times, want 0", len(f.Bytes()), n)
	}
	if f.Refs() != 1 {
		t.Fatalf("frame holds %d references after shipping to no standby, want only the caller's", f.Refs())
	}
}

// A standby attached: Ship queues a reference to the logged frame, so a
// record costs no copy and no allocation however large it is, and every
// reference is given back once the frames are written.
func TestShipWithStandbyDoesNotCopy(t *testing.T) {
	s := testShipper()
	attachLoopback(t, s)
	f := wal.NewFrame(1, make([]byte, 64<<10))
	defer f.Release()
	if n := testing.AllocsPerRun(100, func() { s.Ship(f) }); n != 0 {
		t.Fatalf("shipping a %d-byte record to one standby allocated %.1f times, want 0", len(f.Bytes()), n)
	}
	if !attached(s) {
		t.Fatal("the standby was dropped while shipping")
	}
	s.Close()
	if f.Refs() != 1 {
		t.Fatalf("frame holds %d references after Close, want only the caller's", f.Refs())
	}
}

// A standby that stops reading fills its queue; whether it is then cut
// loose by DropAll or by one record more than its queue holds, Close
// leaves no reference behind: the writer gives back the frame it was
// writing and every frame still queued.
func TestDroppedStandbyReleasesItsQueue(t *testing.T) {
	for _, cut := range []string{"DropAll", "overflow"} {
		t.Run(cut, func(t *testing.T) {
			s := testShipper()
			us, them := net.Pipe()
			defer them.Close()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveStandby(us)
			}()
			if rec, _, err := wal.NewStreamReader(them).Next(); err != nil || rec.Type != recSnapshot {
				t.Fatalf("first frame: type %#x, %v; want the snapshot", rec.Type, err)
			}
			// The standby reads nothing more, so the writer blocks on its
			// first write and the queue fills behind it.
			s.mu.Lock()
			var sub *subscriber
			for sub = range s.subs {
			}
			s.mu.Unlock()
			f := wal.NewFrame(1, []byte("queued"))
			for len(sub.ch) < cap(sub.ch) {
				s.Ship(f)
			}
			if f.Refs() <= queueLen {
				t.Fatalf("a full queue holds %d references, want more than %d", f.Refs()-1, queueLen)
			}
			if cut == "DropAll" {
				s.DropAll()
			} else {
				s.Ship(f)
			}
			if attached(s) {
				t.Fatal("the standby is still attached after the cut")
			}
			s.Close()
			if f.Refs() != 1 {
				t.Fatalf("%d references outstanding after Close, want 0", f.Refs()-1)
			}
			f.Release()
		})
	}
}

// BenchmarkShip: one standby attached over loopback TCP, 64 KiB records
// shipped as fast as the standby drains them; the figure is the
// primary's cost per record through to the socket.
func BenchmarkShip(b *testing.B) {
	s := testShipper()
	defer s.Close()
	attachLoopback(b, s)
	f := wal.NewFrame(1, make([]byte, 64<<10))
	defer f.Release()
	b.SetBytes(int64(len(f.Bytes())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stay inside the queue bound, as a standby that keeps up does.
		for s.Lag() >= queueLen/2 {
			runtime.Gosched()
		}
		s.Ship(f)
	}
	for s.Lag() > 0 {
		runtime.Gosched()
	}
	b.StopTimer()
	if !attached(s) {
		b.Fatal("the standby was dropped")
	}
}

// testShipper returns a shipper whose standbys attach to an empty cut
// at epoch 1.
func testShipper() *Shipper {
	s := NewShipper(ShipperOptions{})
	s.source = func(activate func(*server.Cut)) { activate(&server.Cut{}) }
	s.epoch = func() int64 { return 1 }
	return s
}

// attached reports whether a standby is attached to s.
func attached(s *Shipper) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs) > 0
}

// attachLoopback serves s on a loopback listener and attaches one
// standby that reads the snapshot frame, so it is attached on return,
// and then discards everything it is sent.
func attachLoopback(tb testing.TB, s *Shipper) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	s.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	br := bufio.NewReaderSize(conn, 64<<10)
	if rec, _, err := wal.NewStreamReader(br).Next(); err != nil || rec.Type != recSnapshot {
		tb.Fatalf("first frame: type %#x, %v; want the snapshot", rec.Type, err)
	}
	go io.Copy(io.Discard, br)
}
