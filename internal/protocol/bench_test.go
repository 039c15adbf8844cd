package protocol

import (
	"net"
	"testing"
)

func benchConnPair(b *testing.B) (*Conn, *Conn) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	server := <-accepted
	a, c := NewConn(client), NewConn(server)
	b.Cleanup(func() { a.Close(); c.Close() })
	return a, c
}

func BenchmarkFrameRoundTripSmall(b *testing.B) {
	a, c := benchConnPair(b)
	go func() {
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(m); err != nil {
				return
			}
		}
	}()
	msg := &Message{Type: TypePing, Seq: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameThroughput64KB(b *testing.B) {
	a, c := benchConnPair(b)
	go func() {
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	}()
	msg := &Message{Type: TypeAssign, Task: "primecount", Input: make([]byte, 64<<10)}
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecvRecycled64KB is the receive side of the frames above, each
// message recycled once read, as a worker's frame loop and executor do:
// allocs/op is what a phone pays per 64 KB assignment it receives.
func BenchmarkRecvRecycled64KB(b *testing.B) {
	a, c := benchConnPair(b)
	msg := &Message{Type: TypeAssign, Task: "primecount", Input: make([]byte, 64<<10)}
	go func() {
		for a.Send(msg) == nil {
		}
	}()
	c.Recycle(&Message{Type: TypeWelcome})
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := c.Recv()
		if err != nil {
			b.Fatal(err)
		}
		c.Recycle(m)
	}
}

// benchmarkRecv receives m over loopback TCP, each message recycled once
// read: allocs/op is what one frame of a wide-fleet job costs its
// receiver.
func benchmarkRecv(b *testing.B, m *Message) {
	a, c := benchConnPair(b)
	go func() {
		for a.Send(m) == nil {
		}
	}()
	c.Recycle(&Message{Type: TypeWelcome})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := c.Recv()
		if err != nil {
			b.Fatal(err)
		}
		c.Recycle(got)
	}
}

func BenchmarkRecvAssign4KB(b *testing.B) { benchmarkRecv(b, wideFleetAssign()) }

func BenchmarkRecvResult(b *testing.B) { benchmarkRecv(b, wideFleetResult()) }
