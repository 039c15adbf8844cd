package worker

import (
	"net"
	"testing"

	"cwc/internal/protocol"
)

// TestTelemetryDropsAreReportedOnce: a telemetry frame's dropped count is
// the events evicted since the last frame that went out. A frame that
// fails to send keeps its count for the next one; a frame that goes out
// is not counted again, so the master can add what it receives.
func TestTelemetryDropsAreReportedOnce(t *testing.T) {
	p, err := New(Config{ServerAddr: "x", CPUMHz: 1000})
	if err != nil {
		t.Fatal(err)
	}
	p.telemetry = true
	for range maxTelemetryEvents + 3 {
		p.event(protocol.EventDial, "", 0, 0, 0, 0, "ok")
	}

	// ship sends one telemetry frame on a fresh pipe and returns the
	// dropped count it carried.
	ship := func() int64 {
		t.Helper()
		server, phone := net.Pipe()
		defer server.Close()
		got := make(chan int64, 1)
		go func() {
			m, err := protocol.NewConn(server).Recv()
			if err != nil {
				got <- -1
				return
			}
			got <- m.Dropped
		}()
		p.shipTelemetry(protocol.NewConn(phone))
		return <-got
	}

	dead, _ := net.Pipe()
	dead.Close()
	p.shipTelemetry(protocol.NewConn(dead))
	if got := ship(); got != 3 {
		t.Fatalf("first frame after a failed send carried dropped=%d, want 3", got)
	}
	p.event(protocol.EventDial, "", 0, 0, 0, 0, "ok")
	if got := ship(); got != 0 {
		t.Fatalf("next frame carried dropped=%d, want 0: the 3 already went out", got)
	}
}
