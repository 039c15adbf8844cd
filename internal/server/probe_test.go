package server

import (
	"context"
	"testing"
	"time"

	"cwc/internal/protocol"
)

// clearDrain is clearDrainLocked for a test that does not hold m.mu.
func (m *Master) clearDrain(id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clearDrainLocked(id)
}

// A probe ack is timed against the probe it echoes, never against a later
// one: a call whose ctx ends before its ack arrives must not leave that
// ack for the next call to read at once as a near-free link, and an ack
// echoing no outstanding probe is no measurement at all.
func TestProbeAckIsTimedAgainstItsOwnProbe(t *testing.T) {
	const probeKB, ackDelay = 8, 100 * time.Millisecond
	// The link's true cost: no ack arrives sooner than ackDelay after its
	// probe was written.
	const floor = float64(ackDelay/time.Millisecond) / probeKB
	measure := func(t *testing.T, bogus bool) float64 {
		m := startMaster(t, Config{ProbeKB: probeKB})
		f := dialFake(t, m, "HTC G2", 806)
		go func() {
			for {
				msg, err := f.conn.Recv()
				if err != nil {
					return
				}
				if msg.Type != protocol.TypeProbe {
					continue
				}
				if bogus {
					// An ack for a probe this master never sent, at once.
					_ = f.conn.Send(&protocol.Message{Type: protocol.TypeProbeAck, Seq: msg.Seq + 1000})
				}
				time.Sleep(ackDelay)
				_ = f.conn.Send(&protocol.Message{Type: protocol.TypeProbeAck, Seq: msg.Seq})
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.WaitForPhones(ctx, 1); err != nil {
			t.Fatal(err)
		}
		if !bogus {
			// A call that gives up before its ack arrives; the ack lands
			// between the calls.
			short, stop := context.WithTimeout(ctx, ackDelay/5)
			_ = m.MeasureBandwidths(short)
			stop()
			time.Sleep(3 * ackDelay)
		}
		if err := m.MeasureBandwidths(ctx); err != nil {
			t.Fatal(err)
		}
		return m.Phones()[0].BMsPerKB
	}
	for _, tc := range []struct {
		name  string
		bogus bool
	}{{"late-ack", false}, {"unknown-seq", true}} {
		t.Run(tc.name, func(t *testing.T) {
			if b := measure(t, tc.bogus); b < floor {
				t.Errorf("b = %.3f ms/KB for a phone acking %v after each %d KB probe, want >= %.1f",
					b, ackDelay, probeKB, floor)
			}
		})
	}
}
