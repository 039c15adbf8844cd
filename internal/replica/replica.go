// Package replica is the hot-standby layer for the CWC master: a
// primary streams every WAL record live to standbys over a TCP stream
// carrying the exact CRC framing internal/wal puts on disk, each
// standby persists and folds the stream so its state tracks the
// primary, and a lease protocol promotes a standby when the primary
// goes silent.
//
// Correctness across a failover rests on epoch fencing: a monotone
// epoch is persisted as WAL record type 11 and bumped on every
// promotion (and once when replication is first enabled). The welcome
// frame announces the epoch, workers echo it on every report frame, and
// a master rejects frames stamped with any other regime's epoch — so a
// resurrected old primary, or the losing side of a partition, can never
// double-accept results or mis-pair a stale report with a fresh attempt.
//
// The stream is one-directional and unacknowledged: the primary never
// waits for a standby (a standby that falls behind its bounded queue is
// dropped and resyncs from a fresh snapshot), so replication can slow a
// round down only by the cost of an in-memory enqueue.
package replica

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cwc/internal/obs"
	"cwc/internal/server"
	"cwc/internal/wal"
	"cwc/internal/wire"
)

// Stream frame types, deliberately outside the server's WAL record
// range so a misrouted frame can never be mistaken for a log record.
const (
	// recSnapshot opens (or reopens) a stream: the payload is the
	// primary's serialized walState snapshot — the exact cut after which
	// every appended record is shipped.
	recSnapshot uint8 = 0xF0
	// recHeartbeat keeps the lease alive through idle stretches; the
	// payload carries the primary's epoch and how many records this
	// connection has shipped, for standby-side lag accounting.
	recHeartbeat uint8 = 0xF1
)

// heartbeat is recHeartbeat's payload, one wire unit.
type heartbeat struct {
	Epoch   int64
	Shipped int64
}

func (h *heartbeat) Wire(c *wire.Codec) {
	wire.Int(c, 1, &h.Epoch)
	wire.Int(c, 2, &h.Shipped)
}

// heartbeatPeriod paces heartbeat frames (and therefore how quickly a
// standby notices silence relative to its lease). queueLen bounds each
// standby's in-flight record queue; a standby that falls further behind
// is dropped and must resync from a fresh snapshot.
const (
	heartbeatPeriod = 100 * time.Millisecond
	queueLen        = 4096
)

// ShipperOptions tunes a primary-side Shipper.
type ShipperOptions struct {
	// Logger receives shipper events; nil discards.
	Logger *obs.Logger
}

// Shipper is the primary side of replication: it implements
// server.ReplicaSink (wire it into server.Config.ReplicaSink before
// server.New) and serves the replication listen address, handing every
// connecting standby a snapshot cut followed by the live record stream.
type Shipper struct {
	opts   ShipperOptions
	source func(activate func(snapshot []byte)) error
	epoch  func() int64

	mu      sync.Mutex
	subs    map[*subscriber]struct{} // guarded by mu
	shipped int64                    // guarded by mu; records shipped since start
	closed  bool                     // guarded by mu
	ln      net.Listener             // guarded by mu until Serve; read-only after

	wg    sync.WaitGroup
	stopc chan struct{}
}

// subscriber is one attached standby's queue.
type subscriber struct {
	ch     chan []byte
	gone   chan struct{} // closed exactly once when the standby is dropped
	conn   net.Conn
	sent   atomic.Int64 // records enqueued on this connection
	queued atomic.Int64 // records enqueued but not yet written
	isGone bool         // owned by the Shipper; only touched under its mu
}

// NewShipper creates a shipper; call BindMaster, then Serve.
func NewShipper(opts ShipperOptions) *Shipper {
	if opts.Logger == nil {
		opts.Logger = obs.Discard()
	}
	return &Shipper{
		opts:  opts,
		subs:  map[*subscriber]struct{}{},
		stopc: make(chan struct{}),
	}
}

// BindMaster wires the shipper to its primary: the snapshot source for
// standby attaches and the epoch for heartbeats. Must be called before
// Serve (the master is constructed with the shipper already in its
// Config, so the two are created in that order).
func (s *Shipper) BindMaster(m *server.Master) {
	s.source = m.ReplicaSnapshot
	s.epoch = m.Epoch
}

// Ship implements server.ReplicaSink: enqueue one appended record to
// every attached standby. Called with the master's state lock held, so
// it must never block — a standby whose queue is full is cut loose and
// reconnects for a fresh snapshot. With no standby attached the record
// is counted and not copied.
func (s *Shipper) Ship(typ uint8, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shipped++
	if len(s.subs) == 0 {
		return
	}
	frame := wal.EncodeRecord(typ, payload)
	for sub := range s.subs {
		select {
		case sub.ch <- frame:
			sub.sent.Add(1)
			sub.queued.Add(1)
		default:
			s.opts.Logger.Warnf("standby %s dropped: %d-record queue full", sub.conn.RemoteAddr(), cap(sub.ch))
			s.dropLocked(sub)
		}
	}
}

// Lag implements server.ReplicaSink: the slowest attached standby's
// backlog of enqueued-but-unwritten records.
func (s *Shipper) Lag() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var lag int64
	for sub := range s.subs {
		if q := sub.queued.Load(); q > lag {
			lag = q
		}
	}
	return lag
}

// dropLocked detaches one subscriber. Caller holds s.mu.
func (s *Shipper) dropLocked(sub *subscriber) {
	if sub.isGone {
		return
	}
	sub.isGone = true
	delete(s.subs, sub)
	close(sub.gone)
}

// Serve starts accepting standbys on ln; it returns immediately. The
// listener dies with Close.
func (s *Shipper) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
}

func (s *Shipper) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveStandby(conn)
		}()
	}
}

// serveStandby attaches one standby: snapshot first (registered under
// the master's state lock so the cut is exact), then the live stream
// interleaved with heartbeats until the connection, the subscriber, or
// the shipper dies.
func (s *Shipper) serveStandby(conn net.Conn) {
	defer conn.Close()
	sub := &subscriber{
		ch:   make(chan []byte, queueLen),
		gone: make(chan struct{}),
		conn: conn,
	}
	var snap []byte
	err := s.source(func(b []byte) {
		snap = b
		s.mu.Lock()
		if s.closed {
			sub.isGone = true
			close(sub.gone)
		} else {
			s.subs[sub] = struct{}{}
		}
		s.mu.Unlock()
	})
	if err != nil {
		s.opts.Logger.Errorf("standby %s: snapshot cut failed: %v", conn.RemoteAddr(), err)
		return
	}
	defer func() {
		s.mu.Lock()
		s.dropLocked(sub)
		s.mu.Unlock()
	}()
	s.opts.Logger.Infof("standby attached from %s (snapshot %d bytes)", conn.RemoteAddr(), len(snap))
	if _, err := conn.Write(wal.EncodeRecord(recSnapshot, snap)); err != nil {
		s.opts.Logger.Warnf("standby %s: writing snapshot: %v", conn.RemoteAddr(), err)
		return
	}
	hb := time.NewTicker(heartbeatPeriod)
	defer hb.Stop()
	var hbc wire.Codec
	for {
		select {
		case frame := <-sub.ch:
			if _, err := conn.Write(frame); err != nil {
				s.opts.Logger.Warnf("standby %s: stream write: %v", conn.RemoteAddr(), err)
				return
			}
			sub.queued.Add(-1)
		case <-hb.C:
			b, err := wire.Encode(&hbc, 0, &heartbeat{Epoch: s.epoch(), Shipped: sub.sent.Load()})
			if err != nil {
				return
			}
			if _, err := conn.Write(wal.EncodeRecord(recHeartbeat, b)); err != nil {
				s.opts.Logger.Warnf("standby %s: heartbeat write: %v", conn.RemoteAddr(), err)
				return
			}
		case <-sub.gone:
			return
		case <-s.stopc:
			return
		}
	}
}

// DropAll severs every attached standby's live stream while the shipper
// keeps accepting — the harness hook for injecting a replication
// partition (a router-level cut kills established connections, not just
// future dials).
func (s *Shipper) DropAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sub := range s.subs {
		sub.conn.Close() // unblock any in-progress Write
		s.dropLocked(sub)
	}
}

// Close stops accepting, drops every standby, and waits for the
// shipper's goroutines. Ship calls after Close are no-ops (the
// subscriber set is already empty).
func (s *Shipper) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	for sub := range s.subs {
		sub.conn.Close() // unblock any in-progress Write
		s.dropLocked(sub)
	}
	s.mu.Unlock()
	close(s.stopc)
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}
