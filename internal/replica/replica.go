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
// A stream opens with a cut of the primary's state: a frame that counts
// its records, then the records, framed as the primary's log frames
// them. The shipped records that follow are the log's own frames, so the
// standby's log, its snapshot file and the stream hold one format.
//
// The stream is one-directional and unacknowledged: the primary never
// waits for a standby (a standby that falls behind its bounded queue is
// dropped and resyncs from a fresh cut), so replication can slow a round
// down only by the cost of an in-memory enqueue.
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
	// recSnapshot opens (or reopens) a stream: the payload is a cutHeader,
	// and the cut's records follow it — the exact cut after which every
	// appended record is shipped.
	recSnapshot uint8 = 0xF0
	// recHeartbeat keeps the lease alive through idle stretches; the
	// payload carries the primary's epoch and how many records this
	// connection has shipped, for standby-side lag accounting.
	recHeartbeat uint8 = 0xF1
)

// cutHeader is recSnapshot's payload, one wire unit: how many records
// the cut holds. None is a frame of its own size, so no frame of the
// stream grows with the primary's state.
type cutHeader struct {
	Records int
}

func (h *cutHeader) Wire(c *wire.Codec) { wire.Int(c, 1, &h.Records) }

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
// is dropped and must resync from a fresh cut.
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
// connecting standby a cut followed by the live record stream.
type Shipper struct {
	opts   ShipperOptions
	source func(activate func(cut *server.Cut))
	epoch  func() int64

	mu     sync.Mutex
	subs   map[*subscriber]struct{} // guarded by mu
	closed bool                     // guarded by mu
	ln     net.Listener             // guarded by mu until Serve; read-only after

	wg    sync.WaitGroup
	stopc chan struct{}
}

// subscriber is one attached standby's queue. Each queued frame holds
// one reference, released once it is written or the subscriber is gone.
type subscriber struct {
	ch     chan *wal.Frame // closed exactly once when the standby is dropped
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

// BindMaster wires the shipper to its primary: the cut source for
// standby attaches and the epoch for heartbeats. Must be called before
// Serve (the master is constructed with the shipper already in its
// Config, so the two are created in that order).
func (s *Shipper) BindMaster(m *server.Master) {
	s.source = m.ReplicaSnapshot
	s.epoch = m.Epoch
}

// Ship implements server.ReplicaSink: queue a reference to the logged
// frame, never a copy, to every attached standby. Called on the master's
// loop, so it must never block, and never call a Master method — a
// standby whose queue is full is cut loose and reconnects for a fresh
// cut.
func (s *Shipper) Ship(f *wal.Frame) {
	var dropped []net.Addr
	s.mu.Lock()
	for sub := range s.subs {
		f.Retain()
		select {
		case sub.ch <- f:
			sub.sent.Add(1)
			sub.queued.Add(1)
		default:
			f.Release()
			dropped = append(dropped, sub.conn.RemoteAddr())
			s.dropLocked(sub)
		}
	}
	s.mu.Unlock()
	// Logged after the unlock: s.mu is a leaf, never held across a call
	// that takes another lock.
	for _, addr := range dropped {
		s.opts.Logger.Warnf("standby %s dropped: %d-record queue full", addr, queueLen)
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

// dropLocked detaches one subscriber and closes its connection, which
// unblocks a write in progress. Caller holds s.mu.
func (s *Shipper) dropLocked(sub *subscriber) {
	if sub.isGone {
		return
	}
	sub.isGone = true
	delete(s.subs, sub)
	close(sub.ch) // Ship sends only to attached subscribers, under s.mu
	sub.conn.Close()
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

// serveStandby attaches one standby: the cut first (registered in the
// master's loop step that cuts it, so it is exact; the registration
// calls no Master method), then the live stream
// interleaved with heartbeats until the connection, the subscriber, or
// the shipper dies.
func (s *Shipper) serveStandby(conn net.Conn) {
	defer conn.Close()
	sub := &subscriber{
		ch:   make(chan *wal.Frame, queueLen),
		conn: conn,
	}
	var cut *server.Cut
	s.source(func(c *server.Cut) {
		cut = c
		s.mu.Lock()
		if s.closed {
			sub.isGone = true
			close(sub.ch)
		} else {
			s.subs[sub] = struct{}{}
		}
		s.mu.Unlock()
	})
	defer func() {
		s.mu.Lock()
		s.dropLocked(sub)
		s.mu.Unlock()
		for f := range sub.ch {
			f.Release()
		}
	}()
	var hbc wire.Codec
	head, err := wire.Encode(&hbc, 0, &cutHeader{Records: cut.Len()})
	if err != nil {
		return
	}
	s.opts.Logger.Infof("standby attached from %s (cut of %d records)", conn.RemoteAddr(), cut.Len())
	// The cut is framed as it is written, a record at a time, while the
	// live stream queues behind it.
	if _, err = conn.Write(wal.EncodeRecord(recSnapshot, head)); err == nil {
		_, err = cut.WriteTo(conn)
	}
	cut = nil // the live stream's goroutine must not pin the cut
	if err != nil {
		s.opts.Logger.Warnf("standby %s: writing cut: %v", conn.RemoteAddr(), err)
		return
	}
	hb := time.NewTicker(heartbeatPeriod)
	defer hb.Stop()
	for {
		select {
		case f, ok := <-sub.ch:
			if !ok {
				return
			}
			_, err := conn.Write(f.Bytes())
			f.Release()
			if err != nil {
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
		case <-s.stopc:
			return
		}
	}
}

// DropAll implements server.ReplicaSink: it severs every attached
// standby's live stream while the shipper keeps accepting. The master
// calls it when it re-anchors its log; harnesses call it to inject a
// replication partition.
func (s *Shipper) DropAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sub := range s.subs {
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
		s.dropLocked(sub)
	}
	s.mu.Unlock()
	close(s.stopc)
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}
