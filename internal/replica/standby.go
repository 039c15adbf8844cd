package replica

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cwc/internal/obs"
	"cwc/internal/server"
	"cwc/internal/wal"
	"cwc/internal/wire"
)

// errStandbyWAL marks a local-durability failure (the standby's own log
// rejected a write): the one fault a resync cannot repair, so Run stops
// instead of retrying.
var errStandbyWAL = errors.New("replica: standby log failure")

// StandbyOptions tunes a hot standby.
type StandbyOptions struct {
	// PrimaryAddr is the primary's replication listen address.
	PrimaryAddr string
	// Dial overrides the transport (tests, fault injection); the default
	// dials PrimaryAddr over TCP.
	Dial func(ctx context.Context) (net.Conn, error)
	// WALDir is the standby's own log directory: every shipped record
	// the fold accepts is persisted here, so promotion recovers from
	// disk exactly like any master restart — the shipped stream is never
	// trusted beyond what the local log took.
	WALDir string
	// WALOptions tune the standby's log (sync policy, compaction).
	WALOptions wal.Options
	// Lease is how long replication may stay silent (no records, no
	// heartbeats, no successful dial) before the standby declares the
	// primary dead and promotes itself. Default 2 s; it should comfortably
	// exceed the primary's heartbeat period. Redials while the primary is
	// unreachable are paced at an eighth of it.
	Lease time.Duration
	// MasterConfig is the server configuration the promoted master runs
	// with. Set Listener to a pre-bound takeover listener (workers that
	// dial it before promotion get an immediate close, so their failover
	// rotation moves on quickly); otherwise Addr is bound at promotion.
	// The WAL field is owned by the standby and overwritten.
	MasterConfig server.Config
	// Logger receives standby lifecycle events; nil discards. Metrics,
	// when set, exposes cwc_replica_lag_records from the standby's side
	// (heartbeat-shipped minus locally applied).
	Logger  *obs.Logger
	Metrics *obs.Registry
}

// Standby follows a primary's replication stream and promotes itself to
// a full master when the lease runs out. One Standby is single-use:
// Run → (stream, possibly across many reconnects) → promotion.
type Standby struct {
	opts StandbyOptions
	lag  *obs.Gauge // cwc_replica_lag_records; nil without Options.Metrics

	promoted chan struct{} // closed once the promoted master is serving
	handover chan struct{} // closed to reclaim the takeover listener

	// Written once by promote, before it closes promoted; read only after
	// a receive from promoted, which orders the read after the write.
	master *server.Master
	wlog   *wal.Log

	wg sync.WaitGroup
}

// New creates a standby; call Run to start following.
func New(opts StandbyOptions) *Standby {
	if opts.Lease <= 0 {
		opts.Lease = 2 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = obs.Discard()
	}
	if opts.Dial == nil {
		addr := opts.PrimaryAddr
		var d net.Dialer
		opts.Dial = func(ctx context.Context) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	s := &Standby{
		opts:     opts,
		promoted: make(chan struct{}),
		handover: make(chan struct{}),
	}
	if opts.Metrics != nil {
		s.lag = opts.Metrics.NewGauge("cwc_replica_lag_records", "WAL records the primary has shipped that this standby has not yet applied")
	}
	return s
}

// Promoted is closed once the standby has promoted itself and its
// master is serving.
func (s *Standby) Promoted() <-chan struct{} { return s.promoted }

// Master returns the promoted master (nil before Promoted closes).
func (s *Standby) Master() *server.Master {
	select {
	case <-s.promoted:
		return s.master
	default:
		return nil
	}
}

// Log returns the promoted master's log, which the caller closes after
// Master().Close() (nil before Promoted closes).
func (s *Standby) Log() *wal.Log {
	select {
	case <-s.promoted:
		return s.wlog
	default:
		return nil
	}
}

// Run follows the primary until the lease expires, then promotes, and
// returns nil with the promoted master serving. It returns early on
// context cancellation or an unrecoverable local fault (a wedged
// standby log). The lease clock starts now: a primary that is already
// dead costs exactly one lease of patience.
func (s *Standby) Run(ctx context.Context) error {
	wl, err := wal.Open(s.opts.WALDir, s.opts.WALOptions)
	if err != nil {
		return fmt.Errorf("replica: opening standby wal: %w", err)
	}
	if ln := s.opts.MasterConfig.Listener; ln != nil {
		s.wg.Add(1)
		go s.refuseUntilPromoted(ln)
	}
	fold := server.NewWALFold()
	lastHeard := time.Now()
	for {
		if ctx.Err() != nil {
			wl.Close()
			return ctx.Err()
		}
		if time.Since(lastHeard) > s.opts.Lease {
			s.opts.Logger.Warnf("lease expired after %v of silence: promoting", s.opts.Lease)
			return s.promote(wl, fold)
		}
		conn, err := s.opts.Dial(ctx)
		if err != nil {
			// Dial failures count as silence: the lease keeps draining.
			s.opts.Logger.Debugf("primary unreachable: %v", err)
			select {
			case <-time.After(s.opts.Lease / 8):
			case <-ctx.Done():
			}
			continue
		}
		err = s.follow(ctx, conn, wl, fold, &lastHeard)
		conn.Close()
		if err != nil {
			if errors.Is(err, errStandbyWAL) {
				wl.Close()
				return err
			}
			s.opts.Logger.Warnf("stream lost: %v", err)
		}
	}
}

// follow consumes one replication connection: the cut, then records
// (fold → persist) and heartbeats, refreshing lastHeard on every frame.
// Returns when the connection breaks, the stream stalls a full lease, or
// a record fails to persist or fold.
func (s *Standby) follow(ctx context.Context, conn net.Conn, wl *wal.Log, fold *server.WALFold, lastHeard *time.Time) error {
	sr := wal.NewStreamReader(bufio.NewReaderSize(conn, 64<<10))
	// next reads one frame. Clean cut, torn record, corruption, timeout:
	// any error ends this connection; the torn record was never applied
	// (StreamReader yields only complete, checksummed records) and a
	// reconnect resyncs from a fresh cut.
	next := func() (wal.Record, []byte, error) {
		if ctx.Err() != nil {
			return wal.Record{}, nil, ctx.Err()
		}
		// A silent-but-open connection must not outlive the lease. A conn
		// that refuses a deadline is already dead — keep reading so any
		// buffered complete frames still apply; the read reports the end.
		_ = conn.SetReadDeadline(time.Now().Add(s.opts.Lease))
		// Each record is read into a buffer of its own, which the fold
		// keeps what it holds of (WALFold.Apply): a record costs the
		// standby its shipped bytes, coded as they came, and no copy.
		rec, frame, err := sr.Next()
		if err == nil {
			*lastHeard = time.Now()
		}
		return rec, frame, err
	}
	var connApplied int64
	sawCut := false
	for {
		rec, frame, err := next()
		if err != nil {
			return err
		}
		switch rec.Type {
		case recSnapshot:
			if sawCut {
				return fmt.Errorf("replica: unexpected mid-stream cut")
			}
			sawCut = true
			var head cutHeader
			if err := wire.Decode(rec.Payload, &head); err != nil {
				return fmt.Errorf("replica: decoding cut header: %w", err)
			}
			if err := installCut(head.Records, next, wl, fold); err != nil {
				return err
			}
			s.opts.Logger.Infof("synced cut from primary (%d records, epoch %d)", head.Records, fold.Epoch())
		case recHeartbeat:
			var hb heartbeat
			if err := wire.Decode(rec.Payload, &hb); err != nil {
				return fmt.Errorf("replica: decoding heartbeat: %w", err)
			}
			s.setLag(hb.Shipped - connApplied)
		default:
			if !sawCut {
				return fmt.Errorf("replica: record before the cut")
			}
			// Fold, then persist. A record names byte ranges by reference,
			// and one whose references do not resolve here must not reach
			// the local log: promotion replays that log and would refuse it.
			// Drop the stream instead; the reconnect resyncs from a fresh
			// cut.
			if err := fold.Apply(rec); err != nil {
				return fmt.Errorf("replica: folding shipped record: %w", err)
			}
			// Promotion trusts only the local log, so a record the log did
			// not take ends the standby (the fold is ahead of it for good).
			// The frame is logged as shipped: no re-framing, no second CRC.
			if err := wl.AppendFrame(frame); err != nil {
				return fmt.Errorf("%w: persisting shipped record: %v", errStandbyWAL, err)
			}
			connApplied++
			if wl.CompactDue() {
				if err := wl.Compact(fold.Snapshot); err != nil {
					return fmt.Errorf("%w: compacting standby log: %v", errStandbyWAL, err)
				}
			}
		}
	}
}

// installCut reads the n records of a cut from next. The cut supersedes
// everything the standby holds: the fold starts over from it, and the
// log rotates to it, each record written as it arrived, so disk and fold
// agree on where the stream starts. A cut that does not arrive whole
// leaves the log as it was.
func installCut(n int, next func() (wal.Record, []byte, error), wl *wal.Log, fold *server.WALFold) error {
	fold.Reset()
	var streamErr error
	err := wl.Compact(func(w io.Writer) error {
		for i := 1; i <= n; i++ {
			rec, frame, err := next()
			if err == nil {
				err = fold.Apply(rec)
			}
			if err != nil {
				streamErr = fmt.Errorf("replica: cut record %d of %d: %w", i, n, err)
				return streamErr
			}
			if _, err := w.Write(frame); err != nil {
				return err
			}
		}
		return nil
	})
	switch {
	case streamErr != nil:
		return streamErr
	case err != nil:
		return fmt.Errorf("%w: installing cut: %v", errStandbyWAL, err)
	}
	return nil
}

func (s *Standby) setLag(lag int64) {
	if s.lag == nil {
		return
	}
	s.lag.Set(float64(max(lag, 0)))
}

// refuseUntilPromoted owns the pre-bound takeover listener before
// promotion: workers trying the standby's address early get an
// immediate close — a fast, deterministic "not yet" that sends their
// failover rotation back to the primary — instead of a hung handshake.
// Accept is deadline-paced so promotion can reclaim the listener
// without closing it (the port must survive into the promoted master).
func (s *Standby) refuseUntilPromoted(ln net.Listener) {
	defer s.wg.Done()
	type deadliner interface{ SetDeadline(time.Time) error }
	dl, _ := ln.(deadliner)
	for {
		select {
		case <-s.handover:
			return
		default:
		}
		if dl != nil {
			_ = dl.SetDeadline(time.Now().Add(50 * time.Millisecond))
		}
		c, err := ln.Accept()
		if err == nil {
			c.Close()
			continue
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			continue
		}
		return // listener closed underneath us
	}
}

// promote turns the standby into a serving master: reclaim the takeover
// listener, reopen the log so recovery sees everything the stream
// persisted, replay it with the standard RecoverWAL machinery, bump the
// fencing epoch (durably, before the first worker is welcomed), and
// start serving.
func (s *Standby) promote(wl *wal.Log, fold *server.WALFold) error {
	close(s.handover)
	s.wg.Wait()
	if ln := s.opts.MasterConfig.Listener; ln != nil {
		if dl, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
			_ = dl.SetDeadline(time.Time{})
		}
	}
	streamEpoch := fold.Epoch()
	if err := wl.Close(); err != nil {
		return fmt.Errorf("replica: closing standby log for promotion: %w", err)
	}
	// Reopen: wal.Open is what populates Recovered(), so the promoted
	// master recovers from disk exactly like a restarted one.
	wl2, err := wal.Open(s.opts.WALDir, s.opts.WALOptions)
	if err != nil {
		return fmt.Errorf("replica: reopening standby log: %w", err)
	}
	cfg := s.opts.MasterConfig
	cfg.WAL = wl2
	if cfg.Role == "" {
		cfg.Role = "promoted-primary"
	}
	if cfg.Logger == nil {
		cfg.Logger = s.opts.Logger
	}
	m := server.New(cfg)
	if err := m.RecoverWAL(); err != nil {
		wl2.Close()
		return fmt.Errorf("replica: recovering replicated state: %w", err)
	}
	epoch, err := m.BumpEpoch()
	if err != nil {
		wl2.Close()
		return fmt.Errorf("replica: fencing promotion: %w", err)
	}
	// Annotate the trace with the regime boundary: a timeline read off
	// the promoted master shows where the standby took over and which
	// epoch the replication stream had caught up to.
	cfg.Tracer.Record(obs.SpanEvent{
		Kind: obs.KindPromote, Job: -1, Partition: -1, Phone: -1, Epoch: epoch,
		Detail: fmt.Sprintf("standby promotion: stream epoch %d, serving epoch %d", streamEpoch, epoch),
	})
	if err := m.Start(); err != nil {
		wl2.Close()
		return fmt.Errorf("replica: starting promoted master: %w", err)
	}
	s.master = m
	s.wlog = wl2
	close(s.promoted)
	s.opts.Logger.Infof("promoted: serving on %s at epoch %d (stream epoch was %d)", m.Addr(), epoch, streamEpoch)
	return nil
}
