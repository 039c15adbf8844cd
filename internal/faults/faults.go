// Package faults is a deterministic, seedable fault-injection substrate
// for the CWC transport. It wraps net.Conn, net.Listener and dial
// functions so that every failure mode the paper's deployment suffers —
// slow links, lossy links, abrupt mid-frame disconnects, corrupted
// frames, refused connections — becomes a reproducible *input* to a test
// or experiment instead of an accident of the host network.
//
// All randomness is drawn from rand.Source seeded from the Plan, so the
// same seed yields the same injected fault plan; a chaos run can be
// replayed bit-for-bit at the decision level (which write is cut, which
// frame is corrupted) regardless of wall-clock timing.
//
// The layer sits *below* the protocol framing: a "frame" here is one
// Write call (the protocol package coalesces header and body into a
// single Write per frame), so cutting a connection mid-write is a
// mid-frame disconnect and flipping a byte in a write yields an
// undecodable frame at the peer. Partial writes split inside the one
// call, so a torn header remains a reachable fault.
package faults

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Profile is one link's fault configuration. The zero value injects
// nothing (a perfect link).
type Profile struct {
	// Seed drives this link's random decisions. Connections derived from
	// the same profile use Seed xor the connection ordinal, so every
	// reconnection sees a fresh but reproducible decision stream.
	Seed int64
	// LatencyMs is a fixed delay added to every write, plus a uniform
	// jitter in [0, JitterMs).
	LatencyMs float64
	JitterMs  float64
	// BandwidthKBps throttles writes to the given rate (0: unthrottled).
	BandwidthKBps float64
	// PartialWrite is the per-write probability that the write is split
	// into two bursts with a pause between them.
	PartialWrite float64
	// CorruptProb is the per-write probability of flipping one byte of
	// the payload (the peer sees an undecodable frame).
	CorruptProb float64
	// CutProb is the per-write probability of an abrupt disconnect after
	// only part of the payload has been written (a mid-frame cut).
	CutProb float64
	// CutEvery, when positive, deterministically cuts the connection on
	// every Nth write — "phone 3 drops every 2nd assignment mid-transfer"
	// style scenarios.
	CutEvery int
	// MaxCuts bounds the number of cuts per *profile* across all of its
	// connections (0: unlimited), so a scenario can fail twice and then
	// behave.
	MaxCuts int
	// RefuseProb is the probability that a dial (or accept) is refused
	// outright; RefuseEvery, when positive, refuses every Nth attempt
	// deterministically instead.
	RefuseProb  float64
	RefuseEvery int
}

// zero reports whether the profile injects nothing.
func (p Profile) zero() bool {
	return p == Profile{}
}

// EventKind classifies an injected fault.
type EventKind string

// Injected fault kinds.
const (
	Cut     EventKind = "cut"     // abrupt mid-write disconnect
	Corrupt EventKind = "corrupt" // one byte of a write flipped
	Partial EventKind = "partial" // write split into two bursts
	Refuse  EventKind = "refuse"  // dial/accept refused
)

// Event is one injected fault, for assertions and post-mortems.
type Event struct {
	Phone   int // phone index the profile belongs to (-1: listener side)
	ConnSeq int // connection ordinal for that phone (1-based)
	Op      int // write ordinal within the connection (0 for refusals)
	Kind    EventKind
}

// Recorder accumulates injected fault events.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *Recorder) add(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events snapshots the injected faults so far.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Count returns how many events of the given kind were injected.
func (r *Recorder) Count(kind EventKind) int {
	n := 0
	for _, e := range r.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// Plan maps phones to fault profiles: the fleet-wide fault scenario.
type Plan struct {
	Seed     int64
	Default  Profile // used for phones without a specific entry
	PerPhone map[int]Profile
	Waves    []Wave // coordinated unplug bands (see Schedule)
	// PrimaryKills and Partitions script control-plane faults for a
	// failover harness: when to SIGKILL-equivalently murder the primary
	// master (and optionally resurrect it), and when to sever one side of
	// the cluster. The faults package only parses and carries them — the
	// harness owning the processes interprets the directives, because
	// killing a master is not a per-link byte-level fault.
	PrimaryKills []PrimaryKill
	Partitions   []Partition
	// Liar, LazyResult and CorruptResult script compute-layer
	// misbehaviour over a seeded fraction of the fleet (see
	// ByzantineFor). Like the control-plane faults above, the package
	// only parses and carries them — the harness wiring workers applies
	// the expanded specs to the result frames each afflicted phone
	// writes.
	Liar          ByzDirective
	LazyResult    ByzDirective
	CorruptResult ByzDirective

	rec     Recorder
	mu      sync.Mutex
	cutsCnt map[int]int // per-phone cuts consumed (for MaxCuts)
	dialCnt map[int]int // per-phone dial attempts (for refusals/ordinals)
}

// PrimaryKill scripts one abrupt primary-master death.
type PrimaryKill struct {
	// At is when (from scenario start) the primary is killed: no bye
	// frames, no WAL shutdown record — the process just stops.
	At time.Duration
	// Resurrect, when positive, is how long after the kill the old
	// primary is brought back from its own WAL — the split-brain probe:
	// everything it then says must be fenced by epoch.
	Resurrect time.Duration
}

// Partition scripts one asymmetric network partition.
type Partition struct {
	// Start is when (from scenario start) the partition begins.
	Start time.Duration
	// Duration is how long it lasts; zero means until scenario end.
	Duration time.Duration
	// Target names the severed traffic: "replica" cuts primary→standby
	// replication (the standby's lease runs out while the primary still
	// serves workers), "workers" cuts worker↔primary traffic.
	Target string
}

// NewPlan derives a randomized-but-seeded plan giving every one of n
// phones a nonzero fault profile: a few ms of latency, a throttled link,
// occasional partial writes, rare corruption and mid-frame cuts, and a
// small chance of refused dials. Two calls with the same seed and n
// return identical plans.
func NewPlan(seed int64, n int) *Plan {
	rng := rand.New(rand.NewSource(seed))
	pl := &Plan{Seed: seed, PerPhone: make(map[int]Profile, n)}
	for i := 0; i < n; i++ {
		pl.PerPhone[i] = Profile{
			Seed:          rng.Int63(),
			LatencyMs:     0.5 + 2*rng.Float64(),
			JitterMs:      rng.Float64(),
			BandwidthKBps: 8192 + 8192*rng.Float64(),
			PartialWrite:  0.15,
			CorruptProb:   0.01 + 0.02*rng.Float64(),
			CutProb:       0.005 + 0.015*rng.Float64(),
			RefuseProb:    0.05 + 0.10*rng.Float64(),
		}
	}
	return pl
}

// ProfileFor returns the profile for phone i (falling back to Default).
func (pl *Plan) ProfileFor(i int) Profile {
	if p, ok := pl.PerPhone[i]; ok {
		return p
	}
	return pl.Default
}

// Recorder exposes the plan's injected-fault log.
func (pl *Plan) Recorder() *Recorder { return &pl.rec }

// allowCut consumes one cut credit for the phone; false once the
// profile's MaxCuts budget is spent.
func (pl *Plan) allowCut(phone, maxCuts int) bool {
	if maxCuts <= 0 {
		return true
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.cutsCnt == nil {
		pl.cutsCnt = map[int]int{}
	}
	if pl.cutsCnt[phone] >= maxCuts {
		return false
	}
	pl.cutsCnt[phone]++
	return true
}

// DialFunc matches worker.Config.Dial.
type DialFunc func(ctx context.Context) (net.Conn, error)

// ErrRefused is the error returned for injected connection refusals.
var ErrRefused = fmt.Errorf("faults: connection refused (injected)")

// Dialer wraps dial with phone i's profile: injected refusals at dial
// time and a fault-wrapped connection on success. Each dial attempt gets
// a deterministic ordinal, so "refuse every 2nd dial" replays exactly.
func (pl *Plan) Dialer(phone int, dial DialFunc) DialFunc {
	p := pl.ProfileFor(phone)
	refuseRng := rand.New(rand.NewSource(p.Seed ^ 0x5ef))
	return func(ctx context.Context) (net.Conn, error) {
		pl.mu.Lock()
		if pl.dialCnt == nil {
			pl.dialCnt = map[int]int{}
		}
		pl.dialCnt[phone]++
		seq := pl.dialCnt[phone]
		pl.mu.Unlock()
		refuse := p.RefuseEvery > 0 && seq%p.RefuseEvery == 0
		if !refuse && p.RefuseProb > 0 && refuseRng.Float64() < p.RefuseProb {
			refuse = true
		}
		if refuse {
			pl.rec.add(Event{Phone: phone, ConnSeq: seq, Kind: Refuse})
			return nil, fmt.Errorf("dial %d for phone %d: %w", seq, phone, ErrRefused)
		}
		c, err := dial(ctx)
		if err != nil {
			return nil, err
		}
		return pl.wrap(c, phone, seq, p), nil
	}
}

// wrap builds the fault-injecting connection for one accepted/dialed conn.
func (pl *Plan) wrap(c net.Conn, phone, seq int, p Profile) net.Conn {
	if p.zero() {
		return c
	}
	return &Conn{
		Conn:  c,
		prof:  p,
		plan:  pl,
		phone: phone,
		seq:   seq,
		wrng:  rand.New(rand.NewSource(p.Seed ^ int64(seq)<<1)),
	}
}

// Conn injects the profile's faults into every write of the wrapped
// connection. Reads pass through untouched: wrapping both endpoints (or
// the single endpoint whose misbehaviour is under study) covers both
// directions, and keeping injection on the writer side makes each
// decision stream deterministic — it depends only on that side's write
// ordinal, never on goroutine interleaving.
type Conn struct {
	net.Conn
	prof  Profile
	plan  *Plan
	phone int
	seq   int

	mu     sync.Mutex
	wrng   *rand.Rand
	writes int
	cut    bool
}

// Write applies latency, throttling, partial writes, corruption and cuts
// per the profile, then forwards to the wrapped connection.
func (fc *Conn) Write(b []byte) (int, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.cut {
		return 0, fmt.Errorf("faults: connection was cut (injected)")
	}
	fc.writes++
	p := fc.prof

	// Pacing: fixed latency + jitter, then a bandwidth-shaped delay.
	delay := time.Duration(p.LatencyMs * float64(time.Millisecond))
	if p.JitterMs > 0 {
		delay += time.Duration(p.JitterMs * fc.wrng.Float64() * float64(time.Millisecond))
	}
	if p.BandwidthKBps > 0 {
		kb := float64(len(b)) / 1024
		delay += time.Duration(kb / p.BandwidthKBps * float64(time.Second))
	}
	if delay > 0 {
		time.Sleep(delay)
	}

	cut := p.CutEvery > 0 && fc.writes%p.CutEvery == 0
	if !cut && p.CutProb > 0 && fc.wrng.Float64() < p.CutProb {
		cut = true
	}
	if cut && fc.plan != nil && !fc.plan.allowCut(fc.phone, p.MaxCuts) {
		cut = false
	}
	if cut {
		// Mid-frame disconnect: half the payload escapes, then the link dies.
		fc.record(Cut)
		fc.cut = true
		n, _ := fc.Conn.Write(b[:len(b)/2])
		fc.Conn.Close()
		return n, fmt.Errorf("faults: connection cut after %d of %d bytes (injected)", n, len(b))
	}

	if p.CorruptProb > 0 && len(b) > 0 && fc.wrng.Float64() < p.CorruptProb {
		fc.record(Corrupt)
		mangled := make([]byte, len(b))
		copy(mangled, b)
		mangled[fc.wrng.Intn(len(mangled))] ^= 0xff
		b = mangled
	}

	if p.PartialWrite > 0 && len(b) > 1 && fc.wrng.Float64() < p.PartialWrite {
		fc.record(Partial)
		half := len(b) / 2
		n, err := fc.Conn.Write(b[:half])
		if err != nil {
			return n, err
		}
		time.Sleep(time.Millisecond)
		n2, err := fc.Conn.Write(b[half:])
		return n + n2, err
	}
	return fc.Conn.Write(b)
}

func (fc *Conn) record(kind EventKind) {
	if fc.plan != nil {
		fc.plan.rec.add(Event{Phone: fc.phone, ConnSeq: fc.seq, Op: fc.writes, Kind: kind})
	}
}

// Listener wraps a net.Listener with accept-time refusals and fault
// wrapping using the plan's Default profile (a listener cannot know which
// phone is dialing before the protocol handshake).
type Listener struct {
	net.Listener
	plan *Plan

	mu  sync.Mutex
	rng *rand.Rand
	seq int
}

// WrapListener builds the fault-injecting listener.
func (pl *Plan) WrapListener(ln net.Listener) *Listener {
	return &Listener{
		Listener: ln,
		plan:     pl,
		rng:      rand.New(rand.NewSource(pl.Default.Seed ^ 0xacce97)),
	}
}

// SetDeadline sets the wrapped listener's accept deadline, as a hot
// standby paces its pre-promotion refusals with one. It fails when that
// listener takes none.
func (l *Listener) SetDeadline(t time.Time) error {
	dl, ok := l.Listener.(interface{ SetDeadline(time.Time) error })
	if !ok {
		return fmt.Errorf("faults: %T takes no deadline", l.Listener)
	}
	return dl.SetDeadline(t)
}

// Accept refuses connections per the Default profile (closing them
// immediately, so the dialer sees an instant disconnect) and wraps the
// ones it admits.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		p := l.plan.Default
		l.mu.Lock()
		l.seq++
		seq := l.seq
		refuse := p.RefuseEvery > 0 && seq%p.RefuseEvery == 0
		if !refuse && p.RefuseProb > 0 && l.rng.Float64() < p.RefuseProb {
			refuse = true
		}
		l.mu.Unlock()
		if refuse {
			l.plan.rec.add(Event{Phone: -1, ConnSeq: seq, Kind: Refuse})
			c.Close()
			continue
		}
		return l.plan.wrap(c, -1, seq, p), nil
	}
}
