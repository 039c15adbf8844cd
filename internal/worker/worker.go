// Package worker implements the phone-side CWC runtime: the software the
// prototype installs on each Android phone. It maintains a persistent TCP
// connection to the central server, registers the phone's capabilities,
// answers bandwidth probes and keepalives, and executes whatever task
// executables the server assigns — the automated-execution property of
// §4.2 (no human in the loop).
//
// A worker emulates the paper's failure modes on demand: Unplug() is the
// online failure (the running task checkpoints and the failure report with
// migration state reaches the server before the phone leaves); Vanish()
// is the offline failure (the connection just dies and the server must
// notice via missed keepalives).
package worker

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"cwc/internal/obs"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
)

// Config describes the phone this worker emulates.
type Config struct {
	// ServerAddr is the master's address, or a comma-separated failover
	// list ("primary:9128,standby:9128"): the worker dials the addresses
	// in order, rotating to the next on every failed attempt, so a fleet
	// survives a master failover without reconfiguration.
	ServerAddr string
	Model      string
	CPUMHz     float64
	RAMMB      int
	// DelayPerKB emulates a slower CPU by sleeping this long per KB of
	// input before real processing; zero for full speed. The sleep is
	// execution time and is reported as such (the result's ExecMs, the
	// cumulative stats and the exec_finish event all include it), so the
	// master's refined c_ij sees the emulated CPU. It is interruptible,
	// so unplugging still checkpoints promptly.
	DelayPerKB time.Duration
	// Dial overrides the transport (tests and in-process clusters);
	// defaults to TCP to ServerAddr.
	Dial func(ctx context.Context) (net.Conn, error)
	// Charging, when set, emulates the phone's battery and throttles
	// task execution with the MIMD duty-cycle controller so computing
	// does not delay the charge (§4.3).
	Charging *Charging
	// AuthToken is presented to the server at registration when the
	// deployment uses a shared enrolment secret.
	AuthToken string
	// CheckpointEveryKB and CheckpointEvery tune checkpoint streaming:
	// while executing, the worker serializes its checkpoint after this
	// many KB of input processed and/or this much wall time, and streams
	// it to the master so even a silent death loses at most one interval
	// of work. Zero adopts the server-announced policy from the welcome;
	// a negative value disables that trigger regardless of the server.
	CheckpointEveryKB int
	CheckpointEvery   time.Duration
	// Reconnect tunes how the phone retries the server after a dial or
	// I/O failure. Zero values get defaults; see ReconnectPolicy.
	Reconnect ReconnectPolicy
	// Byzantine makes this worker deliberately misbehave — lie, slack, or
	// corrupt its reports — for result-integrity testing. The zero value
	// is an honest worker.
	Byzantine Byzantine
	// Metrics, when set, is this worker's own obs registry: every minted
	// telemetry span event is counted into cwc_worker_events_total{kind}
	// regardless of whether the master asked for telemetry. Nil skips
	// the counting entirely.
	Metrics *obs.Registry
	// Blackbox, when set, shadows every minted span event into the
	// worker's black-box flight recorder, a tracer ring the daemon dumps
	// on panic or SIGQUIT. Independent of the master's telemetry opt-in.
	Blackbox *obs.Tracer
}

// Byzantine configures deliberate worker misbehaviour, the adversary the
// result-integrity layer (digests, replicated voting, audits,
// reputation quarantine) exists to defeat. All decisions are drawn from
// a seeded source, so a byzantine fleet misbehaves reproducibly.
type Byzantine struct {
	// LiarProb is the per-result probability that a correctly computed
	// result is replaced with a wrong-but-well-formed value *before* the
	// digest is computed: the frame is internally consistent and only
	// replicated voting or an audit can catch it.
	LiarProb float64
	// LazyProb is the per-assignment probability that the worker skips
	// execution entirely and fabricates a result without reading the
	// input — the freeloader that banks reputation while doing no work.
	LazyProb float64
	// CorruptProb is the per-result probability that one byte of the
	// result is flipped *after* the digest is computed: the claimed
	// digest no longer matches the payload, so the master can catch it
	// from the single frame (flaky flash, not an adversary).
	CorruptProb float64
	// Seed drives the misbehaviour decisions; zero derives one from the
	// phone's CPU clock so distinct phones still diverge.
	Seed int64
}

// zero reports whether the spec configures no misbehaviour.
func (b Byzantine) zero() bool {
	return b.LiarProb == 0 && b.LazyProb == 0 && b.CorruptProb == 0
}

// ReconnectPolicy is capped exponential backoff with jitter for the
// worker's connection to the master. A phone on a flaky charger-side WiFi
// link must rejoin on its own rather than die on the first I/O error.
type ReconnectPolicy struct {
	// Disabled turns reconnection off: Run returns on the first failure
	// (the pre-reconnect behavior, still used by single-shot tests).
	Disabled bool
	// BaseDelay is the first retry delay (default 100 ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 5 s).
	MaxDelay time.Duration
	// MaxAttempts bounds consecutive failed connection attempts before
	// Run gives up (default 10; negative means retry forever). The
	// counter resets whenever a connection reaches registration.
	MaxAttempts int
	// HandshakeTimeout bounds how long a fresh connection may wait for
	// the server's welcome (default 10 s). Without it a hello mangled in
	// transit wedges the worker forever: the server is waiting for bytes
	// that never come and the worker is waiting for a welcome that never
	// comes. On expiry the attempt counts as a connection failure and is
	// retried with backoff.
	HandshakeTimeout time.Duration
	// Seed drives the jitter; zero uses an unseeded source.
	Seed int64
}

func (r ReconnectPolicy) fill() ReconnectPolicy {
	if r.BaseDelay == 0 {
		r.BaseDelay = 100 * time.Millisecond
	}
	if r.MaxDelay == 0 {
		r.MaxDelay = 5 * time.Second
	}
	if r.MaxAttempts == 0 {
		r.MaxAttempts = 10
	}
	if r.HandshakeTimeout == 0 {
		r.HandshakeTimeout = 10 * time.Second
	}
	return r
}

// The delay doubles per consecutive failure and is spread uniformly over
// ±reconnectJitter, so a fleet disconnected by one event does not redial
// in lockstep.
const (
	reconnectMultiplier = 2
	reconnectJitter     = 0.2
)

// delay computes the backoff before the attempt-th consecutive retry
// (attempt counts from 1).
func (r ReconnectPolicy) delay(attempt int, rng *rand.Rand) time.Duration {
	d := float64(r.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= reconnectMultiplier
		if d >= float64(r.MaxDelay) {
			d = float64(r.MaxDelay)
			break
		}
	}
	d *= 1 + reconnectJitter*(2*rng.Float64()-1)
	return time.Duration(d)
}

// maxAssignBytes bounds the total_len a chunked assignment may announce.
// The assembled input is one in-memory []byte and no phone holds two
// gigabytes of it, so anything larger is a corrupt or hostile frame.
const maxAssignBytes = 1<<31 - 1

// appendChunk appends one chunk of a chunked assignment to the input
// assembled so far, whose announced final size is total. The buffer
// grows as chunks land — to at most twice the bytes received, never past
// total — so a hostile total_len alone commits no memory.
func appendChunk(input, chunk []byte, total int64) []byte {
	need := len(input) + len(chunk)
	if need > cap(input) {
		grown := make([]byte, len(input), min(total, 2*int64(need)))
		copy(grown, input)
		input = grown
	}
	return append(input, chunk...)
}

// received is an assignment on its way to the executor, with the
// connection whose receive buffer holds its byte fields.
type received struct {
	m    *protocol.Message
	conn *protocol.Conn
}

// maxUnsent bounds the buffer of reports awaiting a reconnect; beyond it
// the oldest information is simply lost (the server re-queues the work).
const maxUnsent = 32

// Phone is a running worker.
type Phone struct {
	cfg Config

	mu             sync.Mutex
	conn           *protocol.Conn         // guarded by mu
	id             int                    // guarded by mu
	everRegistered bool                   // guarded by mu; a Welcome was received at least once
	unplug         context.CancelFunc     // guarded by mu; cancels the in-flight task
	leaving        bool                   // guarded by mu; Unplug called: report failure then close
	vanished       bool                   // guarded by mu; Vanish called: die silently
	lastAttempt    int64                  // guarded by mu; newest dispatch attempt received on this connection
	drainedThrough int64                  // guarded by mu; server drain: attempts up to this one report "drained", stay connected
	sink           *tasks.CheckpointSink  // guarded by mu; streaming sink of the in-flight execution
	unsent         []*protocol.Message    // guarded by mu
	ckptKB         int                    // guarded by mu; server-announced checkpoint-streaming policy
	ckptMs         int                    // guarded by mu
	ckptUnacked    int                    // guarded by mu; streamed checkpoints awaiting a checkpoint_ack
	epoch          int64                  // guarded by mu; master regime from the last welcome (0 = untracked)
	telemetry      bool                   // guarded by mu; the last welcome asked for worker telemetry
	telEvents      []protocol.WorkerEvent // guarded by mu; span events awaiting a shipping opportunity
	telDropped     int64                  // guarded by mu; events dropped to the buffer bound since the last shipped frame
	stats          Stats                  // guarded by mu; ThrottlePauses is read off the throttle instead

	registered chan struct{} // closed once Welcome arrives
	regOnce    sync.Once

	throttle *throttleRunner // nil unless cfg.Charging is set

	// byzRng drives Byzantine misbehaviour decisions. It is touched only
	// by the single executor goroutine, so it needs no lock.
	byzRng *rand.Rand
}

// Stats is a worker's cumulative self-metering since its process
// started, for the embedding program to read in-process. It never goes
// on the wire: the master counts what it observes itself, and learns the
// rest from span events.
type Stats struct {
	// ExecMs is total task execution wall time.
	ExecMs float64
	// TransferKB is total assignment input received (assign + chunks).
	TransferKB float64
	// ThrottlePauses counts MIMD charging-throttle holds.
	ThrottlePauses int
	// Reconnects counts successful re-registrations after a lost
	// connection.
	Reconnects int
	// CkptFrames and CkptKB count streamed mid-execution checkpoints.
	CkptFrames int
	CkptKB     float64
	// Assignments counts partitions accepted for execution.
	Assignments int
}

// addTransfer meters received assignment input bytes.
func (p *Phone) addTransfer(n int) {
	p.mu.Lock()
	p.stats.TransferKB += float64(n) / 1024
	p.mu.Unlock()
}

// Stats returns the worker's cumulative self-metering.
func (p *Phone) Stats() Stats {
	p.mu.Lock()
	s := p.stats
	p.mu.Unlock()
	if p.throttle != nil {
		s.ThrottlePauses = p.throttle.Pauses()
	}
	return s
}

// New creates a worker; call Run to connect and serve.
func New(cfg Config) (*Phone, error) {
	if cfg.CPUMHz <= 0 {
		return nil, fmt.Errorf("worker: non-positive CPU clock %v", cfg.CPUMHz)
	}
	if cfg.Dial == nil && cfg.ServerAddr == "" {
		return nil, errors.New("worker: no server address and no dialer")
	}
	p := &Phone{cfg: cfg, registered: make(chan struct{})}
	if cfg.Charging != nil {
		p.throttle = newThrottleRunner(cfg.Charging)
		p.throttle.onPause = func() {
			p.event(protocol.EventThrottlePause, "", 0, 0, 0, 0, "")
		}
	}
	if !cfg.Byzantine.zero() {
		seed := cfg.Byzantine.Seed
		if seed == 0 {
			seed = int64(cfg.CPUMHz*1000) + 41
		}
		p.byzRng = rand.New(rand.NewSource(seed))
	}
	return p, nil
}

// BatteryPercent returns the emulated battery level, or -1 when charging
// emulation is off.
func (p *Phone) BatteryPercent() float64 {
	if p.throttle == nil {
		return -1
	}
	return p.throttle.Percent()
}

// ID returns the server-assigned phone ID (valid after WaitRegistered).
func (p *Phone) ID() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.id
}

// WaitRegistered blocks until the server has welcomed this phone.
func (p *Phone) WaitRegistered(ctx context.Context) error {
	select {
	case <-p.registered:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("worker: registration: %w", ctx.Err())
	}
}

// Run connects, registers and serves assignments until the context is
// canceled, the server says goodbye, or the phone is unplugged. A nil
// error means an orderly exit. Unless reconnection is disabled, a dial or
// I/O failure is retried with capped exponential backoff + jitter; after
// a successful registration the phone rejoins under its prior identity
// and replays any reports the dead connection swallowed.
func (p *Phone) Run(ctx context.Context) error {
	pol := p.cfg.Reconnect.fill()
	src := rand.NewSource(pol.Seed)
	if pol.Seed == 0 {
		src = rand.NewSource(int64(p.cfg.CPUMHz*1000) + 17)
	}
	rng := rand.New(src)

	dial := p.cfg.Dial
	rotate := func() {}
	if dial == nil {
		// Failover dialing: ServerAddr may list several masters; each
		// failed attempt rotates to the next address, so a worker cut off
		// from a dead primary finds the promoted standby on its own,
		// paced by the same backoff as any reconnect. The rotation starts
		// at a per-worker random offset so a large fleet spreads its
		// first attempts across the list instead of synchronously
		// hammering the first (possibly dead) address after a primary
		// kill; a standby's pre-bound takeover listener fast-refuses
		// pre-promotion dialers, so landing there first costs one
		// rotation, not a timeout.
		addrs := splitAddrs(p.cfg.ServerAddr)
		addrIdx := rng.Intn(len(addrs))
		dial = func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addrs[addrIdx%len(addrs)])
		}
		rotate = func() { addrIdx++ }
	}

	// Assignments execute strictly serially, in arrival order — a phone
	// runs one task at a time. The server keeps at most one more queued
	// behind the running one, so its input arrives while the CPU is busy;
	// the queue's bound guards against a misbehaving server. The executor
	// outlives individual connections so a task running through a
	// disconnect still finishes and its result is replayed after the rejoin.
	// Once an assignment has reported, its message and receive buffer go
	// back to the connection it arrived on, for a later frame.
	assignQ := make(chan received, 16)
	defer close(assignQ)
	go func() {
		var ex executor
		for a := range assignQ {
			p.execute(ctx, &ex, a.m)
			a.conn.Recycle(a.m)
		}
	}()

	failures := 0
	for {
		registered, err := p.runConn(ctx, dial, assignQ, pol.HandshakeTimeout)
		if err == nil {
			return nil // orderly exit: bye, unplug, vanish, or context end
		}
		p.mu.Lock()
		leaving, vanished, ever := p.leaving, p.vanished, p.everRegistered
		p.mu.Unlock()
		if leaving || vanished {
			return nil
		}
		if ctx.Err() != nil {
			// Cancellation after a successful registration is an orderly
			// exit; before one, the connection failure is the real story.
			if ever {
				return nil
			}
			return err
		}
		if pol.Disabled {
			return err
		}
		if registered {
			failures = 0
		}
		failures++
		rotate() // next attempt tries the next address in the failover list
		if pol.MaxAttempts >= 0 && failures > pol.MaxAttempts {
			return fmt.Errorf("worker: giving up after %d consecutive connection failures: %w",
				failures-1, err)
		}
		select {
		case <-time.After(pol.delay(failures, rng)):
		case <-ctx.Done():
			if ever {
				return nil
			}
			return err
		}
	}
}

// splitAddrs parses a comma-separated failover address list; it always
// returns at least one entry (an empty ServerAddr is rejected by New
// unless a custom dialer is supplied).
func splitAddrs(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		addrs = []string{s}
	}
	return addrs
}

// currentEpoch reads the master regime this worker last registered with;
// report frames are stamped at creation time, so a report built under an
// old regime keeps the old epoch and is fenced after a failover instead
// of being mis-accepted by the new master.
func (p *Phone) currentEpoch() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// runConn serves one connection to the master: dial, hello (a rejoin
// hello when the phone held an identity before), then the frame loop.
// registered reports whether a Welcome arrived on this connection.
func (p *Phone) runConn(ctx context.Context, dial func(ctx context.Context) (net.Conn, error), assignQ chan received, handshake time.Duration) (registered bool, err error) {
	raw, err := dial(ctx)
	if err != nil {
		p.event(protocol.EventDial, "", 0, 0, 0, 0, "fail: "+err.Error())
		return false, fmt.Errorf("worker: dialing server: %w", err)
	}
	p.event(protocol.EventDial, "", 0, 0, 0, 0, "ok")
	conn := protocol.NewConn(raw)
	p.mu.Lock()
	p.conn = conn
	rejoin := p.everRegistered
	priorID := p.id
	p.mu.Unlock()
	defer func() {
		conn.Close()
		p.mu.Lock()
		if p.conn == conn {
			p.conn = nil
		}
		p.mu.Unlock()
	}()

	// Kill the connection when the context dies so Recv unblocks.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-done:
		}
	}()

	hello := &protocol.Message{
		Type:   protocol.TypeHello,
		Token:  p.cfg.AuthToken,
		Model:  p.cfg.Model,
		CPUMHz: p.cfg.CPUMHz,
		RAMMB:  p.cfg.RAMMB,
	}
	if rejoin {
		hello.Rejoin = true
		hello.PhoneID = priorID
	}
	if err := conn.Send(hello); err != nil {
		return false, err
	}
	if handshake > 0 {
		// The welcome must arrive within the handshake window; the
		// deadline is lifted once registration completes.
		_ = conn.SetReadDeadline(time.Now().Add(handshake))
	}

	// In-progress chunked transfers, keyed by (job, partition). They die
	// with the connection: the server re-dispatches lost partitions.
	type partKey struct{ job, part int }
	assembling := map[partKey]*protocol.Message{}
	// reply is the message this loop's own answers go out in: pongs,
	// probe acks and refusals.
	var reply protocol.Message
	send := func(m protocol.Message) error {
		reply = m
		return conn.Send(&reply)
	}
	// refuse answers an assignment this worker will not run with a
	// failure report, so the server requeues it at once.
	refuse := func(m *protocol.Message, why string) {
		_ = send(protocol.Message{
			Type: protocol.TypeFailure, JobID: m.JobID,
			Partition: m.Partition, Attempt: m.Attempt,
			Epoch: p.currentEpoch(),
			Error: why,
		})
	}
	// enqueue hands an assignment to the executor, which recycles it once
	// it has reported; an assignment it refuses is recycled here.
	enqueue := func(m *protocol.Message) {
		// Read before the hand-off: from then on the executor owns m.
		span, job, part, n := m.Span, m.JobID, m.Partition, int64(len(m.Input))
		select {
		case assignQ <- received{m, conn}:
			p.mu.Lock()
			p.stats.Assignments++
			p.mu.Unlock()
			p.event(protocol.EventAssignRecv, span, job, part, n, 0, "")
		default:
			// Queue overflow: a runaway server; refuse the work rather
			// than buffer unboundedly.
			refuse(m, "worker assignment queue full")
			conn.Recycle(m)
		}
	}

	for {
		m, err := conn.Recv()
		if err != nil {
			p.mu.Lock()
			leaving, vanished := p.leaving, p.vanished
			p.mu.Unlock()
			if ctx.Err() != nil || leaving || vanished {
				return registered, nil
			}
			return registered, err
		}
		switch m.Type {
		case protocol.TypeWelcome:
			_ = conn.SetReadDeadline(time.Time{})
			p.mu.Lock()
			if m.Epoch != 0 && p.epoch != 0 && m.Epoch < p.epoch {
				// A master announcing an older epoch is a resurrected
				// primary that lost a failover; refuse it and let the
				// failover rotation find the current regime.
				old := p.epoch
				p.mu.Unlock()
				return registered, fmt.Errorf("worker: welcome from superseded master (epoch %d < %d)", m.Epoch, old)
			}
			if m.Epoch != 0 {
				p.epoch = m.Epoch
			}
			p.id = m.PhoneID
			p.everRegistered = true
			p.ckptKB, p.ckptMs = m.CkptEveryKB, m.CkptEveryMs
			// Telemetry is master-driven: buffer span events only for a
			// master that will look at them. A master that stopped asking
			// (obs plane unbound) also stops the buffering, and whatever
			// was queued for the old regime is discarded with it.
			p.telemetry = m.Telemetry
			if !m.Telemetry {
				p.telEvents, p.telDropped = nil, 0
			}
			// Acks are per-connection; frames in flight on the old one
			// are gone either way. So are attempt numbers: a recovered or
			// promoted master starts them over.
			p.ckptUnacked = 0
			p.lastAttempt, p.drainedThrough = 0, 0
			if rejoin {
				p.stats.Reconnects++
			}
			p.mu.Unlock()
			registered = true
			p.regOnce.Do(func() { close(p.registered) })
			// Replay reports a dead connection swallowed; the server pairs
			// them with their dispatch attempts.
			p.flushUnsent(conn)
		case protocol.TypePing:
			if err := send(protocol.Message{Type: protocol.TypePong, Seq: m.Seq}); err != nil {
				return registered, err
			}
			// Piggyback buffered span events on the keepalive cadence.
			p.shipTelemetry(conn)
		case protocol.TypeProbe:
			if err := send(protocol.Message{Type: protocol.TypeProbeAck, Seq: m.Seq}); err != nil {
				return registered, err
			}
		case protocol.TypeAssign:
			p.addTransfer(len(m.Input))
			p.mu.Lock()
			p.lastAttempt = max(p.lastAttempt, m.Attempt)
			p.mu.Unlock()
			if m.TotalLen > int64(len(m.Input)) {
				// First frame of a chunked transfer.
				if m.TotalLen > maxAssignBytes {
					refuse(m, fmt.Sprintf("impossible assignment length %d", m.TotalLen))
					break
				}
				m.Input = appendChunk(nil, m.Input, m.TotalLen)
				assembling[partKey{m.JobID, m.Partition}] = m
				continue // its params and resume state stay in its frame
			}
			enqueue(m)
			continue
		case protocol.TypeAssignChunk:
			p.addTransfer(len(m.Input))
			key := partKey{m.JobID, m.Partition}
			pend, ok := assembling[key]
			if !ok {
				refuse(m, "unexpected assignment chunk")
				break
			}
			if int64(len(pend.Input)+len(m.Input)) > pend.TotalLen {
				delete(assembling, key)
				refuse(pend, "assignment chunk overflow")
				conn.Recycle(pend)
				break
			}
			// The one copy a chunked input byte makes on this side: out
			// of its frame's receive buffer, into the assembled input.
			pend.Input = appendChunk(pend.Input, m.Input, pend.TotalLen)
			if int64(len(pend.Input)) == pend.TotalLen {
				delete(assembling, key)
				enqueue(pend)
			}
		case protocol.TypeCheckpointAck:
			p.mu.Lock()
			if p.ckptUnacked > 0 {
				p.ckptUnacked--
			}
			p.mu.Unlock()
			p.event(protocol.EventCkptAck, m.Span, m.JobID, m.Partition, 0, 0, "")
		case protocol.TypeDrain:
			// Proactive drain: the server predicts this phone's charge
			// window is closing. Flush the freshest checkpoint and
			// interrupt the in-flight task so it reports a "drained"
			// failure (carrying the checkpoint) while the connection is
			// still healthy; assignments queued or still assembling behind
			// it report the same when their turn comes. An idle phone has
			// nothing to hand back.
			p.mu.Lock()
			cancel := p.unplug
			sink := p.sink
			p.drainedThrough = p.lastAttempt
			p.mu.Unlock()
			if sink != nil {
				sink.Force()
			}
			if cancel != nil {
				cancel()
			}
		case protocol.TypeBye:
			return registered, nil
		default:
			// Unknown frames are ignored for forward compatibility.
		}
		// Every frame not held above has been answered or copied out. The
		// first of them, the welcome, switches recycling on.
		conn.Recycle(m)
	}
}

// report delivers a result/failure frame on the current connection, or
// buffers it for replay after the next successful registration. m is
// the executor's own message, which its next report overwrites: a report
// parked for replay is a copy of it.
func (p *Phone) report(m *protocol.Message) {
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	if conn != nil && conn.Send(m) == nil {
		// A delivered report is a shipping opportunity for buffered span
		// events (the exec_finish for this very report is among them).
		p.shipTelemetry(conn)
		return
	}
	parked := *m
	p.mu.Lock()
	if len(p.unsent) < maxUnsent {
		p.unsent = append(p.unsent, &parked)
	}
	p.mu.Unlock()
}

// flushUnsent replays buffered reports on a fresh connection, keeping
// whatever a mid-flush failure leaves undelivered.
func (p *Phone) flushUnsent(conn *protocol.Conn) {
	p.mu.Lock()
	pending := p.unsent
	p.unsent = nil
	p.mu.Unlock()
	for i, m := range pending {
		if err := conn.Send(m); err != nil {
			p.mu.Lock()
			p.unsent = append(pending[i:], p.unsent...)
			p.mu.Unlock()
			return
		}
	}
}

// executor is what the one goroutine that runs assignments keeps from one
// to the next: the message its reports and streamed checkpoints go out
// in, and the task instance it ran last, with the executable name and
// parameters it was built from.
type executor struct {
	out    protocol.Message
	task   tasks.Task
	name   string
	params []byte
}

// taskFor returns the task m names: the last one again when m names the
// same executable with byte-identical parameters, else a new instance.
func (ex *executor) taskFor(m *protocol.Message) (tasks.Task, error) {
	if ex.task != nil && m.Task == ex.name && bytes.Equal(m.Params, ex.params) {
		return ex.task, nil
	}
	task, err := tasks.New(m.Task, m.Params)
	if err != nil {
		ex.task = nil
		return nil, err
	}
	// The params are copied: m's bytes go back to the connection.
	ex.task, ex.name, ex.params = task, m.Task, append(ex.params[:0], m.Params...)
	return task, nil
}

// execute runs one assigned partition and reports the outcome in ex's
// message. Reports go through the reconnect-aware path: if the connection
// died while the task ran, the report is buffered and replayed after the
// rejoin. No report holds any of m's byte fields: m is recycled once
// execute returns.
func (p *Phone) execute(ctx context.Context, ex *executor, m *protocol.Message) {
	taskCtx, cancel := context.WithCancel(ctx)
	sink := p.checkpointSink(m, &ex.out)
	// Whether the phone is still there is read in the critical section
	// that publishes the cancel func: an unplug, vanish or drain landing
	// now is either seen here or finds this task to interrupt.
	p.mu.Lock()
	gone := p.leaving || p.vanished
	drained := p.drainedLocked(m.Attempt)
	p.unplug = cancel
	p.sink = sink
	p.mu.Unlock()
	defer func() {
		cancel()
		p.mu.Lock()
		p.unplug = nil
		p.sink = nil
		p.mu.Unlock()
	}()

	// reply reports r, stamped with m's coordinates, in ex's message.
	reply := func(r protocol.Message) {
		ex.out = r
		ex.out.JobID, ex.out.Partition, ex.out.Attempt, ex.out.Span = m.JobID, m.Partition, m.Attempt, m.Span
		p.report(&ex.out)
		p.maybeLeave()
	}
	fail := func(ck *tasks.Checkpoint, msg string) {
		reply(protocol.Message{Type: protocol.TypeFailure, Epoch: p.currentEpoch(), Checkpoint: ck, Error: msg})
	}

	// Work that was still queued when the phone left or was drained never
	// starts. A departed phone drops it (the master requeues it when the
	// connection dies); a drained one hands it back as it was given, so
	// every attempt still gets exactly one report.
	if gone {
		return
	}
	if drained {
		// A copy, as on every other path: the report may wait in unsent
		// long after m's buffer has received another frame.
		fail(m.Resume.Clone(), drainedReason)
		return
	}

	task, err := ex.taskFor(m)
	if err != nil {
		fail(nil, fmt.Sprintf("instantiating executable: %v", err))
		return
	}
	ck := m.Resume.Clone()
	if ck == nil {
		ck = &tasks.Checkpoint{}
	}
	p.event(protocol.EventExecStart, m.Span, m.JobID, m.Partition, int64(len(m.Input)), 0, m.Task)

	// finish mints the exec_finish span event and, for a proactive-drain
	// handback, the drain_handback edge the master's timeline pairs with
	// its own completeDrain.
	finish := func(elapsed time.Duration, outcome string) {
		p.event(protocol.EventExecFinish, m.Span, m.JobID, m.Partition,
			int64(len(m.Input)), float64(elapsed)/float64(time.Millisecond), outcome)
		if outcome == drainedReason {
			p.event(protocol.EventDrainHandback, m.Span, m.JobID, m.Partition, 0, 0, "")
		}
	}

	// Byzantine laziness: skip execution entirely and fabricate a
	// plausible result without reading the input.
	if p.byzRng != nil && p.cfg.Byzantine.LazyProb > 0 && p.byzRng.Float64() < p.cfg.Byzantine.LazyProb {
		payload, digest := p.mutateResult([]byte("0"))
		finish(0, "ok")
		reply(protocol.Message{Type: protocol.TypeResult, Epoch: p.currentEpoch(), Result: payload,
			Digest: digest, ProcessedKB: float64(len(m.Input)) / 1024})
		return
	}

	// Emulated CPU slowness: pay the remaining input's worth of delay.
	// The clock starts before it — the delay is this phone's execution
	// time, and the master refines c_ij from what is reported here.
	start := time.Now()
	// spent closes the execution clock and meters it.
	spent := func() time.Duration {
		elapsed := time.Since(start)
		p.mu.Lock()
		p.stats.ExecMs += float64(elapsed) / float64(time.Millisecond)
		p.mu.Unlock()
		return elapsed
	}
	if p.cfg.DelayPerKB > 0 {
		remainingKB := float64(int64(len(m.Input))-ck.Offset) / 1024
		if remainingKB > 0 {
			t := time.NewTimer(time.Duration(remainingKB * float64(p.cfg.DelayPerKB)))
			select {
			case <-t.C:
			case <-taskCtx.Done():
				t.Stop()
				reason := p.interruptReason(m.Attempt)
				finish(spent(), reason)
				fail(ck, reason)
				return
			}
		}
	}

	execCtx := taskCtx
	if p.throttle != nil {
		execCtx = tasks.WithPacer(taskCtx, p.throttle)
	}
	execCtx = tasks.WithCheckpointSink(execCtx, sink)
	result, err := task.Process(execCtx, m.Input, ck)
	elapsed := spent()
	switch {
	case err == nil:
		finish(elapsed, "ok")
		payload, digest := p.mutateResult(result)
		reply(protocol.Message{Type: protocol.TypeResult, Epoch: p.currentEpoch(), Result: payload,
			Digest: digest, ExecMs: float64(elapsed) / float64(time.Millisecond),
			ProcessedKB: float64(len(m.Input)) / 1024})
	case errors.Is(err, tasks.ErrInterrupted):
		reason := p.interruptReason(m.Attempt)
		finish(elapsed, reason)
		fail(ck, reason)
	default:
		finish(elapsed, "failed")
		fail(nil, err.Error())
	}
}

// mutateResult applies the worker's Byzantine misbehaviour to a
// computed result and returns the payload to ship plus its claimed
// digest. An honest worker returns the result untouched with its true
// digest. A lie is applied BEFORE the digest (the frame stays
// internally consistent — only voting or an audit can catch it);
// corruption is applied AFTER (the claimed digest no longer matches the
// payload, so the master catches it from the single frame).
func (p *Phone) mutateResult(result []byte) ([]byte, tasks.Sum) {
	b := p.cfg.Byzantine
	if p.byzRng != nil && b.LiarProb > 0 && p.byzRng.Float64() < b.LiarProb {
		// The offset is drawn per result from this phone's own rng so two
		// liars given the same partition (dis)agree like independent
		// adversaries — a deterministic lie would let them accidentally
		// collude and outvote the honest replica.
		result = lieAbout(result, byte(1+p.byzRng.Intn(9)))
	}
	digest := tasks.Digest(result)
	if p.byzRng != nil && b.CorruptProb > 0 && len(result) > 0 && p.byzRng.Float64() < b.CorruptProb {
		mangled := append([]byte(nil), result...)
		mangled[p.byzRng.Intn(len(mangled))] ^= 0xff
		result = mangled
	}
	return result, digest
}

// lieAbout produces a wrong-but-well-formed variant of a result: every
// ASCII digit is shifted by off (1..9) mod 10, so a counting task's
// decimal result stays parseable but wrong. A result with no digits
// gets a byte appended instead, so the lie is never a no-op.
func lieAbout(result []byte, off byte) []byte {
	out := append([]byte(nil), result...)
	changed := false
	for i, c := range out {
		if c >= '0' && c <= '9' {
			out[i] = '0' + (c-'0'+off)%10
			changed = true
		}
	}
	if !changed {
		out = append(out, '!'+off)
	}
	return out
}

// drainedReason is the failure-report error for a proactive-drain
// handback; the server's dispatch path matches it exactly.
const drainedReason = "drained"

// drainedLocked reports whether a server drain covers the attempt: it
// had been received when the drain frame landed, and the phone is not
// really leaving (a real unplug or vanish racing a drain wins). Attempt
// numbers only grow on a connection, so work assigned after the drain is
// not covered. Caller holds p.mu.
func (p *Phone) drainedLocked(attempt int64) bool {
	return attempt != 0 && attempt <= p.drainedThrough && !p.leaving && !p.vanished
}

// interruptReason resolves what an interrupted execution should report:
// "drained" when the server's proactive drain canceled the task (the
// connection stays up and the phone remains in the pool), "unplugged"
// when the user really detached the charger.
func (p *Phone) interruptReason(attempt int64) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.drainedLocked(attempt) {
		return drainedReason
	}
	return "unplugged"
}

// maxUnackedCkpts bounds streamed checkpoints in flight without a
// checkpoint_ack; past it flushes are dropped rather than letting a slow
// master back the link up (the next flush supersedes them anyway).
const maxUnackedCkpts = 4

// checkpointSink builds the streaming sink for one assignment, or nil
// when streaming is off. Its frames go out in out, the executor's
// message: the sink flushes on the executor's goroutine, between reports.
// The worker's own config wins over the policy the server announced in
// the welcome; a negative config value disables its trigger. Streamed frames are best-effort: they go only to the live
// connection and are never buffered for replay — after a reconnect the
// range has been re-queued and an old checkpoint is worthless.
func (p *Phone) checkpointSink(m *protocol.Message, out *protocol.Message) *tasks.CheckpointSink {
	p.mu.Lock()
	kb, every := p.ckptKB, time.Duration(p.ckptMs)*time.Millisecond
	p.mu.Unlock()
	if p.cfg.CheckpointEveryKB != 0 {
		kb = p.cfg.CheckpointEveryKB
	}
	if p.cfg.CheckpointEvery != 0 {
		every = p.cfg.CheckpointEvery
	}
	if kb < 0 {
		kb = 0
	}
	if every < 0 {
		every = 0
	}
	if kb == 0 && every == 0 {
		return nil
	}
	var seq uint64
	return &tasks.CheckpointSink{
		EveryBytes: int64(kb) * 1024,
		Every:      every,
		Flush: func(ck *tasks.Checkpoint) {
			p.mu.Lock()
			conn := p.conn
			if conn == nil || p.vanished || p.ckptUnacked >= maxUnackedCkpts {
				p.mu.Unlock()
				return
			}
			p.ckptUnacked++
			epoch := p.epoch
			p.mu.Unlock()
			seq++
			*out = protocol.Message{
				Type:       protocol.TypeCheckpoint,
				JobID:      m.JobID,
				Partition:  m.Partition,
				Attempt:    m.Attempt,
				Epoch:      epoch,
				Span:       m.Span,
				Seq:        seq,
				Checkpoint: ck,
				Digest:     ck.Digest(),
			}
			err := conn.Send(out)
			p.mu.Lock()
			if err != nil {
				if p.ckptUnacked > 0 {
					p.ckptUnacked--
				}
			} else {
				p.stats.CkptFrames++
				p.stats.CkptKB += float64(len(ck.State)+8) / 1024
			}
			p.mu.Unlock()
			if err == nil {
				p.event(protocol.EventCkptFlush, m.Span, m.JobID, m.Partition,
					int64(len(ck.State)), 0, "")
			}
		},
	}
}

// maybeLeave closes the connection after the pending report when the
// phone was unplugged mid-task.
func (p *Phone) maybeLeave() {
	p.mu.Lock()
	leaving := p.leaving
	conn := p.conn
	p.mu.Unlock()
	if leaving && conn != nil {
		conn.Close()
	}
}

// Unplug emulates the user detaching the charger: the online failure. Any
// in-flight task is interrupted, its checkpoint reported, and the phone
// leaves the pool. An idle phone says goodbye immediately.
func (p *Phone) Unplug() {
	p.mu.Lock()
	p.leaving = true
	cancel := p.unplug
	conn := p.conn
	p.mu.Unlock()
	if cancel != nil {
		cancel() // execute() will report the failure and close
		return
	}
	if conn != nil {
		_ = conn.Send(&protocol.Message{Type: protocol.TypeBye})
		conn.Close()
	}
}

// Vanish emulates the offline failure: the connection dies with no report
// (wireless driver crash). The server must detect it via keepalives.
func (p *Phone) Vanish() {
	p.mu.Lock()
	p.vanished = true
	conn := p.conn
	cancel := p.unplug
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if cancel != nil {
		cancel()
	}
}

// Replug resets an unplugged or vanished phone so Run can be called again
// — the paper's phones re-entering the pool "after a short period of
// unavailability (e.g., the user plugs her phone to the charger after a
// few minutes)". The server sees a fresh registration (new phone ID).
func (p *Phone) Replug() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.leaving = false
	p.vanished = false
	p.conn = nil
	p.id = 0
	p.everRegistered = false
	p.unsent = nil
}

// ReplugRejoin resets an unplugged or vanished phone like Replug but
// keeps its identity: the next Run sends a rejoin hello under the prior
// phone ID, so the server folds the new session into the same phone —
// its charge-window history, bandwidth estimates and buffered reports
// all survive. This is the flapping-replug shape of a churn storm: the
// same physical phone bouncing off and back onto the charger.
func (p *Phone) ReplugRejoin() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.leaving = false
	p.vanished = false
	p.conn = nil
}
