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
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"time"
	"unicode"

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
	r.BaseDelay = cmp.Or(r.BaseDelay, 100*time.Millisecond)
	r.MaxDelay = cmp.Or(r.MaxDelay, 5*time.Second)
	r.MaxAttempts = cmp.Or(r.MaxAttempts, 10)
	r.HandshakeTimeout = cmp.Or(r.HandshakeTimeout, 10*time.Second)
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
	d := min(float64(r.BaseDelay)*math.Pow(reconnectMultiplier, float64(attempt-1)), float64(r.MaxDelay))
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
// the newest information is simply lost (the server re-queues the work).
const maxUnsent = 32

// writerQueue bounds a connection's unwritten frames: the hello, the
// reports a welcome replays, the executor's report or checkpoint and a
// pong, each with telemetry behind, a refusal for each of the master's
// three attempts out at most, and the bye. More is a stalled link.
const writerQueue = maxUnsent + 9

// Phone is a running worker. One goroutine owns its state: the loop of
// the Run in progress, which runs what the other goroutines post — the
// executor's outcomes, a connection's dial, frames, writes and death, the
// embedder's calls — one at a time. While no Run is in progress the
// state's token waits in stopped, and a call takes it and runs at once.
type Phone struct {
	cfg    Config
	events map[protocol.EventKind]*obs.Counter // cwc_worker_events_total; nil without Config.Metrics

	inputs     chan func()   // the loop's; unbuffered, so a post returns once the loop has it
	stopped    chan struct{} // holds the state's token while no Run owns it
	registered chan struct{} // closed by the first Welcome since New or Replug

	throttle *throttleRunner // nil unless cfg.Charging is set
	byzRng   *rand.Rand      // drives Byzantine misbehaviour; the executor's alone

	// The state, owned by the loop or by the holder of stopped's token.
	now            time.Time              // the loop's clock, read once per input
	due            time.Time              // the loop's one timer: a backoff's end or a handshake's deadline; zero: none
	link           *link                  // the connection being dialed or served; nil: none
	queue          chan received          // the executor's, while a Run is in progress
	id             int                    // server-assigned
	everRegistered bool                   // a Welcome was received at least once
	leaving        bool                   // Unplug called: report the running task, then go
	vanished       bool                   // Vanish called: die silently
	task           context.CancelFunc     // interrupts the executing assignment; nil: none
	sink           *tasks.CheckpointSink  // streaming sink of the executing assignment
	lastAttempt    int64                  // newest dispatch attempt received on this connection
	drainedThrough int64                  // server drain: attempts up to this one report "drained", stay connected
	unsent         []*protocol.Message    // reports awaiting a welcome
	ckptKB, ckptMs int                    // server-announced checkpoint-streaming policy
	ckptUnacked    int                    // streamed checkpoints awaiting a checkpoint_ack
	epoch          int64                  // master regime from the last welcome (0 = untracked)
	telemetry      bool                   // the last welcome asked for worker telemetry
	telEvents      []protocol.WorkerEvent // span events awaiting a shipping opportunity
	telDropped     int64                  // events dropped to the buffer bound since the last shipped frame
	stats          Stats                  // ThrottlePauses is read off the throttle instead
}

// link is one connection to the master, from its dial to its end. Its
// reader dials, then reads; its writer, started by a successful dial,
// writes every frame the phone sends on it. It ends once both have gone.
type link struct {
	conn       *protocol.Conn         // nil until the dial succeeds
	cancel     context.CancelFunc     // abandons the dial
	out        chan frame             // the writer's queue; closed by the hang-up
	echo       chan *protocol.Message // the reader's probe acks, for the writer
	assembling map[partKey]*protocol.Message
	registered bool  // a Welcome arrived on it
	closed     bool  // hung up: nothing more is queued on it
	err        error // why it was hung up; nil: a bye, an unplug or a vanish
	live       int   // its reader and writer not yet gone
}

// frame is one frame for a writer; sent, when set, runs on the loop with
// the write's outcome.
type frame struct {
	m    *protocol.Message
	sent func(error)
}

// partKey names an in-progress chunked transfer. Transfers die with their
// connection: the server re-dispatches lost partitions.
type partKey struct{ job, part int }

// Stats is a worker's cumulative self-metering since its process
// started, for the embedding program to read in-process. It never goes
// on the wire: the master counts what it observes itself, and learns the
// rest from span events.
type Stats struct {
	// ExecMs is total task execution wall time.
	ExecMs float64
	// TransferKB is total assignment input received (assign + chunks),
	// in raw input KB: a coded input counts at its decoded size, not the
	// fewer bytes it took on the wire.
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

// Stats returns the worker's cumulative self-metering.
func (p *Phone) Stats() Stats {
	var s Stats
	p.do(func() { s = p.stats })
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
	p := &Phone{cfg: cfg, inputs: make(chan func()), stopped: make(chan struct{}, 1), registered: make(chan struct{})}
	p.stopped <- struct{}{}
	if cfg.Metrics != nil {
		p.events = obs.Counters(cfg.Metrics, "cwc_worker_events_total", "span events this worker minted, by kind", "kind", protocol.EventCodes[1:])
	}
	if cfg.Charging != nil {
		p.throttle = newThrottleRunner(cfg.Charging)
		p.throttle.onPause = func() {
			p.event(protocol.EventThrottlePause, "", 0, 0, 0, 0, "")
		}
	}
	if !cfg.Byzantine.zero() {
		p.byzRng = rand.New(rand.NewSource(cmp.Or(cfg.Byzantine.Seed, int64(cfg.CPUMHz*1000)+41)))
	}
	return p, nil
}

// post runs f on the state's owner: the loop of the Run in progress, which
// has taken f when post returns, or else the caller, holding the token.
// The loop itself never posts.
func (p *Phone) post(f func()) {
	select {
	case p.inputs <- f:
	case <-p.stopped:
		f()
		p.stopped <- struct{}{}
	}
}

// do posts f and waits until it has run.
func (p *Phone) do(f func()) {
	done := make(chan struct{})
	p.post(func() { f(); close(done) })
	<-done
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
	var id int
	p.do(func() { id = p.id })
	return id
}

// WaitRegistered blocks until the server has welcomed this phone (since
// its last Replug).
func (p *Phone) WaitRegistered(ctx context.Context) error {
	var registered chan struct{}
	p.do(func() { registered = p.registered })
	select {
	case <-registered:
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
// and replays any reports the dead connection swallowed. Run's goroutine
// is the phone's loop; a second Run waits for the first to return.
func (p *Phone) Run(ctx context.Context) error {
	<-p.stopped
	defer func() { p.stopped <- struct{}{} }()
	if p.leaving || p.vanished {
		return nil // gone before this Run began; Replug brings it back
	}
	pol := p.cfg.Reconnect.fill()
	rng := rand.New(rand.NewSource(cmp.Or(pol.Seed, int64(p.cfg.CPUMHz*1000)+17)))

	dial := p.cfg.Dial
	rotate := func() {}
	if dial == nil {
		// Failover dialing: each failed attempt rotates to the next address,
		// so a worker cut off from a dead primary finds the promoted standby
		// on its own, paced by the backoff. The rotation starts at a random
		// offset so a fleet does not hammer a dead first address together;
		// a standby's takeover listener fast-refuses pre-promotion dialers.
		addrs := splitAddrs(p.cfg.ServerAddr)
		addrIdx := rng.Intn(len(addrs))
		dial = func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addrs[addrIdx%len(addrs)])
		}
		rotate = func() { addrIdx++ }
	}

	// Assignments execute strictly serially, in arrival order, on the
	// executor — the CPU. The server keeps at most one more queued behind
	// the running one; the queue's bound guards against a misbehaving
	// server. The executor outlives connections, so a task running through
	// a disconnect finishes and its result is replayed after the rejoin. A
	// reported assignment's buffer goes back to its connection. Run ends
	// by interrupting the executor and serving it until it has gone.
	queue := make(chan received, 16)
	idle := make(chan struct{})
	exCtx, stopEx := context.WithCancel(ctx)
	defer stopEx()
	go func() {
		defer close(idle)
		ex := executor{done: make(chan struct{}, 1)}
		for a := range queue {
			p.execute(exCtx, &ex, a.m)
			a.conn.Recycle(a.m)
		}
	}()
	p.queue = queue

	done, cancelled := ctx.Done(), false
	failures, lastErr := 0, error(nil)
	timer := time.NewTimer(0)
	defer timer.Stop()
	p.link = p.connect(ctx, dial)
	ended, result := false, error(nil)
	for {
		var f func()
		select {
		case f = <-p.inputs:
		case <-timer.C:
			// A backoff's end dials; a handshake's deadline hangs up.
			f = func() {
				if p.due.IsZero() || p.now.Before(p.due) {
					return
				}
				p.due = time.Time{}
				if p.link == nil {
					p.link = p.connect(ctx, dial)
				} else {
					p.hangUp(p.link, errors.New("worker: no welcome within the handshake timeout"), true)
				}
			}
		case <-done:
			done, cancelled = nil, true
			f = func() {
				if p.link != nil {
					p.hangUp(p.link, fmt.Errorf("worker: %w", ctx.Err()), true)
				}
			}
		case <-idle:
			p.queue = nil
			return result
		}
		p.now = time.Now()
		f()
		if l := p.link; l != nil && l.live == 0 { // the connection has ended
			p.link, lastErr = nil, l.err
			if l.registered {
				failures = 0
			}
			failures++
			rotate() // next attempt tries the next address in the failover list
			p.due = p.now.Add(pol.delay(failures, rng))
		}
		if p.link == nil && !ended {
			// Cancellation after a successful registration is an orderly
			// exit; before one, the connection failure is the real story.
			switch {
			case lastErr == nil || p.leaving || p.vanished || cancelled && p.everRegistered:
				ended = true // a bye, an unplug or a vanish
			case cancelled || pol.Disabled:
				ended, result = true, lastErr
			case pol.MaxAttempts >= 0 && failures > pol.MaxAttempts:
				ended, result = true, fmt.Errorf("worker: giving up after %d consecutive connection failures: %w",
					failures-1, lastErr)
			}
			if ended {
				p.due, p.queue = time.Time{}, nil
				close(queue)
				stopEx()
			}
		}
		if !p.due.IsZero() {
			timer.Reset(p.due.Sub(p.now))
		}
	}
}

// splitAddrs parses a comma-separated failover address list; it always
// returns at least one entry (an empty ServerAddr is rejected by New
// unless a custom dialer is supplied).
func splitAddrs(s string) []string {
	if addrs := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || unicode.IsSpace(r) }); len(addrs) > 0 {
		return addrs
	}
	return []string{s}
}

// connect starts a connection; its reader dials.
func (p *Phone) connect(ctx context.Context, dial func(context.Context) (net.Conn, error)) *link {
	ctx, cancel := context.WithCancel(ctx)
	l := &link{cancel: cancel, out: make(chan frame, writerQueue), echo: make(chan *protocol.Message, 1),
		assembling: map[partKey]*protocol.Message{}, live: 1}
	go p.read(ctx, l, dial)
	return l
}

// read is a connection's reader: it dials, then hands the loop every frame
// until the connection fails. A probe it echoes straight onto the writer,
// so the loop's queueing never reaches the master's b_i probe; the master
// keeps one out, so a second waiting is a stalled link.
func (p *Phone) read(ctx context.Context, l *link, dial func(context.Context) (net.Conn, error)) {
	raw, err := dial(ctx)
	if err != nil {
		p.post(func() { p.dialed(l, nil, err) })
		return
	}
	conn := protocol.NewConn(raw)
	p.post(func() { p.dialed(l, conn, nil) })
	for {
		m, err := conn.Recv()
		switch {
		case err != nil:
			p.post(func() { p.hangUp(l, err, true); l.live-- })
			return
		case m.Type == protocol.TypeProbe:
			select {
			case l.echo <- &protocol.Message{Type: protocol.TypeProbeAck, Seq: m.Seq}:
			default:
				conn.Close()
			}
			conn.Recycle(m)
		default:
			p.post(func() { p.frame(l, m) })
		}
	}
}

// write is a connection's writer, its one goroutine that writes: the
// loop's frames in order, the reader's probe echoes between them, and each
// outcome a frame asks for back to the loop. A failed write closes the
// connection; so does the end of the queue the hang-up closed.
func (p *Phone) write(l *link) {
	for {
		select {
		case f, ok := <-l.out:
			if !ok {
				l.conn.Close()
				p.post(func() { l.live-- })
				return
			}
			err := l.conn.Send(f.m)
			if err != nil {
				l.conn.Close()
			}
			if f.sent != nil {
				p.post(func() { f.sent(err) })
			}
		case m := <-l.echo:
			if l.conn.Send(m) != nil {
				l.conn.Close()
			}
		}
	}
}

// dialed is a dial's outcome. A connection starts its writer with the
// hello (a rejoin hello once the phone holds an identity); the welcome
// must arrive within the handshake timeout.
func (p *Phone) dialed(l *link, conn *protocol.Conn, err error) {
	if err != nil {
		p.record(protocol.EventDial, "", 0, 0, 0, 0, "fail: "+err.Error())
		p.hangUp(l, fmt.Errorf("worker: dialing server: %w", err), true)
		l.live-- // the reader has gone
		return
	}
	p.record(protocol.EventDial, "", 0, 0, 0, 0, "ok")
	l.conn = conn
	if l.closed {
		conn.Close() // hung up while dialing: the reader fails at once
		return
	}
	l.live++
	go p.write(l)
	l.out <- frame{m: &protocol.Message{Type: protocol.TypeHello, Token: p.cfg.AuthToken, Model: p.cfg.Model,
		CPUMHz: p.cfg.CPUMHz, RAMMB: p.cfg.RAMMB, Rejoin: p.everRegistered, PhoneID: p.id}} // the queue's first frame
	if d := p.cfg.Reconnect.fill().HandshakeTimeout; d > 0 {
		p.due = p.now.Add(d)
	}
}

// hangUp ends l, the first call saying why (nil: a bye, unplug or vanish):
// its writer closes it once what is queued is written, or now, failing it.
func (p *Phone) hangUp(l *link, why error, now bool) {
	if now && l.conn != nil {
		l.conn.Close()
	}
	if !l.closed {
		l.closed, l.err = true, why
		l.cancel()
		close(l.out)
	}
}

// send queues m on the welcomed connection's writer; sent, when set, gets
// the outcome, at once when no such connection takes m. A full queue hangs
// the connection up.
func (p *Phone) send(m *protocol.Message, sent func(error)) {
	if l := p.link; l != nil && l.registered && !l.closed {
		select {
		case l.out <- frame{m, sent}:
			return
		default:
			p.hangUp(l, errors.New("worker: writer queue full"), true)
		}
	}
	if sent != nil {
		sent(net.ErrClosed)
	}
}

// park keeps a report for replay after the next welcome.
func (p *Phone) park(m *protocol.Message) {
	if len(p.unsent) < maxUnsent {
		p.unsent = append(p.unsent, m)
	}
}

// frame handles one frame l's reader took. Every frame not held below has
// been answered or copied out and goes back to the connection; the first
// of them, the welcome, switches recycling on.
func (p *Phone) frame(l *link, m *protocol.Message) {
	switch m.Type {
	case protocol.TypeWelcome:
		if m.Epoch != 0 && p.epoch != 0 && m.Epoch < p.epoch {
			// A master announcing an older epoch is a resurrected
			// primary that lost a failover; refuse it and let the
			// failover rotation find the current regime.
			p.hangUp(l, fmt.Errorf("worker: welcome from superseded master (epoch %d < %d)", m.Epoch, p.epoch), true)
			break
		}
		p.due = time.Time{} // the handshake is over
		p.epoch, p.id = cmp.Or(m.Epoch, p.epoch), m.PhoneID
		p.ckptKB, p.ckptMs = m.CkptEveryKB, m.CkptEveryMs
		// Telemetry is master-driven: span events are buffered only for a
		// master that asks; one that stopped asking discards the buffer.
		p.telemetry = m.Telemetry
		if !m.Telemetry {
			p.telEvents, p.telDropped = nil, 0
		}
		// Acks are per-connection, and a recovered or promoted master
		// starts attempt numbers over.
		p.ckptUnacked = 0
		p.lastAttempt, p.drainedThrough = 0, 0
		if p.everRegistered {
			p.stats.Reconnects++
		} else {
			close(p.registered)
		}
		p.everRegistered, l.registered = true, true
		// Replay reports a dead connection swallowed; the server pairs
		// them with their dispatch attempts.
		unsent := p.unsent
		p.unsent = nil
		for _, r := range unsent {
			p.send(r, func(err error) {
				if err != nil {
					p.park(r)
				}
			})
		}
	case protocol.TypePing:
		p.send(&protocol.Message{Type: protocol.TypePong, Seq: m.Seq}, nil)
		// Piggyback buffered span events on the keepalive cadence.
		p.ship()
	case protocol.TypeAssign:
		p.stats.TransferKB += float64(len(m.Input)) / 1024
		p.lastAttempt = max(p.lastAttempt, m.Attempt)
		if m.TotalLen > int64(len(m.Input)) {
			// First frame of a chunked transfer.
			if m.TotalLen > maxAssignBytes {
				p.refuse(m, fmt.Sprintf("impossible assignment length %d", m.TotalLen))
				break
			}
			m.Input = appendChunk(nil, m.Input, m.TotalLen)
			l.assembling[partKey{m.JobID, m.Partition}] = m
			return // its params and resume state stay in its frame
		}
		p.enqueue(l, m)
		return
	case protocol.TypeAssignChunk:
		p.stats.TransferKB += float64(len(m.Input)) / 1024
		key := partKey{m.JobID, m.Partition}
		pend, ok := l.assembling[key]
		if !ok {
			p.refuse(m, "unexpected assignment chunk")
			break
		}
		if int64(len(pend.Input)+len(m.Input)) > pend.TotalLen {
			delete(l.assembling, key)
			p.refuse(pend, "assignment chunk overflow")
			l.conn.Recycle(pend)
			break
		}
		// The one copy a chunked input byte makes on this side: out
		// of its frame's receive buffer, into the assembled input.
		pend.Input = appendChunk(pend.Input, m.Input, pend.TotalLen)
		if int64(len(pend.Input)) == pend.TotalLen {
			delete(l.assembling, key)
			p.enqueue(l, pend)
		}
	case protocol.TypeCheckpointAck:
		if p.ckptUnacked > 0 {
			p.ckptUnacked--
		}
		p.record(protocol.EventCkptAck, m.Span, m.JobID, m.Partition, 0, 0, "")
	case protocol.TypeDrain:
		// Proactive drain: the server predicts this phone's charge
		// window is closing. Flush the freshest checkpoint and
		// interrupt the in-flight task so it reports a "drained"
		// failure (carrying the checkpoint) while the connection is
		// still healthy; assignments queued or still assembling behind
		// it report the same when their turn comes. An idle phone has
		// nothing to hand back.
		p.drainedThrough = p.lastAttempt
		if p.sink != nil {
			p.sink.Force()
		}
		if p.task != nil {
			p.task()
		}
	case protocol.TypeBye:
		p.hangUp(l, nil, false)
	default:
		// Unknown frames are ignored for forward compatibility.
	}
	l.conn.Recycle(m)
}

// refuse answers an assignment this worker will not run with a failure
// report, so the server requeues it at once.
func (p *Phone) refuse(m *protocol.Message, why string) {
	p.send(&protocol.Message{Type: protocol.TypeFailure, JobID: m.JobID, Partition: m.Partition,
		Attempt: m.Attempt, Epoch: p.epoch, Error: why}, nil)
}

// enqueue hands an assignment to the executor, which recycles it once it
// has reported; an assignment it refuses is recycled here.
func (p *Phone) enqueue(l *link, m *protocol.Message) {
	// Read before the hand-off: from then on the executor owns m.
	span, job, part, n := m.Span, m.JobID, m.Partition, int64(len(m.Input))
	select {
	case p.queue <- received{m, l.conn}:
		p.stats.Assignments++
		p.record(protocol.EventAssignRecv, span, job, part, n, 0, "")
	default:
		// Queue overflow: a runaway server; refuse the work rather
		// than buffer unboundedly.
		p.refuse(m, "worker assignment queue full")
		l.conn.Recycle(m)
	}
}

// executor is what the goroutine that runs assignments keeps from one to
// the next: the message its reports and checkpoints go out in, the channel
// the loop answers its calls on, the task context until an interruption
// uses it up, and the last task instance, with its name and parameters.
type executor struct {
	out    protocol.Message
	done   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
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

// execute runs one assigned partition on the executor's own clock and
// reports the outcome in ex's message. No report holds any of m's byte
// fields: m is recycled once execute returns.
func (p *Phone) execute(ctx context.Context, ex *executor, m *protocol.Message) {
	start := time.Now()
	if ex.ctx == nil || ex.ctx.Err() != nil {
		ex.ctx, ex.cancel = context.WithCancel(ctx)
	}
	task, err := ex.taskFor(m)
	// A copy, as on every other path: the report may wait in unsent long
	// after m's buffer has received another frame.
	ck := m.Resume.Clone()
	// Whether the phone is still there is decided on the loop, where an
	// unplug, vanish or drain lands: before this, and it is seen here, or
	// after, and it finds this task to interrupt.
	var gone, drained bool
	var sink *tasks.CheckpointSink
	p.post(func() {
		gone, drained = p.leaving || p.vanished, p.drained(m.Attempt)
		if !gone && !drained && err == nil {
			p.task, p.sink = ex.cancel, p.checkpointSink(m, ex)
			sink = p.sink
			p.record(protocol.EventExecStart, m.Span, m.JobID, m.Partition, int64(len(m.Input)), 0, m.Task)
		}
		ex.done <- struct{}{}
	})
	<-ex.done
	// fail reports a failure carrying ck; an interruption's (why "") gives
	// the reason the loop knows.
	fail := func(elapsed time.Duration, ck *tasks.Checkpoint, why string) {
		p.reply(ex, m, elapsed, func(reason string) protocol.Message {
			if why == "" {
				why = reason
			}
			return protocol.Message{Type: protocol.TypeFailure, Epoch: p.epoch, Checkpoint: ck, Error: why}
		})
	}
	succeed := func(elapsed time.Duration, result []byte) {
		payload, digest := p.mutateResult(result)
		p.reply(ex, m, elapsed, func(string) protocol.Message {
			return protocol.Message{Type: protocol.TypeResult, Epoch: p.epoch, Result: payload, Digest: digest,
				ExecMs: float64(elapsed) / float64(time.Millisecond), ProcessedKB: float64(len(m.Input)) / 1024}
		})
	}

	// Work that was still queued when the phone left or was drained never
	// starts. A departed phone drops it (the master requeues it when the
	// connection dies); a drained one hands it back as it was given, so
	// every attempt still gets exactly one report.
	switch {
	case gone:
		return
	case drained:
		fail(-1, ck, drainedReason)
		return
	case err != nil:
		fail(-1, nil, fmt.Sprintf("instantiating executable: %v", err))
		return
	}
	if ck == nil {
		ck = &tasks.Checkpoint{}
	}

	// Byzantine laziness: skip execution entirely and fabricate a
	// plausible result without reading the input.
	if p.byzRng != nil && p.cfg.Byzantine.LazyProb > 0 && p.byzRng.Float64() < p.cfg.Byzantine.LazyProb {
		succeed(0, []byte("0"))
		return
	}

	// Emulated CPU slowness: pay the remaining input's worth of delay.
	// The clock started before it — the delay is this phone's execution
	// time, and the master refines c_ij from what is reported here.
	if p.cfg.DelayPerKB > 0 {
		remainingKB := float64(int64(len(m.Input))-ck.Offset) / 1024
		if remainingKB > 0 {
			t := time.NewTimer(time.Duration(remainingKB * float64(p.cfg.DelayPerKB)))
			select {
			case <-t.C:
			case <-ex.ctx.Done():
				t.Stop()
				fail(time.Since(start), ck, "")
				return
			}
		}
	}

	execCtx := ex.ctx
	if p.throttle != nil {
		execCtx = tasks.WithPacer(ex.ctx, p.throttle)
	}
	execCtx = tasks.WithCheckpointSink(execCtx, sink)
	result, err := task.Process(execCtx, m.Input, ck)
	elapsed := time.Since(start)
	switch {
	case err == nil:
		succeed(elapsed, result)
	case errors.Is(err, tasks.ErrInterrupted):
		fail(elapsed, ck, "")
	default:
		fail(elapsed, nil, err.Error())
	}
}

// reply reports the end of m in ex's message and returns once the report
// is written or parked as a copy. On the loop, build makes the report,
// stamped with the epoch of that moment and told why an interruption
// happened; a run (elapsed >= 0) is metered and its exec_finish minted,
// with a drain handback's drain_handback edge, which the master's timeline
// pairs with its completeDrain. A vanished phone reports nothing.
func (p *Phone) reply(ex *executor, m *protocol.Message, elapsed time.Duration, build func(why string) protocol.Message) {
	p.post(func() {
		p.task, p.sink = nil, nil
		why := "unplugged"
		if p.drained(m.Attempt) {
			why = drainedReason
		}
		ex.out = build(why)
		if ms, outcome := float64(elapsed)/float64(time.Millisecond), "failed"; elapsed >= 0 {
			switch ex.out.Error {
			case "":
				outcome = "ok"
			case why:
				outcome = why
			}
			p.stats.ExecMs += ms
			p.record(protocol.EventExecFinish, m.Span, m.JobID, m.Partition, int64(len(m.Input)), ms, outcome)
			if outcome == drainedReason {
				p.record(protocol.EventDrainHandback, m.Span, m.JobID, m.Partition, 0, 0, "")
			}
		}
		ex.out.JobID, ex.out.Partition, ex.out.Attempt, ex.out.Span = m.JobID, m.Partition, m.Attempt, m.Span
		if p.vanished {
			ex.done <- struct{}{}
			return
		}
		p.send(&ex.out, func(err error) {
			if err != nil {
				parked := ex.out
				p.park(&parked)
			}
			ex.done <- struct{}{}
		})
		// A report is a shipping opportunity for buffered span events
		// (the exec_finish for this very report is among them).
		p.ship()
		if p.leaving && p.link != nil {
			p.hangUp(p.link, nil, false) // the report goes out first
		}
	})
	<-ex.done
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

// drained reports whether a server drain covers the attempt: it had been
// received when the drain frame landed, and the phone is not really
// leaving (a real unplug or vanish racing a drain wins). Attempt numbers
// only grow on a connection, so work assigned after the drain is not
// covered.
func (p *Phone) drained(attempt int64) bool {
	return attempt != 0 && attempt <= p.drainedThrough && !p.leaving && !p.vanished
}

// maxUnackedCkpts bounds streamed checkpoints in flight without a
// checkpoint_ack; past it flushes are dropped rather than letting a slow
// master back the link up (the next flush supersedes them anyway).
const maxUnackedCkpts = 4

// checkpointSink builds the streaming sink for one assignment, or nil
// when streaming is off. It flushes on the executor, between reports, in
// ex's message, and waits until the frame is written or dropped. The
// cadence is the welcome's: the master alone sets it. Streamed frames
// are best-effort:
// never buffered for replay — after a reconnect the range has been
// re-queued and an old checkpoint is worthless.
func (p *Phone) checkpointSink(m *protocol.Message, ex *executor) *tasks.CheckpointSink {
	kb, every := p.ckptKB, time.Duration(p.ckptMs)*time.Millisecond
	if kb, every = max(kb, 0), max(every, 0); kb == 0 && every == 0 {
		return nil
	}
	var seq uint64
	return &tasks.CheckpointSink{
		EveryBytes: int64(kb) * 1024,
		Every:      every,
		Flush: func(ck *tasks.Checkpoint) {
			p.post(func() {
				if p.vanished || p.ckptUnacked >= maxUnackedCkpts {
					ex.done <- struct{}{}
					return
				}
				p.ckptUnacked++
				seq++
				ex.out = protocol.Message{Type: protocol.TypeCheckpoint, JobID: m.JobID, Partition: m.Partition,
					Attempt: m.Attempt, Epoch: p.epoch, Span: m.Span, Seq: seq, Checkpoint: ck, Digest: ck.Digest()}
				p.send(&ex.out, func(err error) {
					if err != nil {
						p.ckptUnacked = max(0, p.ckptUnacked-1)
					} else {
						p.stats.CkptFrames++
						p.stats.CkptKB += float64(len(ck.State)+8) / 1024
						p.record(protocol.EventCkptFlush, m.Span, m.JobID, m.Partition, int64(len(ck.State)), 0, "")
					}
					ex.done <- struct{}{}
				})
			})
			<-ex.done
		},
	}
}

// Unplug emulates the user detaching the charger: the online failure. Any
// in-flight task is interrupted, its checkpoint reported, and the phone
// leaves the pool. An idle phone says goodbye immediately. Between
// connections the phone just leaves: Run returns without dialing again.
func (p *Phone) Unplug() {
	p.do(func() {
		p.leaving = true
		switch l := p.link; {
		case p.task != nil:
			p.task() // its report hangs up behind it
		case l != nil:
			p.send(&protocol.Message{Type: protocol.TypeBye}, nil)
			p.hangUp(l, nil, false)
		}
	})
}

// Vanish emulates the offline failure: the connection dies with no report
// (wireless driver crash). The server must detect it via keepalives.
func (p *Phone) Vanish() {
	p.do(func() {
		p.vanished = true
		if p.link != nil {
			p.hangUp(p.link, nil, true)
		}
		if p.task != nil {
			p.task()
		}
	})
}

// Replug resets an unplugged or vanished phone so Run can be called again
// — the paper's phones re-entering the pool "after a short period of
// unavailability (e.g., the user plugs her phone to the charger after a
// few minutes)". The server sees a fresh registration (new phone ID). A
// Run still unwinding returns first.
func (p *Phone) Replug() {
	<-p.stopped
	p.leaving, p.vanished, p.id, p.everRegistered, p.unsent = false, false, 0, false, nil
	p.registered = make(chan struct{})
	p.stopped <- struct{}{}
}

// ReplugRejoin resets an unplugged or vanished phone like Replug but
// keeps its identity: the next Run sends a rejoin hello under the prior
// phone ID, so the server folds the new session into the same phone —
// its charge-window history, bandwidth estimates and buffered reports
// all survive. This is the flapping-replug shape of a churn storm: the
// same physical phone bouncing off and back onto the charger.
func (p *Phone) ReplugRejoin() {
	<-p.stopped
	p.leaving, p.vanished = false, false
	p.stopped <- struct{}{}
}
