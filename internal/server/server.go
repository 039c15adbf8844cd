// Package server implements the CWC central server (master): the single
// lightweight machine that registers phones, measures their bandwidth,
// profiles task execution speed, schedules jobs with the core scheduler,
// ships executables and input partitions, collects and aggregates
// results, and handles both online and offline failures (§4–§6 of the
// paper; the prototype ran this as a multi-threaded Java NIO server on a
// small EC2 instance).
package server

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"cwc/internal/obs"
	"cwc/internal/predict"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
	"cwc/internal/wal"
)

// Config tunes the master. Zero values get paper defaults.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:0".
	Addr string
	// KeepalivePeriod between application-level pings (paper: 30 s).
	KeepalivePeriod time.Duration
	// KeepaliveTolerance is how many consecutive unanswered pings mark a
	// phone as failed offline (paper: 3).
	KeepaliveTolerance int
	// ProbeKB is the payload size of a bandwidth probe.
	ProbeKB int
	// Logger receives operational messages; nil discards them.
	Logger *obs.Logger
	// Metrics receives the master's instrumentation (and is what the
	// admin plane's /metrics serves). Nil gets a private registry, so
	// recording is always safe; share one registry with the WAL
	// (wal.Options.Metrics) to expose both through one endpoint.
	Metrics *obs.Registry
	// Tracer records task-lifecycle span events (submit → assign → exec →
	// checkpoint → report → aggregate, plus failure/requeue edges). Nil
	// gets a private 4096-event ring; attach a JSONL sink via
	// Tracer.SetSink to persist spans.
	Tracer *obs.Tracer
	// ObsAddr, when non-empty, binds the HTTP admin plane (GET /metrics,
	// /healthz, /statusz, /debug/sched, /debug/trace, /debug/timeline,
	// /debug/blackbox) on Start. Empty keeps the plane off:
	// observability is recorded either way, but nothing is served — and
	// workers are not asked for telemetry frames (the welcome's
	// Telemetry flag follows this setting), so an unobserved cluster
	// ships zero telemetry bytes.
	ObsAddr string
	// Blackbox, when set, is the master's black-box flight recorder, a
	// second tracer ring: /debug/blackbox serves it as JSONL, and the
	// daemon dumps it on panic/SIGQUIT. The master does not feed it —
	// wire it at construction, as cmd/cwc-server does:
	// Logger.SetTap(Blackbox.Log) and Tracer.SetTee(Blackbox.Record).
	Blackbox *obs.Tracer
	// AuthToken, when non-empty, is the shared enrolment secret every
	// phone must present in its hello; mismatches are dropped before
	// registration. (The paper assumes enterprise trust; a deployment
	// still wants to keep strangers out of the pool.)
	AuthToken string
	// DeadlineFactor scales the cost-model estimate
	// (E_j·b_i + l_ij·(b_i+c_ij)) into a per-assignment deadline. A phone
	// that blows its deadline is marked a straggler and its partition is
	// speculatively re-dispatched; at twice the deadline the phone's queue
	// is abandoned for the round. Default 4.
	DeadlineFactor float64
	// DeadlineFloor is the minimum assignment deadline regardless of the
	// estimate (early estimates are unreliable). Default 30 s.
	DeadlineFloor time.Duration
	// CheckpointEveryKB is the checkpoint-streaming policy announced to
	// workers in the welcome: stream a mid-execution checkpoint every
	// this many KB of processed input, bounding the work an offline
	// failure (or an abandoned straggler) can lose to roughly that
	// interval. Default 256; negative disables the announcement.
	CheckpointEveryKB int
	// WAL, when set, is the master's write-ahead log: every durable
	// state change is appended to it, Submit acknowledgements are gated
	// on the append, and RecoverWAL replays it after a crash. See
	// internal/wal and wal.go in this package.
	WAL *wal.Log
	// PlugAware enables plug-aware predictive placement and proactive
	// drain: the master learns each phone's charge-window distribution
	// from observed plug/unplug events, caps placements at the phone's
	// predicted remaining window, and drains phones whose windows are
	// closing (see drain.go). Off, the estimator still learns (so
	// /statusz can show windows) but never influences placement.
	PlugAware bool
	// Listener, when set, is a pre-bound listener Start serves on instead
	// of dialing Addr. A promoted standby uses it to take over a port it
	// bound (and answered with fast refusals) long before promotion; a
	// harness that injects faults passes a listener it has wrapped.
	Listener net.Listener
	// ReplicaSink, when set, receives every WAL record immediately after
	// it reaches the local log, for live streaming to hot standbys
	// (internal/replica). Ship runs on the master's loop, so
	// implementations must not block, and must never call a Master method.
	ReplicaSink ReplicaSink
	// Role labels this master in /statusz: "primary" (default), or
	// whatever a promotion path sets (internal/replica uses
	// "promoted-primary").
	Role string
	// VerifyReplicas is the replicated-voting factor k: every partition is
	// executed on k disjoint phones and its result digests are put to a
	// quorum vote — agreement finalizes, disagreement penalizes the
	// losers' reputation, a tie triggers a tie-break re-execution on a
	// high-reputation phone. 1 (the default) disables voting entirely;
	// the fleet may deliver fewer than k executions when it is small
	// (the shortfall resolves like a tie).
	VerifyReplicas int
	// AuditRate, in (0,1], spot-checks that fraction of partitions when
	// voting is off (VerifyReplicas <= 1): the selected partitions are
	// silently re-executed on a second phone and the digests compared.
	// The first result is folded immediately (audits never delay jobs);
	// a mismatch escalates to a tie-break for blame. 0 disables audits.
	AuditRate float64
}

// ReplicaSink receives the master's WAL records for live replication.
type ReplicaSink interface {
	// Ship delivers one appended record as the frame the local log took,
	// CRC included, in log order; must not block. A sink that keeps the
	// frame past the call Retains it and Releases it when done, and
	// never writes to it.
	Ship(f *wal.Frame)
	// DropAll detaches every standby, to resync from a fresh snapshot
	// cut: the log was re-anchored past records that were never shipped.
	DropAll()
	// Lag reports records accepted locally but not yet written to the
	// slowest attached standby (0 when none is attached).
	Lag() int64
}

func (c *Config) fill() {
	if c.KeepalivePeriod == 0 {
		c.KeepalivePeriod = 30 * time.Second
	}
	if c.KeepaliveTolerance == 0 {
		c.KeepaliveTolerance = 3
	}
	if c.ProbeKB == 0 {
		c.ProbeKB = 64
	}
	if c.Logger == nil {
		c.Logger = obs.Discard()
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(4096)
	}
	if c.DeadlineFactor == 0 {
		c.DeadlineFactor = 4
	}
	if c.DeadlineFloor == 0 {
		c.DeadlineFloor = 30 * time.Second
	}
	if c.CheckpointEveryKB == 0 {
		c.CheckpointEveryKB = 256
	}
	if c.Role == "" {
		c.Role = "primary"
	}
	if c.VerifyReplicas <= 0 {
		c.VerifyReplicas = 1
	}
	if c.AuditRate < 0 {
		c.AuditRate = 0
	} else if c.AuditRate > 1 {
		c.AuditRate = 1
	}
}

// PhoneInfo is a registered phone's public state.
type PhoneInfo struct {
	ID       int
	Model    string
	CPUMHz   float64
	RAMMB    int
	BMsPerKB float64
	Alive    bool
}

// phoneState is one registration, from its hello to its death: its
// connection and writer, and the loop's state of it — its keepalive, its
// probe and its dispatch window, at most two attempts out, the one
// executing and one prefetched behind it if both fit its RAM, so the next
// input crosses the link while the current one computes (the paper's
// lockstep kept link and CPU busy only alternately). One assignment is
// written at a time; the clock (due; zero: none) times win[0] only. A dead
// phone's window holds nothing.
type phoneState struct {
	info PhoneInfo
	conn *protocol.Conn
	out  chan flight   // its writer's queue (see queueLocked)
	dead chan struct{} // closed exactly once on death; its writer exits on it

	deadClosed bool   // the master's state, as kill and alive are
	rnd        *round // whose queue its window feeds; nil: idle
	queue      []assignment
	next       int      // queue[next:] has not been shipped
	win        []flight // outstanding attempts in execution order
	sending    int64    // attempt its writer has not finished; 0: none
	due        time.Time
	deadline   time.Duration
	straggled  bool
	pingDue    time.Time  // the next keepalive tick; zero while a ping is unwritten
	missed     int        // ticks since the last pong
	pings      uint64     // the last ping's seq
	rng        *rand.Rand // jitters each tick
	probe      *probing   // the call its outstanding probe answers; nil: none
	probeSeq   uint64     // that probe's seq, which its ack echoes
	probeAt    time.Time  // when it was queued
}

// kill closes the phone's connection and dead channel, once; it reports
// whether this call did. info.Alive is never mutated: liveness is derived
// from deadClosed (see alive()).
func (ps *phoneState) kill() bool {
	if ps.deadClosed {
		return false
	}
	ps.deadClosed = true
	close(ps.dead)
	ps.conn.Close()
	return true
}

// alive reports whether the phone has not died.
func (ps *phoneState) alive() bool { return !ps.deadClosed }

// workItem is a schedulable unit: a fresh job or migrated failed work.
type workItem struct {
	jobID  int // original submission this belongs to
	task   tasks.Task
	params []byte // task's parameters as Submit logged them, shipped as is
	span   string // jobSpan(jobID), minted once
	input  []byte
	resume *tasks.Checkpoint // non-nil: resume exactly (shipped whole)
	atomic bool
	// key identifies this exact byte range across re-dispatches: a
	// speculative copy carries the same key as its straggling original, and
	// the first result to arrive for a key wins (duplicates are dropped at
	// recording time). Zero means no copy can exist yet (fresh work); keyed
	// items are forced atomic so the key↔byte-range mapping stays 1:1.
	key int64
	// retries counts re-queues; past maxItemRetries the item is
	// dead-lettered instead of re-queued.
	retries int
	// partition is the partition number this byte range carried when it
	// was first dispatched. Partition numbers are minted at split time,
	// so without this field every re-dispatch (same-master re-queue or
	// post-failover recovery) would renumber the range to 0 and its
	// timeline rows — keyed on (job, partition) — would split in two.
	// Only meaningful for atomic re-queues; fresh splittable items are
	// numbered by slicePartitions.
	partition int
	// seq is a fresh item's durable identity in the write-ahead log: a
	// round record names the byte ranges it cuts from the item by seq,
	// offset and length. Keyed items have none — the key names them.
	seq int64
	// rng is the open-table entry of the range a keyed item is a queued
	// copy of (see walItemRec); nil for a fresh item.
	rng *walItemRec
}

// itemOf is the schedulable view of a durable entry: the queued form of
// a fresh item, or the copy of an open range that waits in pending —
// whole, atomic (so the key keeps naming one exact byte range), under the
// partition number and retry count the entry holds, resuming from the
// furthest checkpoint it holds: the in-flight partition re-runs from
// there, not from scratch, which is the bounded-work-loss guarantee for
// offline failures. js is e's job.
func itemOf(js *walJobRec, e *walItemRec) *workItem {
	it := &workItem{
		jobID: e.JobID, task: js.task, params: js.Params, span: jobSpan(e.JobID),
		input: e.input(), resume: e.Resume, atomic: e.Atomic, key: e.Key, retries: e.Retries, partition: e.Partition, seq: e.Seq,
	}
	if e.Key != 0 {
		it.rng = e
	}
	return it
}

// remainingKB is the unprocessed input in KB (R_j for scheduling).
func (w *workItem) remainingKB() float64 {
	total := int64(len(w.input))
	if w.resume != nil {
		total -= w.resume.Offset
	}
	kb := float64(total) / 1024
	if kb < 0.001 {
		kb = 0.001 // schedulable epsilon for nearly-done work
	}
	return kb
}

// further returns whichever checkpoint is further into the input; nil
// is the start.
func further(a, b *tasks.Checkpoint) *tasks.Checkpoint {
	if b != nil && (a == nil || b.Offset > a.Offset) {
		return b
	}
	return a
}

// settledLocked reports whether the open range e has left the open table:
// whatever still refers to it is moot.
func (m *Master) settledLocked(e *walItemRec) bool { return m.open[e.Key] != e }

// DeadLetter is a work item that exhausted its retry budget; it is
// surfaced on the master instead of being re-queued forever.
type DeadLetter struct {
	JobID   int
	Task    string
	Bytes   int
	Retries int
	Reason  string
}

// OfflineFailure is one structured offline-failure event: why a phone was
// declared dead (the paper folds every cause into "offline"; operators
// want to tell a corrupt stream from a silent one).
type OfflineFailure struct {
	PhoneID int
	Reason  string // one of offlineReasons
	Detail  string
}

// offlineReason is why a phone was declared dead, the label of
// cwc_offline_failures_total. The empty reason records no offline
// failure: the death was the master's own choice.
type offlineReason string

const (
	offlineKeepalive    offlineReason = "keepalive"
	offlineCorruptFrame offlineReason = "corrupt-frame"
	offlineConnLost     offlineReason = "conn-lost"
	offlineBye          offlineReason = "bye"
	offlineSendFailed   offlineReason = "send-failed"
	offlineRejoined     offlineReason = "rejoined"
)

var offlineReasons = []offlineReason{offlineKeepalive, offlineCorruptFrame,
	offlineConnLost, offlineBye, offlineSendFailed, offlineRejoined}

// attemptRec pairs an issued dispatch attempt with its assignment so a
// late or replayed report (straggler that finished after abandonment, a
// reconnecting worker flushing its unsent buffer) can still be credited.
// It is live while a window holds it, detached once none does. An
// expired one is a tie-break the master gave up on (tieBreakExpiredLocked):
// kept only so the arbiter's late report is told from a forgery, it credits
// nothing and goes when that report arrives, or with the phone's other
// attempts at the first round sweep after it dies. No window holds a
// profiling execution's either (profileOne).
type attemptRec struct {
	a       assignment
	ps      *phoneState
	expired bool
	reply   chan *protocol.Message // one slot; nil: not a profiling execution
}

// Master is the central server.
type Master struct {
	cfg Config
	mx  *masterMetrics // the families of cfg.Metrics the master records
	ln  net.Listener

	// The loop (loop.go): inputs is its one input channel (post, do), and
	// stepDone hands a do caller control back. stopped holds the state's
	// token while no loop runs; life ends in the loop's last step.
	inputs   chan any
	stepDone chan struct{}
	stopped  chan struct{}
	life     context.Context
	halt     context.CancelFunc
	wg       sync.WaitGroup

	// The state, owned by the loop or by the holder of stopped's token.
	//
	// The durable state — jobs, fresh items, open ranges, dead letters,
	// drains, reputation, quarantine, phone identities, the epoch and the
	// ID counters: everything a snapshot holds. Written only by folding a
	// record (walAppend, walAppendErr; wal.go).
	*walReducer

	phones map[int]*phoneState
	// pending is the queue: a work item per fresh entry and per open range
	// that has a copy waiting, in scheduling order.
	pending   []*workItem
	est       *predict.Estimator
	phoneWait chan struct{} // broadcast on registration

	nextAttempt int64
	attempts    map[int64]*attemptRec
	// wakeAt is the earliest deadline armed (armLocked) since the loop
	// last scanned its timers; zero: scan at the next step.
	wakeAt time.Time

	offline   []OfflineFailure
	ckptFolds int // streamed checkpoints accepted (monotonic, for tests/ops)

	// windows learns each phone's charge-window distribution from
	// observed plug/unplug events (internally synchronized).
	windows *predict.WindowEstimator

	// votes holds the open result-integrity vote groups by speculation key
	// (verify.go).
	votes map[int64]*voteGroup
	// current is the round open from the loop's commit to its end; outside
	// one (nil), a result, vote or tie-break completing a job's coverage
	// finishes the job inline (finishJobLocked).
	current *round
	// walStale is set when the log may lack something live state holds (a
	// lost record): no record is written until walCompactLocked has folded
	// a snapshot.
	walStale bool

	closed bool // the last step has run (closeLocked)

	// rounds counts completed scheduling rounds; lastSched is the most
	// recent round's packing decision paired with what actually happened
	// (served by /debug/sched).
	rounds    int
	lastSched *SchedSnapshot

	// timeline is the open round's events as trace wrote them; its
	// backing array serves every round.
	timeline []obs.SpanEvent

	// slos tracks the master's rolling-window service-level objectives
	// (internally synchronized; see registerMasterSLOs for the catalog).
	slos *obs.SLOSet

	obsLn net.Listener // admin plane listener (nil when ObsAddr is unset)

	// plan is the memory each round is planned in (round.go): RunRound
	// packs in it, then the loop's commit snapshots from it.
	plan roundPlan
}

// The charge-window estimator's two parameters: a phone needs
// windowMinSessions completed charge sessions before its window
// predictions are trusted (below it the estimator never vetoes), and an
// unplug followed by a replug within flapMergeMs is one continuing
// session (contact bounce, a brief cable wiggle), not two.
const (
	windowMinSessions = 3
	flapMergeMs       = 1000
)

// New creates a master; call Start to listen.
func New(cfg Config) *Master {
	cfg.fill()
	windows, err := predict.NewWindowEstimator(windowMinSessions, flapMergeMs)
	if err != nil {
		panic(fmt.Sprintf("server: window estimator: %v", err)) // the constants are in range
	}
	m := &Master{
		cfg:        cfg,
		mx:         newMasterMetrics(cfg.Metrics),
		inputs:     make(chan any),
		stepDone:   make(chan struct{}),
		stopped:    make(chan struct{}, 1),
		walReducer: newWALReducer(),
		phones:     map[int]*phoneState{},
		attempts:   map[int64]*attemptRec{},
		votes:      map[int64]*voteGroup{},
		windows:    windows,
		slos:       registerMasterSLOs(),
		phoneWait:  make(chan struct{}),
	}
	m.stopped <- struct{}{}
	m.life, m.halt = context.WithCancel(context.Background())
	return m
}

// DeadLetters returns the work items that exhausted their retry budget.
func (m *Master) DeadLetters() (out []DeadLetter) {
	m.do(func() { out = slices.Clone(m.dead) })
	return out
}

// OfflineFailures returns the structured offline-failure event log.
func (m *Master) OfflineFailures() (out []OfflineFailure) {
	m.do(func() { out = slices.Clone(m.offline) })
	return out
}

// offlineLocked logs a structured offline-failure event; reason "" logs
// none.
func (m *Master) offlineLocked(phoneID int, reason offlineReason, detail string) {
	if reason == "" {
		return
	}
	m.cfg.Logger.With("phone", phoneID).Warnf("offline failure: %s (%s)", reason, detail)
	m.offline = append(m.offline, OfflineFailure{PhoneID: phoneID, Reason: string(reason), Detail: detail})
	m.mx.offline[reason].Inc()
}

// Start begins listening and accepting phones.
func (m *Master) Start() error {
	ln := m.cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", m.cfg.Addr)
		if err != nil {
			return fmt.Errorf("server: listen %s: %w", m.cfg.Addr, err)
		}
	}
	if m.cfg.ObsAddr != "" {
		if err := m.serveObs(m.cfg.ObsAddr); err != nil {
			ln.Close()
			return err
		}
	}
	<-m.stopped // the loop owns the state from here
	m.ln = ln
	m.wg.Add(2)
	go m.run()
	go m.acceptLoop()
	return nil
}

// Addr returns the bound listen address.
func (m *Master) Addr() string {
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// Close shuts the master down: says goodbye to phones and stops accepting.
func (m *Master) Close() { m.shutdown(true) }

// Kill is Close without the courtesy: no bye frames — the closest an
// in-process master gets to SIGKILL. Listeners and connections drop
// abruptly, goroutines are awaited, and the WAL (owned by the caller) is
// left exactly as the last append left it — a round in flight hands
// nothing back and compacts nothing — so a failover harness can kill a
// primary mid-round and later resurrect it from that log.
func (m *Master) Kill() { m.shutdown(false) }

// shutdown is the one way a master stops: its last step (closeLocked),
// then a wait for every goroutine; bye says whether each phone is told
// before its connection drops.
func (m *Master) shutdown(bye bool) {
	m.do(func() { m.closeLocked(bye) })
	m.wg.Wait()
}

func (m *Master) acceptLoop() {
	defer m.wg.Done()
	for {
		raw, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.handlePhone(protocol.NewConn(raw))
		}()
	}
}

// helloTimeout bounds how long an accepted connection may take to
// deliver a complete hello. Without it a dialer that stalls mid-frame —
// or a hello whose length prefix was corrupted in transit into a huge
// frame — parks this goroutine forever and survives Close.
const helloTimeout = 10 * time.Second

// defaultBMsPerKB is assumed for a phone whose bandwidth has not been
// probed yet.
const defaultBMsPerKB = 10

// handlePhone reads and checks a phone's hello, has the loop register
// it, and becomes its reader once its writer runs. The master's stop cuts
// a half-read hello short.
func (m *Master) handlePhone(conn *protocol.Conn) {
	cut := context.AfterFunc(m.life, func() { conn.Close() })
	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	hello, err := conn.Recv()
	cut()
	if err != nil || hello.Type != protocol.TypeHello {
		conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	if m.cfg.AuthToken != "" && !tokenMatch(hello.Token, m.cfg.AuthToken) {
		m.cfg.Logger.With("addr", conn.RemoteAddr()).Warnf("rejecting phone: bad enrolment token")
		conn.Close()
		return
	}
	// The packer prices every live phone each round: one it cannot price
	// would fail every round for the whole fleet.
	if !(hello.CPUMHz > 0) || math.IsInf(hello.CPUMHz, 1) || hello.RAMMB < 0 {
		m.cfg.Logger.With("addr", conn.RemoteAddr()).Warnf("rejecting phone: unpriceable hello (%v MHz, %d MB RAM)",
			hello.CPUMHz, hello.RAMMB)
		conn.Close()
		return
	}
	in := &joined{conn: conn, hello: hello}
	if !m.call(in) {
		conn.Close() // the master has stopped
		return
	}
	m.wg.Add(1)
	go m.writer(in.ps)
	m.readLoop(in.ps)
}

// joinLocked registers a checked hello under a fresh ID or its prior one,
// kills the registration it supersedes, starts its keepalive clock and
// queues its welcome.
func (m *Master) joinLocked(now time.Time, conn *protocol.Conn, hello *protocol.Message) *phoneState {
	var id int
	var prior *phoneState
	old, haveLive := m.phones[hello.PhoneID]
	switch {
	case hello.Rejoin && haveLive && old.info.Model == hello.Model:
		// Reconnection: the phone resumes its prior identity. Bandwidth
		// estimates (and the estimator's per-phone refinements, keyed by
		// ID) survive the reconnect; the old connection state is retired.
		// The model must match: after a failover two different phones can
		// legitimately believe they hold the same ID (the old regime's
		// grant vs the new master's), and an unchecked takeover lets them
		// steal the registration from each other forever.
		id = hello.PhoneID
		prior = old
	case hello.Rejoin && !haveLive && hello.Model != "" && m.identity[hello.PhoneID] == hello.Model:
		// Rejoin to a recovered (or promoted) master: no live connection
		// holds the ID, but the WAL vouches that this model was issued
		// it. Honoring the claim keeps the phone's durable reputation and
		// quarantine state (walRecReputation) bound to the phone instead
		// of evaporating with a freshly issued ID.
		id = hello.PhoneID
	default:
		// Durable (and replicated) so no later regime — a restarted
		// master or a promoted standby — can ever reissue this ID while
		// the phone still holds it.
		id = m.nextPhoneID
		m.walAppend(&walRegisterRec{PhoneID: id, Model: hello.Model})
	}
	ps := &phoneState{
		info: PhoneInfo{
			ID:       id,
			Model:    hello.Model,
			CPUMHz:   hello.CPUMHz,
			RAMMB:    hello.RAMMB,
			BMsPerKB: defaultBMsPerKB,
			Alive:    true,
		},
		conn: conn,
		out:  make(chan flight, writerQueue),
		dead: make(chan struct{}),
	}
	plog := m.cfg.Logger.With("phone", id)
	if prior != nil {
		ps.info.BMsPerKB = prior.info.BMsPerKB
		m.mx.reconnected.Inc()
		plog.Infof("reconnected: %s %.0f MHz", hello.Model, hello.CPUMHz)
	} else {
		m.mx.registered.Inc()
		plog.Infof("registered: %s %.0f MHz", hello.Model, hello.CPUMHz)
	}
	m.phones[id] = ps
	ps.rng = rand.New(rand.NewSource(int64(id) + 1))
	ps.pingDue = now.Add(keepaliveJitter(m.cfg.KeepalivePeriod, ps.rng))
	m.armLocked(ps.pingDue)
	if prior != nil {
		m.dieLocked(prior, offlineRejoined, "superseded by a reconnection")
	}
	// Feed the charge-window estimator. A new session (the phone was seen
	// unplugged since) clears any drain entry; a reconnect within an open
	// one — a TCP blip, a master restart — keeps it: the prediction that
	// triggered it is still about the same session.
	newSession := !m.windows.Plugged(id)
	m.windows.ObservePlug(id, nowMs())
	if newSession {
		m.clearDrainLocked(id)
	}
	close(m.phoneWait) // wake WaitForPhones
	m.phoneWait = make(chan struct{})

	m.queueLocked(ps, flight{ctl: &protocol.Message{
		Type:        protocol.TypeWelcome,
		PhoneID:     id,
		CkptEveryKB: max(m.cfg.CheckpointEveryKB, 0),
		Epoch:       m.epoch,
		// Telemetry opt-in follows the admin plane: a master nobody can
		// observe asks for no telemetry, so the unobserved cluster ships
		// zero extra frames and zero extra bytes.
		Telemetry: m.cfg.ObsAddr != "",
	}})
	return ps
}

// readLoop posts every frame of one phone to the loop until its death,
// which it posts with its cause. It sends a checkpoint's ack once the
// loop's step has answered: never behind a prefetched assign on the writer.
func (m *Master) readLoop(ps *phoneState) {
	for {
		msg, err := ps.conn.Recv()
		if err != nil {
			m.mx.connErrors.Inc()
			// A corrupt frame means framing is lost on an otherwise-open
			// connection: an offline failure like a missed keepalive, but
			// recorded as its own event. An error once the master itself let
			// go of the phone is no failure of the phone's (dieLocked).
			reason := offlineConnLost
			if errors.Is(err, protocol.ErrCorrupt) {
				reason = offlineCorruptFrame
			}
			m.post(died{ps, reason, err.Error()})
			return
		}
		m.mx.framesReceived[msg.Type].Inc()
		switch msg.Type {
		case protocol.TypeBye:
			m.post(died{ps, offlineBye, "orderly unplug"})
			return
		case protocol.TypeCheckpoint:
			if m.call(reported{ps, msg, true}) {
				if msg.Type == protocol.TypeCheckpointAck {
					_ = ps.conn.Send(msg)
				}
				ps.conn.Reuse(msg)
			}
		default:
			m.post(reported{ps: ps, msg: msg})
		}
	}
}

// Epoch returns the master's current fencing epoch (0 until replication
// assigns one).
func (m *Master) Epoch() (epoch int64) {
	m.do(func() { epoch = m.epoch })
	return epoch
}

// BumpEpoch durably advances the fencing epoch by one. The record is
// WAL-logged (and shipped to standbys) before the new epoch takes
// effect, so no crash can resurrect a regime that shares an epoch with
// this one. Called exactly twice in a master's life cycle: once at
// primary startup when replication is enabled (0 → 1), and once per
// standby promotion (N → N+1). A plain restart never bumps — a
// resurrected old primary stays at the epoch it last persisted, strictly
// below its promoted standby's, which is what makes its frames fenceable.
func (m *Master) BumpEpoch() (next int64, err error) {
	m.do(func() {
		next = m.epoch + 1
		if err = m.walAppendErr(&walEpochRec{Epoch: next}); err != nil {
			return
		}
		m.mx.epoch.Set(float64(next))
		m.cfg.Tracer.SetEpoch(next)
		m.trace(obs.SpanEvent{Kind: obs.KindPromote, Job: -1, Partition: -1, Phone: -1,
			Detail: fmt.Sprintf("epoch %d -> %d", next-1, next), Epoch: next})
	})
	if err != nil {
		return 0, fmt.Errorf("server: persisting epoch %d: %w", next, err)
	}
	return next, nil
}

// fenced reports whether a report-carrying frame belongs to another
// master regime and must be rejected. A frame stamped with a different
// non-zero epoch was issued under a different primary: its attempt
// numbering restarted at promotion, so accepting it could pair a stale
// report with a fresh attempt — or let a resurrected old primary keep
// collecting results it no longer owns. Epoch-less frames (replication
// off) pass; the attempt/key dedupe still guards them.
func (m *Master) fenced(msg *protocol.Message) bool {
	return msg.Epoch != 0 && msg.Epoch != m.epoch
}

// rejectFenced drops a frame from another epoch: counted, logged, never
// credited or folded. A frame from a *newer* epoch also means this master
// itself is stale (a resurrected old primary watching the fleet move on)
// — worth the louder log line.
func (m *Master) rejectFenced(ps *phoneState, msg *protocol.Message) {
	m.mx.framesFenced[msg.Type].Inc()
	l := m.cfg.Logger.With("phone", ps.info.ID, "type", string(msg.Type),
		"frame_epoch", msg.Epoch, "epoch", m.epoch)
	if msg.Epoch > m.epoch {
		l.Errorf("fenced frame from a newer epoch: this master has been superseded")
	} else {
		l.Warnf("fenced frame from a stale epoch")
	}
}

// attemptLocked resolves the attempt a frame from ps names: the one place a
// frame's Attempt number meets the table. A frame is credited only to an
// attempt issued to the phone ID that sent it (the ID, not the connection:
// a reconnected phone reports on a new phoneState) — attempt numbers are
// sequential, and a neighbour's is a guess away. Nil for an attempt long
// settled, never issued, not named (0) or somebody else's.
func (m *Master) attemptLocked(ps *phoneState, id int64) *attemptRec {
	if rec := m.attempts[id]; rec != nil && rec.ps.info.ID == ps.info.ID {
		return rec
	}
	return nil
}

// tickLocked is a keepalive tick, the paper's offline-failure detector: a
// tick finding the last ping unanswered is a miss, and more than
// KeepaliveTolerance in a row are a death. Else a ping is queued; the next
// tick is armed once it is written.
func (m *Master) tickLocked(ps *phoneState) {
	ps.pingDue = time.Time{}
	ps.missed++
	if ps.missed > 1 {
		// The previous ping went unanswered for a full period.
		m.mx.keepaliveMisses.Inc()
		m.sloObserve(sloKeepalive, false)
	}
	if ps.missed > m.cfg.KeepaliveTolerance {
		m.dieLocked(ps, offlineKeepalive, fmt.Sprintf("%d consecutive misses", m.cfg.KeepaliveTolerance))
		return
	}
	ps.pings++
	m.mx.keepalivePings.Inc()
	m.queueLocked(ps, flight{attempt: pingAttempt, ctl: &protocol.Message{Type: protocol.TypePing, Seq: ps.pings}})
}

// keepaliveJitter spreads a keepalive period uniformly over ±10%, so
// hundreds of phones registered in a burst do not ping in lockstep forever.
func keepaliveJitter(period time.Duration, rng *rand.Rand) time.Duration {
	return period + time.Duration((rng.Float64()*0.2-0.1)*float64(period))
}

// WaitForPhones blocks until at least n phones are registered and alive.
func (m *Master) WaitForPhones(ctx context.Context, n int) error {
	for {
		// The channel and the count in one step: a phone that registers
		// after it closes the channel.
		var ch chan struct{}
		var live int
		m.do(func() { ch, live = m.phoneWait, m.liveLocked() })
		if live >= n {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return fmt.Errorf("server: waiting for %d phones: %w", n, ctx.Err())
		}
	}
}

// Phones lists registered phones, sorted by ID.
func (m *Master) Phones() []PhoneInfo {
	var out []PhoneInfo
	m.do(func() {
		out = make([]PhoneInfo, 0, len(m.phones))
		for _, ps := range m.phones {
			info := ps.info
			info.Alive = ps.alive()
			out = append(out, info)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// liveLocked counts the live fleet.
func (m *Master) liveLocked() int {
	n := 0
	for _, ps := range m.phones {
		if ps.alive() {
			n++
		}
	}
	return n
}

// ErrNoPhones is returned by operations that need at least one live phone.
var ErrNoPhones = errors.New("server: no phones available")

// tokenMatch compares enrolment tokens in constant time.
func tokenMatch(got, want string) bool {
	return subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1
}
