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
	// ChunkKB caps the input bytes carried per assignment frame; larger
	// partitions stream as assign_chunk frames. Default 4096 (4 MiB).
	ChunkKB int
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
	// CheckpointEvery additionally announces a wall-time streaming
	// interval (0: byte-driven only).
	CheckpointEvery time.Duration
	// ListenerHook, when set, wraps the TCP listener before the accept
	// loop uses it (fault injection, metrics).
	ListenerHook func(net.Listener) net.Listener
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
	// DrainCheckPeriod is the interval between drain checks.
	// Default 1 s.
	DrainCheckPeriod time.Duration
	// Listener, when set, is a pre-bound listener Start serves on instead
	// of dialing Addr. A promoted standby uses it to take over a port it
	// bound (and answered with fast refusals) long before promotion.
	Listener net.Listener
	// ReplicaSink, when set, receives every WAL record immediately after
	// it reaches the local log, for live streaming to hot standbys
	// (internal/replica). Ship is called with the master's state lock
	// held, so implementations must not block.
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
	if c.ChunkKB == 0 {
		c.ChunkKB = 4096
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
	if c.DrainCheckPeriod == 0 {
		c.DrainCheckPeriod = time.Second
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

// phoneState is the master's per-phone bookkeeping.
type phoneState struct {
	info PhoneInfo
	conn *protocol.Conn

	out  chan flight   // its writer's queue (see queueLocked)
	dead chan struct{} // closed exactly once on death; its writer exits on it

	deadClosed bool // under the master's mu, as kill and alive are
}

// kill closes the phone's connection and dead channel, once; it reports
// whether this call did. info.Alive is never mutated: liveness is derived
// from deadClosed (see alive()). Caller holds m.mu.
func (ps *phoneState) kill() bool {
	if ps.deadClosed {
		return false
	}
	ps.deadClosed = true
	close(ps.dead)
	ps.conn.Close()
	return true
}

// alive reports whether the phone has not died. Caller holds m.mu.
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
		input: e.Input, resume: e.Resume, atomic: e.Atomic, key: e.Key, retries: e.Retries, partition: e.Partition, seq: e.Seq,
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
// whatever still refers to it is moot. Caller holds m.mu.
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
// It is live while a window holds it, detached once none does.
type attemptRec struct {
	a  assignment
	ps *phoneState
}

// Master is the central server.
type Master struct {
	cfg Config
	mx  *masterMetrics // the families of cfg.Metrics the master records
	ln  net.Listener

	mu sync.Mutex
	// The durable state — jobs, fresh items, open ranges, dead letters,
	// drains, reputation, quarantine, phone identities, the epoch and the
	// ID counters: everything a snapshot holds. Read anywhere under mu;
	// written only by folding a record (walAppend, walAppendErr; wal.go).
	*walReducer // guarded by mu

	phones map[int]*phoneState // guarded by mu
	// pending is the queue: a work item per fresh entry and per open range
	// that has a copy waiting, in scheduling order.
	pending   []*workItem        // guarded by mu
	est       *predict.Estimator // guarded by mu
	phoneWait chan struct{}      // guarded by mu; broadcast on registration

	// accepted, hello not yet processed
	handshaking map[*protocol.Conn]struct{} // guarded by mu

	nextAttempt int64                 // guarded by mu
	attempts    map[int64]*attemptRec // guarded by mu
	// wins holds every live phone's window; only the loop (run) changes
	// them. inputs is the loop's one input channel (post).
	wins   map[*phoneState]*window // guarded by mu
	inputs chan any
	// wakeAt is the earliest deadline armed (armLocked) since the loop
	// last scanned its timers; zero: scan at the next step.
	wakeAt time.Time // guarded by mu

	offline   []OfflineFailure // guarded by mu
	ckptFolds int              // guarded by mu; streamed checkpoints accepted (monotonic, for tests/ops)

	// windows learns each phone's charge-window distribution from
	// observed plug/unplug events (internally synchronized; queried
	// without m.mu).
	windows *predict.WindowEstimator

	// votes holds the open result-integrity vote groups by speculation key
	// (verify.go).
	votes map[int64]*voteGroup // guarded by mu
	// roundActive is true while RunRound owns job aggregation (its end-
	// of-round sweep); outside a round, a vote or tie-break resolving the
	// last open range aggregates the job inline (finishJobLocked).
	roundActive bool // guarded by mu
	// walStale is set when the log may lack something live state holds (a
	// lost record): no record is written until walCompactLocked has folded
	// a snapshot.
	walStale bool // guarded by mu

	closed  bool // guarded by mu
	wg      sync.WaitGroup
	stopped chan struct{}

	// rounds counts completed scheduling rounds; lastSched is the most
	// recent round's packing decision paired with what actually happened
	// (served by /debug/sched).
	rounds    int            // guarded by mu
	lastSched *SchedSnapshot // guarded by mu

	// timeline is the open round's events as trace wrote them while
	// collecting; its backing array serves every round.
	timeline   []obs.SpanEvent // guarded by mu
	collecting bool            // guarded by mu

	// slos tracks the master's rolling-window service-level objectives
	// (internally synchronized; see registerMasterSLOs for the catalog).
	slos *obs.SLOSet

	obsLn net.Listener // admin plane listener (nil when ObsAddr is unset)

	// plan is the memory each round is planned in (round.go); RunRound
	// alone uses it.
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
	return &Master{
		cfg:         cfg,
		mx:          newMasterMetrics(cfg.Metrics),
		walReducer:  newWALReducer(),
		handshaking: map[*protocol.Conn]struct{}{},
		phones:      map[int]*phoneState{},
		attempts:    map[int64]*attemptRec{},
		wins:        map[*phoneState]*window{},
		inputs:      make(chan any),
		votes:       map[int64]*voteGroup{},
		windows:     windows,
		slos:        registerMasterSLOs(),
		phoneWait:   make(chan struct{}),
		stopped:     make(chan struct{}),
	}
}

// DeadLetters returns the work items that exhausted their retry budget.
func (m *Master) DeadLetters() []DeadLetter {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.dead)
}

// OfflineFailures returns the structured offline-failure event log.
func (m *Master) OfflineFailures() []OfflineFailure {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.offline)
}

// offlineLocked logs a structured offline-failure event; reason "" logs
// none. Caller holds m.mu.
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
	if m.cfg.ListenerHook != nil {
		ln = m.cfg.ListenerHook(ln)
	}
	m.ln = ln
	m.wg.Add(2)
	go m.run()
	go m.acceptLoop()
	if m.cfg.ObsAddr != "" {
		if err := m.serveObs(m.cfg.ObsAddr); err != nil {
			ln.Close()
			return err
		}
	}
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
// left exactly as the last append left it, so a failover harness can kill
// a primary mid-round and later resurrect it from that log.
func (m *Master) Kill() { m.shutdown(false) }

// shutdown is the one way a master stops; bye says whether each phone is
// told before its connection drops. Once closed, no phone registers and no
// death is an offline failure; the loop's last step kills every phone.
func (m *Master) shutdown(bye bool) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	var phones []*phoneState
	for _, ps := range m.phones {
		phones = append(phones, ps)
	}
	pending := make([]*protocol.Conn, 0, len(m.handshaking))
	for c := range m.handshaking {
		pending = append(pending, c)
	}
	m.mu.Unlock()

	if m.ln != nil {
		m.ln.Close()
	}
	if m.obsLn != nil {
		m.obsLn.Close()
	}
	for _, c := range pending {
		c.Close() // cut half-finished handshakes short
	}
	for _, ps := range phones {
		if bye {
			_ = ps.conn.Send(&protocol.Message{Type: protocol.TypeBye})
		}
	}
	close(m.stopped)
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
// it, and becomes its reader once its writer runs.
func (m *Master) handlePhone(conn *protocol.Conn) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		conn.Close()
		return
	}
	m.handshaking[conn] = struct{}{}
	m.mu.Unlock()
	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	hello, err := conn.Recv()
	m.mu.Lock()
	delete(m.handshaking, conn)
	m.mu.Unlock()
	if err != nil || hello.Type != protocol.TypeHello || hello.CPUMHz <= 0 {
		conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	if m.cfg.AuthToken != "" && !tokenMatch(hello.Token, m.cfg.AuthToken) {
		m.cfg.Logger.With("addr", conn.RemoteAddr()).Warnf("rejecting phone: bad enrolment token")
		conn.Close()
		return
	}
	in := &joined{conn: conn, hello: hello, done: make(chan struct{})}
	if m.post(in) {
		<-in.done
	}
	if in.ps == nil {
		conn.Close() // the master is closing
		return
	}
	m.wg.Add(1)
	go m.writer(in.ps)
	m.readLoop(in.ps)
}

// joinLocked registers a checked hello under a fresh ID or its prior one,
// kills the registration it supersedes, starts its keepalive clock and
// queues its welcome; nil once the master is closing. Caller holds m.mu.
func (m *Master) joinLocked(now time.Time, conn *protocol.Conn, hello *protocol.Message) *phoneState {
	if m.closed {
		return nil
	}
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
	rng := rand.New(rand.NewSource(int64(id) + 1))
	m.wins[ps] = &window{ps: ps, rng: rng, pingDue: now.Add(keepaliveJitter(m.cfg.KeepalivePeriod, rng))}
	m.armLocked(m.wins[ps].pingDue)
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
		KeepaliveMs: int(m.cfg.KeepalivePeriod / time.Millisecond),
		CkptEveryKB: max(m.cfg.CheckpointEveryKB, 0),
		CkptEveryMs: int(m.cfg.CheckpointEvery / time.Millisecond),
		Epoch:       m.epoch,
		// Telemetry opt-in follows the admin plane: a master nobody can
		// observe asks for no telemetry, so the unobserved cluster ships
		// zero extra frames and zero extra bytes.
		Telemetry: m.cfg.ObsAddr != "",
	}})
	return ps
}

// readLoop routes one phone's frames until its death, which it posts with
// its cause. A frame it handles goes back to the connection (Reuse); one
// posted to the loop is the loop's to give back.
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
		case protocol.TypePong, protocol.TypeProbeAck:
			m.post(reported{ps, msg})
			continue
		case protocol.TypeTelemetry:
			// Deliberately not fenced: a worker's buffered span events
			// must survive a standby promotion — each event carries the
			// epoch it was minted under instead of the frame.
			m.foldTelemetry(ps, msg)
		case protocol.TypeCheckpoint, protocol.TypeResult, protocol.TypeFailure:
			switch {
			case m.fenced(msg):
				m.rejectFenced(ps, msg)
			case msg.Type == protocol.TypeCheckpoint:
				// Folded and acked here; no window moves on a checkpoint.
				m.recordStreamedCheckpoint(ps, msg)
			default:
				m.post(reported{ps, msg})
				continue
			}
		case protocol.TypeBye:
			m.post(died{ps, offlineBye, "orderly unplug"})
			return
		default:
			// A frame the master never expects from a worker (hello after
			// registration, an echo of a server->worker type, a frame from
			// a newer peer). Dropped for forward compatibility, but counted
			// and logged so a chattering peer is visible in /metrics.
			m.mx.framesUnexpected[msg.Type].Inc()
			m.cfg.Logger.With("phone", ps.info.ID, "type", string(msg.Type)).
				Debugf("ignoring unexpected frame")
		}
		ps.conn.Reuse(msg)
	}
}

// Epoch returns the master's current fencing epoch (0 until replication
// assigns one).
func (m *Master) Epoch() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// BumpEpoch durably advances the fencing epoch by one. The record is
// WAL-logged (and shipped to standbys) before the new epoch takes
// effect, so no crash can resurrect a regime that shares an epoch with
// this one. Called exactly twice in a master's life cycle: once at
// primary startup when replication is enabled (0 → 1), and once per
// standby promotion (N → N+1). A plain restart never bumps — a
// resurrected old primary stays at the epoch it last persisted, strictly
// below its promoted standby's, which is what makes its frames fenceable.
func (m *Master) BumpEpoch() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := m.epoch + 1
	if err := m.walAppendErr(&walEpochRec{Epoch: next}); err != nil {
		return 0, fmt.Errorf("server: persisting epoch %d: %w", next, err)
	}
	m.mx.epoch.Set(float64(next))
	m.cfg.Tracer.SetEpoch(next)
	m.trace(obs.SpanEvent{Kind: obs.KindPromote, Job: -1, Partition: -1, Phone: -1,
		Detail: fmt.Sprintf("epoch %d -> %d", next-1, next), Epoch: next})
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
	return msg.Epoch != 0 && msg.Epoch != m.Epoch()
}

// rejectFenced drops a frame from another epoch: counted, logged, never
// posted to the loop or folded. A frame from a *newer* epoch also
// means this master itself is stale (a resurrected old primary watching
// the fleet move on) — worth the louder log line.
func (m *Master) rejectFenced(ps *phoneState, msg *protocol.Message) {
	m.mx.framesFenced[msg.Type].Inc()
	cur := m.Epoch()
	l := m.cfg.Logger.With("phone", ps.info.ID, "type", string(msg.Type),
		"frame_epoch", msg.Epoch, "epoch", cur)
	if msg.Epoch > cur {
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
// settled, never issued, not named (0) or somebody else's. Caller holds m.mu.
func (m *Master) attemptLocked(ps *phoneState, id int64) *attemptRec {
	if rec := m.attempts[id]; rec != nil && rec.ps.info.ID == ps.info.ID {
		return rec
	}
	return nil
}

// tickLocked is a keepalive tick, the paper's offline-failure detector: a
// tick finding the last ping unanswered is a miss, and more than
// KeepaliveTolerance in a row are a death. Else a ping is queued; the next
// tick is armed once it is written. Caller holds m.mu.
func (m *Master) tickLocked(w *window) {
	w.pingDue = time.Time{}
	w.missed++
	if w.missed > 1 {
		// The previous ping went unanswered for a full period.
		m.mx.keepaliveMisses.Inc()
		m.sloObserve(sloKeepalive, false)
	}
	if w.missed > m.cfg.KeepaliveTolerance {
		m.dieLocked(w.ps, offlineKeepalive, fmt.Sprintf("%d consecutive misses", m.cfg.KeepaliveTolerance))
		return
	}
	w.pings++
	m.mx.keepalivePings.Inc()
	m.queueLocked(w.ps, flight{attempt: pingAttempt, ctl: &protocol.Message{Type: protocol.TypePing, Seq: w.pings}})
}

// keepaliveJitter spreads a keepalive period uniformly over ±10%, so
// hundreds of phones registered in a burst do not ping in lockstep forever.
func keepaliveJitter(period time.Duration, rng *rand.Rand) time.Duration {
	return period + time.Duration((rng.Float64()*0.2-0.1)*float64(period))
}

// WaitForPhones blocks until at least n phones are registered and alive.
func (m *Master) WaitForPhones(ctx context.Context, n int) error {
	for {
		// The channel first: a phone that registers after the count below
		// closes it.
		m.mu.Lock()
		ch := m.phoneWait
		m.mu.Unlock()
		if len(m.alivePhones()) >= n {
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
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PhoneInfo, 0, len(m.phones))
	for _, ps := range m.phones {
		info := ps.info
		info.Alive = ps.alive()
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// alivePhones snapshots the live fleet.
func (m *Master) alivePhones() []*phoneState {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*phoneState
	for _, ps := range m.phones {
		if ps.alive() {
			out = append(out, ps)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].info.ID < out[j].info.ID })
	return out
}

// ErrNoPhones is returned by operations that need at least one live phone.
var ErrNoPhones = errors.New("server: no phones available")

// tokenMatch compares enrolment tokens in constant time.
func tokenMatch(got, want string) bool {
	return subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1
}
