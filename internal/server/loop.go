package server

import (
	"context"
	"math/rand"
	"slices"
	"time"

	"cwc/internal/core"
	"cwc/internal/obs"
	"cwc/internal/predict"
	"cwc/internal/protocol"
)

// The dispatch loop: one goroutine, run, owns every phone's life, window
// and timers, and each round from its commit to its end, as the paper's
// master was one NIO selector thread. Each input is one critical section
// of ...Locked calls: a checked hello, a take or a *round, a
// MeasureBandwidths call, a frame a reader received, a writer's outcome,
// the reader's death, a cancelled round (nil: the master stops), or the
// timer. Readers and writers do the I/O.
type (
	joined struct {
		conn  *protocol.Conn
		hello *protocol.Message
		ps    *phoneState   // its registration; nil: the master is closing
		done  chan struct{} // closed once ps is set
	}
	reported struct {
		ps   *phoneState
		msg  *protocol.Message
		done chan struct{} // a checkpoint's: closed once msg is its ack (if one is due)
	}
	sent struct {
		ps      *phoneState
		attempt int64
		err     error
	}
	died struct {
		ps     *phoneState
		reason offlineReason
		detail string
	}
	cancelled struct{ rnd *round }
	// taking is RunRound's take: the queue if asked for, and the planning
	// fleet, live phones in ID order, with the estimator (takeLocked).
	taking struct {
		queue  bool
		items  []*workItem
		phones []*phoneState
		infos  []PhoneInfo // phones' info, for the packer off the loop
		est    *predict.Estimator
		done   chan struct{}
	}
)

// A round is per-phone queues for the loop: a scheduling round RunRound
// packed, which the loop commits, runs and ends with its report or err, or
// a profiling execution, whose one keyless flight ships even to a draining
// phone, runs on no clock, does not kill its phone by failing, and leaves
// its report in resp (nil: none came).
type round struct {
	plans  [][]assignment
	phones []*phoneState
	open   int           // windows still holding its work
	done   chan struct{} // closed in the step that ends it
	items  []*workItem
	sched  *core.Schedule
	inst   *core.Instance
	snap   *SchedSnapshot
	start  time.Time // its windows' start
	report *RoundReport
	err    error

	profiling bool
	resp      *protocol.Message
}

// window is one phone's state from registration to death: its keepalive,
// its probe and its dispatch, at most two attempts out, the one executing
// and one prefetched behind it if both fit its RAM, so the next input
// crosses the link while the current one computes (the paper's lockstep
// kept link and CPU busy only alternately). One assignment is written at a
// time; the clock (due; zero: none) times win[0] only.
type window struct {
	ps        *phoneState
	rnd       *round // whose queue it feeds; nil: idle
	queue     []assignment
	next      int      // queue[next:] has not been shipped
	win       []flight // outstanding attempts in execution order
	sending   int64    // attempt its writer has not finished; 0: none
	due       time.Time
	deadline  time.Duration
	straggled bool
	pingDue   time.Time  // the next keepalive tick; zero while a ping is unwritten
	missed    int        // ticks since the last pong
	pings     uint64     // the last ping's seq
	rng       *rand.Rand // jitters each tick
	probe     *probing   // the call its outstanding probe answers; nil: none
	probeSeq  uint64     // that probe's seq, which its ack echoes
	probeAt   time.Time  // when it was queued
}

// flight is one attempt out on a phone; a prefetched one has not started,
// so handing it back recomputes nothing. A flight with a ctl frame is no
// attempt: its writer sends the frame as is — the welcome, a probe, a
// drain, or a ping, whose attempt is pingAttempt: its outcome arms a tick.
type flight struct {
	a          assignment
	attempt    int64
	prefetched bool
	ctl        *protocol.Message
}

const pingAttempt = -1

// writerQueue bounds what the loop has unwritten on one phone, so queueing
// never blocks it and a full queue is a link stalled past every bound: the
// window's sending flight, one tie-break's (an arbiter takes one at a
// time), the drain frame and the welcome (once a connection), a ping (the
// next tick waits for it) and a probe (a call waits for one outstanding).
const writerQueue = 6

// post hands the loop an input; false once the master has stopped.
func (m *Master) post(in any) bool {
	select {
	case m.inputs <- in:
		return true
	case <-m.stopped:
		return false
	}
}

// dispatch hands rnd to the loop and waits until the loop has ended it (a
// stopped master never takes it: err says so); a cancelled ctx makes its
// windows hand the rest back.
func (m *Master) dispatch(ctx context.Context, rnd *round) {
	if !m.post(rnd) {
		rnd.err = ErrNoPhones
		return
	}
	select {
	case <-rnd.done:
	case <-ctx.Done():
		m.post(cancelled{rnd})
		<-rnd.done // a stopping loop ends every round too
	}
}

// take asks the loop for RunRound's take; nil once the master has stopped,
// or before it has started.
func (m *Master) take(queue bool) *taking {
	t := &taking{queue: queue, done: make(chan struct{})}
	if m.ln == nil || !m.post(t) {
		return nil
	}
	<-t.done
	return t
}

// run is the dispatch loop; its timer is armed for the earliest window
// deadline, tie-break expiry and drain check.
func (m *Master) run() {
	defer m.wg.Done()
	timer := time.NewTimer(0)
	defer timer.Stop()
	var drainDue time.Time
	for {
		var in any
		select {
		case in = <-m.inputs:
		case <-timer.C:
		case <-m.stopped:
			in = cancelled{}
		}
		now := time.Now()
		m.mu.Lock()
		if in == (cancelled{}) {
			// The last step: every window lets go without handing anything
			// back (its ranges stay open, as recovery finds them after a
			// SIGKILL), which ends the round they held, and every phone dies.
			for _, w := range m.wins {
				w.win, w.next = nil, len(w.queue)
				m.finishLocked(w)
			}
			for _, ps := range m.phones {
				ps.kill() // shutdown has said its byes
			}
			m.mu.Unlock()
			return
		}
		m.stepLocked(now, in)
		wake := m.timersLocked(now)
		if m.cfg.PlugAware {
			if !now.Before(drainDue) {
				m.checkDrainsLocked()
				drainDue = now.Add(m.cfg.DrainCheckPeriod)
			}
			wake = earliest(wake, drainDue)
		}
		m.mu.Unlock()
		if !wake.IsZero() {
			// A stale tick is harmless: every deadline is checked against
			// the clock, and the step it causes re-arms the timer.
			timer.Reset(wake.Sub(now))
		}
	}
}

// earliest is the earlier of two times, zero meaning none.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

// stepLocked handles one input. Caller holds m.mu.
func (m *Master) stepLocked(now time.Time, in any) {
	switch in := in.(type) {
	case *joined:
		in.ps = m.joinLocked(now, in.conn, in.hello)
		close(in.done)
	case *taking:
		m.takeLocked(in)
	case *round:
		if in.profiling {
			m.startLocked(now, in)
		} else {
			m.commitLocked(in)
		}
	case *probing:
		m.probeLocked(now, in)
	case reported:
		m.reportedLocked(now, in)
	case sent:
		switch w := m.wins[in.ps]; {
		case in.err != nil:
			m.dieLocked(in.ps, offlineSendFailed, in.err.Error())
		case w != nil && in.attempt == pingAttempt:
			w.pingDue = now.Add(keepaliveJitter(m.cfg.KeepalivePeriod, w.rng))
			m.armLocked(w.pingDue)
		case w != nil && w.sending == in.attempt:
			w.sending = 0 // the link is free for the next assignment
			m.pumpLocked(now, w)
		}
	case died:
		m.dieLocked(in.ps, in.reason, in.detail)
	case cancelled:
		for _, w := range m.wins {
			if w.rnd == in.rnd {
				m.releaseLocked(w, 0, false)
			}
		}
	}
}

// reportedLocked takes a frame a reader received: a pong or probe ack,
// telemetry, or a checkpoint, result or failure past the epoch fence. A
// checkpoint's message becomes its ack, for the reader to send; any other
// goes back to the connection (Reuse). Caller holds m.mu.
func (m *Master) reportedLocked(now time.Time, in reported) {
	msg := in.msg
	switch msg.Type {
	case protocol.TypePong:
		if w := m.wins[in.ps]; w != nil {
			w.missed = 0
			m.sloObserve(sloKeepalive, true)
		}
	case protocol.TypeProbeAck:
		m.probeAckLocked(now, m.wins[in.ps], msg.Seq)
	case protocol.TypeTelemetry:
		// Deliberately not fenced: a worker's buffered span events must
		// survive a standby promotion — each event carries the epoch it was
		// minted under instead of the frame.
		m.foldTelemetry(in.ps, msg)
	case protocol.TypeCheckpoint, protocol.TypeResult, protocol.TypeFailure:
		switch {
		case m.fenced(msg):
			m.rejectFenced(in.ps, msg)
		case msg.Type == protocol.TypeCheckpoint:
			m.recordStreamedCheckpoint(in.ps, msg) // no window moves on one
		case m.creditLocked(now, in.ps, msg):
			return // kept: a profiling report
		}
	default:
		// A frame the master never expects from a worker (hello after
		// registration, an echo of a server->worker type, a frame from a
		// newer peer). Dropped for forward compatibility, but counted and
		// logged so a chattering peer is visible in /metrics.
		m.mx.framesUnexpected[msg.Type].Inc()
		m.cfg.Logger.With("phone", in.ps.info.ID, "type", string(msg.Type)).
			Debugf("ignoring unexpected frame")
	}
	if in.done != nil {
		close(in.done) // the reader sends msg if it is an ack, and gives it back
		return
	}
	in.ps.conn.Reuse(msg)
}

// timersLocked fires every deadline that has passed — a window head's
// (once: speculate; twice: abandon), a keepalive tick, and a tie-break's,
// set in the step that armed it — and returns the earliest pending. It
// scans the windows only once the earliest deadline armed since its last
// scan has come: before then nothing is due. A deadline cleared since
// makes that an early wake, which finds nothing and rescans. Caller holds
// m.mu.
func (m *Master) timersLocked(now time.Time) time.Time {
	if !m.wakeAt.IsZero() && now.Before(m.wakeAt) {
		return m.wakeAt
	}
	var wake time.Time
	for _, w := range m.wins {
		if !w.due.IsZero() && !now.Before(w.due) {
			m.overdueLocked(now, w)
		}
		if !w.pingDue.IsZero() && !now.Before(w.pingDue) {
			m.tickLocked(w)
		}
		wake = earliest(earliest(wake, w.due), w.pingDue)
	}
	for key, vg := range m.votes {
		if vg.tie != 0 && vg.tieDue.IsZero() {
			vg.tieDue = now.Add(2 * m.assignmentDeadlineLocked(vg.a, vg.arbiter))
		}
		if !vg.tieDue.IsZero() && !now.Before(vg.tieDue) {
			m.tieBreakExpiredLocked(key, vg)
		}
		wake = earliest(wake, vg.tieDue)
	}
	m.wakeAt = wake
	return wake
}

// armLocked notes a deadline a step set, so the loop's next scan is no
// later than it. Caller holds m.mu.
func (m *Master) armLocked(t time.Time) {
	if !m.wakeAt.IsZero() {
		m.wakeAt = earliest(m.wakeAt, t)
	}
}

// startLocked gives every phone of rnd its queue. Caller holds m.mu.
func (m *Master) startLocked(now time.Time, rnd *round) {
	rnd.open = len(rnd.phones) + 1 // one more until every window has its queue
	for pi, ps := range rnd.phones {
		w := m.wins[ps]
		if w == nil {
			w = &window{ps: ps}
			m.wins[ps] = w
		}
		w.rnd, w.queue, w.next = rnd, rnd.plans[pi], 0
		if ps.alive() {
			m.pumpLocked(now, w)
		} else {
			m.dieLocked(ps, "", "") // died before the round reached it
		}
	}
	if rnd.open--; rnd.open == 0 {
		m.endLocked(rnd)
	}
}

// pumpLocked moves a window on. A draining or quarantined phone hands back
// what it has not started; what it executes still reports. The head's
// clock starts once its bytes are written and its predecessor has settled,
// so time queued behind a slow predecessor never makes a straggler. The
// next assignment ships when the window has room. Caller holds m.mu.
func (m *Master) pumpLocked(now time.Time, w *window) {
	if w.rnd == nil {
		return
	}
	started := 0
	if len(w.win) > 0 && !w.win[0].prefetched {
		started = 1
	}
	if id := w.ps.info.ID; !w.rnd.profiling && (m.drains[id] != "" || m.quarantined[id]) {
		m.releaseLocked(w, started, true)
	}
	if len(w.win) > 0 {
		w.win[0].prefetched = false
		if w.due.IsZero() && w.win[0].attempt != w.sending && !w.rnd.profiling {
			w.straggled, w.deadline = false, m.assignmentDeadlineLocked(w.win[0].a, w.ps)
			w.due = now.Add(w.deadline)
			m.armLocked(w.due)
		}
	}
	if w.sending == 0 && w.next < len(w.queue) &&
		(len(w.win) == 0 || len(w.win) == 1 && pairFits(w.ps, w.win[0].a, w.queue[w.next])) {
		a := w.queue[w.next]
		w.next++
		if !w.rnd.profiling {
			ev := obs.SpanEvent{Kind: obs.KindAssign, Job: a.item.jobID, Span: a.item.span, Partition: a.partition, Phone: w.ps.info.ID}
			if a.resume != nil {
				ev.Detail, ev.Bytes = "resume", a.resume.Offset
			}
			m.trace(ev)
		}
		m.nextAttempt++
		m.attempts[m.nextAttempt] = &attemptRec{a: a, ps: w.ps}
		w.sending = m.nextAttempt
		w.win = append(w.win, flight{a: a, attempt: w.sending, prefetched: len(w.win) > 0})
		m.queueLocked(w.ps, w.win[len(w.win)-1])
	}
	m.finishLocked(w)
}

// finishLocked lets go of a window's round once the window holds none of
// its work. Caller holds m.mu.
func (m *Master) finishLocked(w *window) {
	if w.rnd == nil || len(w.win) > 0 || w.next < len(w.queue) {
		return
	}
	rnd := w.rnd
	w.rnd, w.queue, w.next = nil, nil, 0
	if rnd.open--; rnd.open == 0 {
		m.endLocked(rnd) // in the step that let go of its last window
	}
}

// releaseLocked hands back w.win[keep:] and the unshipped rest of the
// queue, resume state untouched, as its phone died, drained, was
// quarantined or abandoned, or its round was cancelled. A detached attempt
// stays registered (the phone may still deliver it); a dropped one is
// forgotten. Caller holds m.mu.
func (m *Master) releaseLocked(w *window, keep int, detach bool) {
	const lostMidRound = "phone lost mid-round"
	var prefetched int64
	for _, f := range w.win[keep:] {
		if !detach {
			delete(m.attempts, f.attempt)
		}
		if f.prefetched {
			prefetched += int64(len(f.a.input))
		}
		m.handBackLocked(f.a.rng, lostMidRound)
	}
	for _, a := range w.queue[w.next:] {
		m.handBackLocked(a.rng, lostMidRound)
	}
	m.mx.handbackBytes.Add(prefetched)
	w.win, w.next = w.win[:keep], len(w.queue)
	if keep == 0 {
		w.due = time.Time{}
		m.finishLocked(w)
	}
}

// creditLocked is the one door for reports: it settles, traces and folds
// a result or failure against its attempt (only one issued to the phone
// that sent it) and, if a window holds the attempt — it is live exactly
// while one does — moves the window in the same step. A result folds
// either way (first-result-wins); a failure spends a retry only if live,
// else its checkpoint is kept if furthest. It reports whether msg is kept:
// a profiling execution's report, which its round hands to profileOne.
// Caller holds m.mu.
func (m *Master) creditLocked(now time.Time, ps *phoneState, msg *protocol.Message) (kept bool) {
	rec := m.attemptLocked(ps, msg.Attempt)
	if rec == nil {
		m.mx.framesUnexpected[msg.Type].Inc()
		m.cfg.Logger.With("phone", ps.info.ID, "attempt", msg.Attempt).
			Warnf("dropping report for an attempt this phone does not hold")
		return false
	}
	delete(m.attempts, msg.Attempt)
	a, w, i := rec.a, m.wins[rec.ps], 0
	for w != nil && i < len(w.win) && w.win[i].attempt != msg.Attempt {
		i++
	}
	live := w != nil && i < len(w.win)
	ev := obs.SpanEvent{Job: a.item.jobID, Span: a.item.span, Partition: a.partition, Phone: ps.info.ID}
	switch {
	case a.rng == nil:
		// A profiling execution is part of no job: nothing to trace or fold.
	case msg.Type == protocol.TypeResult:
		ev.Kind = obs.KindResult
		if !live {
			ev.Detail = "late" // so "result" pairs with "assign" on the round's timeline
		}
		m.trace(ev)
		m.recordResultLocked(a, msg, rec.ps)
	case live:
		// The saved offset rides in Bytes: the span is paper §6's migration
		// record, failure (saved) → assign "resume" → result.
		ev.Kind = obs.KindFailure
		if msg.Checkpoint != nil {
			ev.Bytes = msg.Checkpoint.Offset
		}
		m.trace(ev)
		m.cfg.Logger.With("phone", ps.info.ID, "job", a.item.jobID).Warnf("failure report: %s", msg.Error)
		m.recordFailureLocked(a, msg)
	case !m.settledLocked(a.rng):
		m.keepCheckpointLocked(a.rng, msg.Checkpoint)
	}
	if !live {
		return false
	}
	w.win = slices.Delete(w.win, i, i+1) // in place: the window keeps its memory
	kept = w.rnd.profiling
	switch {
	case kept:
		w.rnd.resp = msg
	case msg.Type == protocol.TypeFailure && msg.Error == drainFailureReason:
		// Still plugged: alive for window learning, but given no more work.
		m.completeDrainLocked(w.ps.info.ID)
		m.releaseLocked(w, 0, true)
	case msg.Type == protocol.TypeFailure:
		m.dieLocked(w.ps, "", "") // an online failure: the report says why
	case i == 0:
		w.due = time.Time{}
	}
	m.pumpLocked(now, w)
	return kept
}

// overdueLocked is a window head's blown deadline. Caller holds m.mu.
func (m *Master) overdueLocked(now time.Time, w *window) {
	a, id := w.win[0].a, w.ps.info.ID
	if !w.straggled {
		// A straggler: speculate, and give it one more deadline.
		w.straggled = true
		if m.speculateLocked(a) {
			m.cfg.Logger.With("phone", id, "job", a.item.jobID, "partition", a.partition).
				Warnf("straggling (deadline %v); speculating", w.deadline)
			m.mx.stragglers.Inc()
			m.trace(obs.SpanEvent{Kind: obs.KindStraggler, Job: a.item.jobID, Partition: a.partition, Phone: id})
		}
		w.due = now.Add(w.deadline)
		m.armLocked(w.due)
		return
	}
	// Twice the deadline: abandon the phone for the round, alive, its
	// attempts detached.
	m.mx.abandons.Inc()
	m.cfg.Logger.With("phone", id, "job", a.item.jobID, "partition", a.partition).
		Warnf("abandoned for the round (overdue)")
	w.win = w.win[1:]
	m.handBackLocked(a.rng, "straggler abandoned")
	m.releaseLocked(w, 0, true)
}

// dieLocked is a phone's one death, whatever its cause. The first call
// kills it, records reason as an offline failure ("": none, the master's
// choice; none either once it is closing) and, unless a rejoin superseded
// the phone, feeds the charge-window estimator its unplug. A tie-break it
// had not reported on goes to the next-best arbiter, its probe's call
// stops waiting, and its window hands everything back. Caller holds m.mu.
func (m *Master) dieLocked(ps *phoneState, reason offlineReason, detail string) {
	if ps.kill() {
		if !m.closed {
			m.offlineLocked(ps.info.ID, reason, detail)
		}
		if m.phones[ps.info.ID] == ps {
			m.windows.ObserveUnplug(ps.info.ID, nowMs())
		}
	}
	for key, vg := range m.votes {
		if vg.tie != 0 && vg.arbiter == ps && !vg.resolved && m.attempts[vg.tie] != nil {
			delete(m.attempts, vg.tie)
			vg.tie, vg.arbiter = 0, nil
			vg.need--
			m.startTieBreakLocked(key)
		}
	}
	if w := m.wins[ps]; w != nil {
		delete(m.wins, ps)
		m.probedLocked(w)
		if len(w.win) > 0 || w.next < len(w.queue) {
			m.cfg.Logger.With("phone", ps.info.ID).Warnf("died with work in flight")
		}
		m.releaseLocked(w, 0, false)
	}
}

// queueLocked hands ps's writer a flight; a full queue is a link stalled
// past every bound, handled as the dead link it is. Caller holds m.mu.
func (m *Master) queueLocked(ps *phoneState, f flight) {
	select {
	case ps.out <- f:
	default:
		m.dieLocked(ps, offlineSendFailed, "writer queue full")
	}
}

// writer ships what the loop queues for ps, posting each outcome back.
// Every frame it writes goes out in one message of its own.
func (m *Master) writer(ps *phoneState) {
	defer m.wg.Done()
	var msg protocol.Message
	for {
		select {
		case f := <-ps.out:
			var err error
			if f.ctl != nil {
				err = ps.conn.Send(f.ctl)
			} else {
				err = m.sendAssign(ps, &msg, f.a, f.attempt)
			}
			m.post(sent{ps, f.attempt, err})
		case <-ps.dead:
			return
		case <-m.stopped:
			return
		}
	}
}
