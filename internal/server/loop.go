package server

import (
	"context"
	"slices"
	"time"

	"cwc/internal/core"
	"cwc/internal/obs"
	"cwc/internal/predict"
	"cwc/internal/protocol"
)

// The dispatch loop: one goroutine, run, owns the master's state — every
// phone's life, window and timers, each round from its commit to its end,
// the queue and the durable state — as the paper's master was one NIO
// selector thread. Each input is one step: a checked hello, a *round, a
// frame a reader received, a writer's outcome, the reader's death, a
// cancelled round, a call (func(), posted by do), or the timer. Readers
// and writers do the I/O. While no loop runs (before Start, and after the
// last step, Close's or Kill's) the state's token waits in stopped, and a
// call takes it and runs on its caller. A method named ...Locked runs on
// the state's owner: the loop, or the holder of the token.
type (
	joined struct {
		conn  *protocol.Conn
		hello *protocol.Message
		ps    *phoneState // its registration, set in the step
	}
	reported struct {
		ps   *phoneState
		msg  *protocol.Message
		wait bool // a checkpoint's: its reader waits for the step, in which msg becomes its ack (if one is due)
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
		items  []*workItem
		phones []*phoneState
		infos  []PhoneInfo // phones' info, for the packer off the loop
		est    *predict.Estimator
	}
)

// A round is per-phone queues for the loop: a scheduling round RunRound
// packed, which the loop commits, runs and ends with its report or err.
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
// window's sending flight, a tie-break's and a profiling execution's (one
// at a time each), the drain frame and the welcome (once a connection), a
// ping (the next tick waits for it) and a probe (never two outstanding).
const writerQueue = 7

// post hands the loop an input; false once the loop's last step has run.
func (m *Master) post(in any) bool {
	select {
	case m.inputs <- in:
		return true
	case <-m.life.Done():
		return false
	}
}

// call posts in and returns once the loop's step has handled it; false
// once the loop's last step has run. A step whose poster waits — a call's,
// a hello's, a checkpoint's — hands control back over stepDone: the loop
// takes one input at a time, so only that poster can be waiting there.
func (m *Master) call(in any) bool {
	if !m.post(in) {
		return false
	}
	<-m.stepDone
	return true
}

// do runs f on the state's owner and returns once f has run: on the loop,
// as call does, or, while no loop runs, on the caller, holding the token.
// The loop never calls do: neither may anything it calls out to (a
// ReplicaSink, an activate).
func (m *Master) do(f func()) {
	select {
	case m.inputs <- f:
		<-m.stepDone
	case <-m.stopped:
		f()
		m.stopped <- struct{}{}
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
		<-rnd.done // the last step ends every round too
	}
}

// take is RunRound's take; nil once the master has stopped, or before it
// has started.
func (m *Master) take(queue bool) (t *taking) {
	m.do(func() {
		if m.ln != nil && !m.closed {
			t = m.takeLocked(queue)
		}
	})
	return t
}

// run is the dispatch loop; its timer is armed for the earliest window
// deadline, tie-break expiry and drain check. Its last step is the one
// that closes the master; the token then goes back to stopped.
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
		}
		now := time.Now()
		m.stepLocked(now, in)
		if m.closed {
			m.stopped <- struct{}{}
			return
		}
		wake := m.timersLocked(now)
		if m.cfg.PlugAware {
			if !now.Before(drainDue) {
				m.checkDrainsLocked()
				drainDue = now.Add(drainCheckPeriod)
			}
			wake = earliest(wake, drainDue)
		}
		if !wake.IsZero() {
			// A stale tick is harmless: every deadline is checked against
			// the clock, and the step it causes re-arms the timer.
			timer.Reset(wake.Sub(now))
		}
	}
}

// byeTimeout bounds closeLocked's byes, all together: a phone that stopped
// reading holds its writer in a Write that would never return without it.
const byeTimeout = time.Second

// closeLocked is the master's last step, Close's or Kill's: it stops
// accepting, refuses every input posted from here on and cuts half-read
// hellos short (life ends), lets every window go without handing anything
// back (its ranges stay open, as recovery finds them after a SIGKILL),
// which ends the round they held, says bye to every live phone if asked
// to, within byeTimeout, and kills every phone. A closed master is closed
// again as a no-op.
func (m *Master) closeLocked(bye bool) {
	if m.closed {
		return
	}
	m.closed = true
	m.halt()
	if m.ln != nil {
		m.ln.Close()
	}
	if m.obsLn != nil {
		m.obsLn.Close()
	}
	byeBy := time.Now().Add(byeTimeout)
	for _, ps := range m.phones {
		if ps.alive() {
			ps.win, ps.next = nil, len(ps.queue)
			m.finishLocked(ps)
			_ = ps.conn.SetWriteDeadline(byeBy)
		}
	}
	for _, ps := range m.phones {
		if bye && ps.alive() {
			_ = ps.conn.Send(&protocol.Message{Type: protocol.TypeBye})
		}
		ps.kill()
	}
}

// earliest is the earlier of two times, zero meaning none.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

// stepLocked handles one input.
func (m *Master) stepLocked(now time.Time, in any) {
	switch in := in.(type) {
	case func():
		in()
		m.stepDone <- struct{}{}
	case *joined:
		in.ps = m.joinLocked(now, in.conn, in.hello)
		m.stepDone <- struct{}{}
	case *round:
		m.commitLocked(in)
	case reported:
		m.reportedLocked(now, in)
		if in.wait {
			m.stepDone <- struct{}{}
		}
	case sent:
		switch ps := in.ps; {
		case in.err != nil:
			m.dieLocked(ps, offlineSendFailed, in.err.Error())
		case !ps.alive():
		case in.attempt == pingAttempt:
			ps.pingDue = now.Add(keepaliveJitter(m.cfg.KeepalivePeriod, ps.rng))
			m.armLocked(ps.pingDue)
		case ps.sending == in.attempt:
			ps.sending = 0 // the link is free for the next assignment
			m.pumpLocked(now, ps)
		}
	case died:
		m.dieLocked(in.ps, in.reason, in.detail)
	case cancelled:
		for _, ps := range m.phones {
			if ps.alive() && ps.rnd == in.rnd {
				m.releaseLocked(ps, 0, false)
			}
		}
	}
}

// reportedLocked takes a frame a reader received: a pong or probe ack,
// telemetry, or a checkpoint, result or failure past the epoch fence. A
// checkpoint's message becomes its ack, for the reader to send; any other
// goes back to the connection (Reuse).
func (m *Master) reportedLocked(now time.Time, in reported) {
	msg := in.msg
	switch msg.Type {
	case protocol.TypePong:
		if in.ps.alive() {
			in.ps.missed = 0
			m.sloObserve(sloKeepalive, true)
		}
	case protocol.TypeProbeAck:
		m.probeAckLocked(now, in.ps, msg.Seq)
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
	if !in.wait { // else the reader sends msg if it is an ack, and gives it back
		in.ps.conn.Reuse(msg)
	}
}

// timersLocked fires every deadline that has passed — a window head's
// (once: speculate; twice: abandon), a keepalive tick, and a tie-break's,
// set in the step that armed it — and returns the earliest pending. It
// scans the windows only once the earliest deadline armed since its last
// scan has come: before then nothing is due. A deadline cleared since
// makes that an early wake, which finds nothing and rescans.
func (m *Master) timersLocked(now time.Time) time.Time {
	if !m.wakeAt.IsZero() && now.Before(m.wakeAt) {
		return m.wakeAt
	}
	var wake time.Time
	for _, ps := range m.phones {
		if !ps.alive() {
			continue
		}
		if !ps.due.IsZero() && !now.Before(ps.due) {
			m.overdueLocked(now, ps)
		}
		if !ps.pingDue.IsZero() && !now.Before(ps.pingDue) {
			m.tickLocked(ps)
		}
		wake = earliest(earliest(wake, ps.due), ps.pingDue)
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
// later than it.
func (m *Master) armLocked(t time.Time) {
	if !m.wakeAt.IsZero() {
		m.wakeAt = earliest(m.wakeAt, t)
	}
}

// startLocked gives every phone of rnd its queue.
func (m *Master) startLocked(now time.Time, rnd *round) {
	rnd.open = len(rnd.phones) + 1 // one more until every window has its queue
	for pi, ps := range rnd.phones {
		ps.rnd, ps.queue, ps.next = rnd, rnd.plans[pi], 0
		if ps.alive() {
			m.pumpLocked(now, ps)
		} else {
			m.releaseLocked(ps, 0, false) // died before the round reached it
		}
	}
	if rnd.open--; rnd.open == 0 {
		m.endLocked(rnd)
	}
}

// pumpLocked moves ps's window on. A draining or quarantined phone hands
// back what it has not started; what it executes still reports. The head's
// clock starts once its bytes are written and its predecessor has settled,
// so time queued behind a slow predecessor never makes a straggler. The
// next assignment ships when the window has room.
func (m *Master) pumpLocked(now time.Time, ps *phoneState) {
	if ps.rnd == nil {
		return
	}
	started := 0
	if len(ps.win) > 0 && !ps.win[0].prefetched {
		started = 1
	}
	if id := ps.info.ID; m.drains[id] != "" || m.quarantined[id] {
		m.releaseLocked(ps, started, true)
	}
	if len(ps.win) > 0 {
		ps.win[0].prefetched = false
		if ps.due.IsZero() && ps.win[0].attempt != ps.sending {
			ps.straggled, ps.deadline = false, m.assignmentDeadlineLocked(ps.win[0].a, ps)
			ps.due = now.Add(ps.deadline)
			m.armLocked(ps.due)
		}
	}
	if ps.sending == 0 && ps.next < len(ps.queue) &&
		(len(ps.win) == 0 || len(ps.win) == 1 && pairFits(ps, ps.win[0].a, ps.queue[ps.next])) {
		a := ps.queue[ps.next]
		ps.next++
		ev := obs.SpanEvent{Kind: obs.KindAssign, Job: a.item.jobID, Span: a.item.span, Partition: a.partition, Phone: ps.info.ID}
		if a.resume != nil {
			ev.Detail, ev.Bytes = "resume", a.resume.Offset
		}
		m.trace(ev)
		m.nextAttempt++
		m.attempts[m.nextAttempt] = &attemptRec{a: a, ps: ps}
		ps.sending = m.nextAttempt
		ps.win = append(ps.win, flight{a: a, attempt: ps.sending, prefetched: len(ps.win) > 0})
		m.queueLocked(ps, ps.win[len(ps.win)-1])
	}
	m.finishLocked(ps)
}

// finishLocked lets go of ps's round once its window holds none of the
// round's work.
func (m *Master) finishLocked(ps *phoneState) {
	if ps.rnd == nil || len(ps.win) > 0 || ps.next < len(ps.queue) {
		return
	}
	rnd := ps.rnd
	ps.rnd, ps.queue, ps.next = nil, nil, 0
	if rnd.open--; rnd.open == 0 {
		m.endLocked(rnd) // in the step that let go of its last window
	}
}

// releaseLocked hands back ps.win[keep:] and the unshipped rest of its
// queue, resume state untouched, as the phone died, drained, was
// quarantined or abandoned, or its round was cancelled. A detached attempt
// stays registered (the phone may still deliver it); a dropped one is
// forgotten.
func (m *Master) releaseLocked(ps *phoneState, keep int, detach bool) {
	const lostMidRound = "phone lost mid-round"
	var prefetched int64
	for _, f := range ps.win[keep:] {
		if !detach {
			delete(m.attempts, f.attempt)
		}
		if f.prefetched {
			prefetched += int64(len(f.a.input))
		}
		m.handBackLocked(f.a.rng, lostMidRound)
	}
	for _, a := range ps.queue[ps.next:] {
		m.handBackLocked(a.rng, lostMidRound)
	}
	m.mx.handbackBytes.Add(prefetched)
	ps.win, ps.next = ps.win[:keep], len(ps.queue)
	if keep == 0 {
		ps.due = time.Time{}
		m.finishLocked(ps)
	}
}

// creditLocked is the one door for reports: it settles, traces and folds
// a result or failure against its attempt (only one issued to the phone
// that sent it) and, if its phone's window holds the attempt — it is live
// exactly while the window does — moves the window in the same step. A
// result folds either way (first-result-wins); a failure spends a retry
// only if live, else its checkpoint is kept if furthest. A profiling
// execution's report folds nothing: it is kept, for the attempt's reply.
func (m *Master) creditLocked(now time.Time, ps *phoneState, msg *protocol.Message) (kept bool) {
	rec := m.attemptLocked(ps, msg.Attempt)
	if rec == nil {
		m.mx.framesUnexpected[msg.Type].Inc()
		m.cfg.Logger.With("phone", ps.info.ID, "attempt", msg.Attempt).
			Warnf("dropping report for an attempt this phone does not hold")
		return false
	}
	delete(m.attempts, msg.Attempt)
	if rec.expired {
		m.mx.tieBreaksLate.Inc()
		m.cfg.Logger.With("phone", ps.info.ID, "attempt", msg.Attempt).
			Debugf("dropping a tie-break report that came after its tie expired")
		return false
	}
	if rec.reply != nil {
		select {
		case rec.reply <- msg: // its one slot: the record goes with its first report
		default:
		}
		return true
	}
	a, holder, i := rec.a, rec.ps, 0
	for i < len(holder.win) && holder.win[i].attempt != msg.Attempt {
		i++
	}
	live := holder.alive() && i < len(holder.win)
	ev := obs.SpanEvent{Job: a.item.jobID, Span: a.item.span, Partition: a.partition, Phone: ps.info.ID}
	switch {
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
	holder.win = slices.Delete(holder.win, i, i+1) // in place: the window keeps its memory
	switch {
	case msg.Type == protocol.TypeFailure && msg.Error == drainFailureReason:
		// Still plugged: alive for window learning, but given no more work.
		m.completeDrainLocked(holder.info.ID)
		m.releaseLocked(holder, 0, true)
	case msg.Type == protocol.TypeFailure:
		m.dieLocked(holder, "", "") // an online failure: the report says why
	case i == 0:
		holder.due = time.Time{}
	}
	m.pumpLocked(now, holder)
	return false
}

// overdueLocked is the head of ps's window blowing its deadline.
func (m *Master) overdueLocked(now time.Time, ps *phoneState) {
	a, id := ps.win[0].a, ps.info.ID
	if !ps.straggled {
		// A straggler: speculate, and give it one more deadline.
		ps.straggled = true
		if m.speculateLocked(a) {
			m.cfg.Logger.With("phone", id, "job", a.item.jobID, "partition", a.partition).
				Warnf("straggling (deadline %v); speculating", ps.deadline)
			m.mx.stragglers.Inc()
			m.trace(obs.SpanEvent{Kind: obs.KindStraggler, Job: a.item.jobID, Partition: a.partition, Phone: id})
		}
		ps.due = now.Add(ps.deadline)
		m.armLocked(ps.due)
		return
	}
	// Twice the deadline: abandon the phone for the round, alive, its
	// attempts detached.
	m.mx.abandons.Inc()
	m.cfg.Logger.With("phone", id, "job", a.item.jobID, "partition", a.partition).
		Warnf("abandoned for the round (overdue)")
	ps.win = ps.win[1:]
	m.handBackLocked(a.rng, "straggler abandoned")
	m.releaseLocked(ps, 0, true)
}

// dieLocked is a phone's one death, whatever its cause. The first call
// kills it, records reason as an offline failure ("": none, the master's
// choice) and, unless a rejoin superseded
// the phone, feeds the charge-window estimator its unplug. A tie-break it
// had not reported on goes to the next-best arbiter, its probe's call
// stops waiting, and its window hands everything back.
func (m *Master) dieLocked(ps *phoneState, reason offlineReason, detail string) {
	if ps.kill() {
		m.offlineLocked(ps.info.ID, reason, detail)
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
	m.probedLocked(ps)
	if len(ps.win) > 0 || ps.next < len(ps.queue) {
		m.cfg.Logger.With("phone", ps.info.ID).Warnf("died with work in flight")
	}
	m.releaseLocked(ps, 0, false)
}

// queueLocked hands ps's writer a flight; a full queue is a link stalled
// past every bound, handled as the dead link it is.
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
		case <-m.life.Done():
			return
		}
	}
}
