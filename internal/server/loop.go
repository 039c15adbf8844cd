package server

import (
	"context"
	"slices"
	"time"

	"cwc/internal/obs"
	"cwc/internal/protocol"
)

// The dispatch loop: one goroutine, run, owns every phone's window and
// every master timer, as the paper's master was one NIO selector thread.
// Each input is one critical section of ...Locked calls: a *round, a
// report past the epoch fence, a writer's outcome (attempt 0: the drain
// frame), a death (posted once, by markDead), a cancelled round (nil: the
// master stops), or the timer. A phone's writer, not the loop, writes.
type (
	reported struct {
		ps  *phoneState
		msg *protocol.Message
	}
	sent struct {
		ps      *phoneState
		attempt int64
		err     error
	}
	died      struct{ ps *phoneState }
	cancelled struct{ rnd *round }
)

// A round is per-phone queues for the loop: a scheduling round's plan, or
// a profiling execution, whose one keyless flight ships even to a draining
// phone, runs on no clock, does not kill its phone by failing, and leaves
// its report (nil: none came).
type round struct {
	plans     [][]assignment
	phones    []*phoneState
	open      int           // windows still holding its work
	done      chan struct{} // closed when open reaches 0
	profiling bool
	report    *protocol.Message
}

// window is one phone's dispatch state: at most two attempts out, the one
// executing and one prefetched behind it if both fit its RAM, so the next
// input crosses the link while the current one computes (the paper's
// lockstep kept link and CPU busy only alternately). One assignment is
// written at a time; the clock (due; zero: none) times win[0] only.
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
}

// flight is one attempt out on a phone; a prefetched one has not started,
// so handing it back recomputes nothing.
type flight struct {
	a          assignment
	attempt    int64
	prefetched bool
}

// writerQueue bounds what the loop has unwritten on one phone, so queueing
// never blocks it: the window's sending flight, one tie-break's (an arbiter
// takes one at a time) and the drain frame, flight{} (once a connection).
const writerQueue = 3

// post hands the loop an input; false once the master has stopped.
func (m *Master) post(in any) bool {
	select {
	case m.inputs <- in:
		return true
	case <-m.stopped:
		return false
	}
}

// dispatch hands rnd to the loop and waits until every window has let go
// of its work; a cancelled ctx makes them hand the rest back.
func (m *Master) dispatch(ctx context.Context, rnd *round) {
	if !m.post(rnd) {
		return // a stopped master dispatches nothing; the ranges stay open
	}
	select {
	case <-rnd.done:
	case <-ctx.Done():
		m.post(cancelled{rnd})
		<-rnd.done // a stopping loop lets go of every round too
	}
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
		m.stepLocked(now, in)
		if in == (cancelled{}) {
			m.mu.Unlock()
			return
		}
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
	case *round:
		m.startLocked(now, in)
	case reported:
		if !m.creditLocked(now, in.ps, in.msg) {
			in.ps.conn.Reuse(in.msg) // credited: what it folded is the frame's bytes, not the struct
		}
	case sent:
		if w := m.wins[in.ps]; in.err != nil {
			m.dieLocked(in.ps, "send-failed", in.err.Error())
		} else if w != nil && w.sending == in.attempt {
			w.sending = 0 // the link is free for the next assignment
			m.pumpLocked(now, w)
		}
	case died:
		m.dieLocked(in.ps, "", "")
	case cancelled:
		for _, w := range m.wins {
			if w.rnd == in.rnd || in.rnd == nil {
				m.releaseLocked(w, 0, false)
			}
		}
	}
}

// timersLocked fires every deadline that has passed — a window head's
// (once: speculate; twice: abandon) and a tie-break's, set in the step that
// armed it — and returns the earliest pending. Caller holds m.mu.
func (m *Master) timersLocked(now time.Time) time.Time {
	var wake time.Time
	for _, w := range m.wins {
		if !w.due.IsZero() && !now.Before(w.due) {
			m.overdueLocked(now, w)
		}
		wake = earliest(wake, w.due)
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
	return wake
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
		close(rnd.done)
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
	if w.rnd.open--; w.rnd.open == 0 {
		close(w.rnd.done)
	}
	w.rnd, w.queue, w.next = nil, nil, 0
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
	m.cfg.Metrics.Counter("cwc_prefetch_handback_bytes_total").Add(prefetched)
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
		m.cfg.Metrics.Counter("cwc_frames_unexpected_total", "type", frameLabel(msg.Type)).Inc()
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
		w.rnd.report = msg
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
			m.cfg.Metrics.Counter("cwc_stragglers_total").Inc()
			m.trace(obs.SpanEvent{Kind: obs.KindStraggler, Job: a.item.jobID, Partition: a.partition, Phone: id})
		}
		w.due = now.Add(w.deadline)
		return
	}
	// Twice the deadline: abandon the phone for the round, alive, its
	// attempts detached.
	m.cfg.Metrics.Counter("cwc_abandons_total").Inc()
	m.cfg.Logger.With("phone", id, "job", a.item.jobID, "partition", a.partition).
		Warnf("abandoned for the round (overdue)")
	w.win = w.win[1:]
	m.handBackLocked(a.rng, "straggler abandoned")
	m.releaseLocked(w, 0, true)
}

// dieLocked is a phone's death as the loop sees it, killing it first if
// nothing has (recording reason as markDead does): a tie-break the phone
// had not reported on goes to the next-best arbiter, and its window hands
// everything back. Caller holds m.mu.
func (m *Master) dieLocked(ps *phoneState, reason, detail string) {
	if ps.kill() {
		m.offlineLocked(ps.info.ID, reason, detail)
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
		m.dieLocked(ps, "send-failed", "writer queue full")
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
			if f.attempt == 0 {
				msg = protocol.Message{Type: protocol.TypeDrain}
				err = ps.conn.Send(&msg)
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
