package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"cwc/internal/core"
	"cwc/internal/obs"
	"cwc/internal/predict"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
	"cwc/internal/wal"
	"cwc/internal/wire"
)

// jobSpan is a job's trace span ID. Deterministic in the job ID, so a
// master that replays its WAL (which persists no spans) mints the same
// span and a partition's history stays stitchable across the crash.
func jobSpan(jobID int) string { return "j" + strconv.Itoa(jobID) }

// trace is the one place the master writes an event. It stamps the time
// and the job's span (unless the caller has it at hand), appends to the
// open round's timeline if a round is open (closeTimeline derives every
// per-round view from that slice), and records to the tracer — ring,
// JSONL sink and flight recorder. It runs on the state's owner.
func (m *Master) trace(ev obs.SpanEvent) {
	if ev.Job > 0 && ev.Span == "" {
		ev.Span = jobSpan(ev.Job)
	}
	ev.TS = time.Now() // on the state's owner: the timeline is in TS order as appended
	if m.current != nil {
		m.timeline = append(m.timeline, ev)
	}
	m.cfg.Tracer.Record(ev)
}

// closeTimeline ends the round's event collection (the round is no longer
// open) and derives every view of it: the report's Figure 12 timeline and
// tallies, and /debug/sched's actuals. A result for an attempt no window held anymore reads
// "late-result", so "result" pairs with "assign" one to one. Events are
// copied out: the next round reuses their memory.
func (m *Master) closeTimeline(report *RoundReport, snap *SchedSnapshot, start time.Time) {
	evs := m.timeline
	m.current = nil
	defer clear(evs) // so the kept memory pins no event's strings
	report.Events = make([]Event, len(evs))
	for i, ev := range evs {
		kind := ev.Kind
		if kind == obs.KindResult && ev.Detail != "" {
			kind = ev.Detail + "-result"
		}
		report.Events[i] = Event{At: ev.TS.Sub(start), PhoneID: ev.Phone, JobID: ev.Job,
			Partition: ev.Partition, Kind: kind}
		switch kind {
		case obs.KindStraggler:
			report.Stragglers = append(report.Stragglers, ev.Phone)
		case obs.KindDeadLetter:
			report.DeadLettered++
		}
	}
	m.schedIdx.finishSchedSnapshot(snap, report.Events, report.Wall)
}

// Submit queues a job for the next scheduling round and returns its ID.
// A task that does not implement tasks.Breakable is scheduled atomically
// regardless of the atomic flag. With a WAL attached, the submission is
// logged (and, under SyncAlways, on stable storage) before the ID is
// returned: an acknowledged job survives a master killed the next
// instant. The log's record bound holds on raw bytes, so it refuses an
// input larger than a record, however well it codes. An input that ships
// whole and is larger than one assignment carries
// (protocol.MaxAssignInput) is refused too.
func (m *Master) Submit(task tasks.Task, input []byte, atomic bool) (int, error) {
	if len(input) == 0 {
		return 0, errors.New("server: empty job input")
	}
	if m.cfg.WAL != nil && len(input) > walMaxPayload {
		return 0, fmt.Errorf("server: persisting submission: %w: a %d-byte input", wal.ErrTooLarge, len(input))
	}
	if _, breakable := task.(tasks.Breakable); !breakable {
		atomic = true
	}
	if atomic && len(input) > protocol.MaxAssignInput {
		// No partition may exceed one assign frame, and this one cannot
		// be cut: no round could ever place it.
		return 0, fmt.Errorf("server: a %d-byte input that ships whole is over the %d bytes one assignment carries",
			len(input), protocol.MaxAssignInput)
	}
	var id int
	var err error
	m.do(func() {
		id = m.nextJobID
		seq := m.nextSeq + 1
		if err = m.walAppendErr(&walSubmit{
			JobID: id, Seq: seq, Task: task.Name(), Params: task.Params(),
			Input: wire.Held{Bytes: input}, Atomic: atomic,
		}); err != nil {
			return
		}
		m.jobs[id].task = task
		m.pending = append(m.pending, itemOf(m.jobs[id], m.fresh[seq]))
		m.mx.submissions.Inc()
		m.trace(obs.SpanEvent{Kind: obs.KindSubmit, Job: id, Phone: -1,
			Bytes: int64(len(input)), Detail: task.Name()})
	})
	if err != nil {
		return 0, fmt.Errorf("server: persisting submission: %w", err)
	}
	return id, nil
}

// Result returns a completed job's aggregated result, raw. A job that
// ended in a terminal aggregation failure never yields a result;
// JobFailure reports why.
func (m *Master) Result(jobID int) (final []byte, ok bool) {
	m.do(func() {
		if js := m.jobs[jobID]; js != nil && js.Done && js.Failure == "" {
			var err error
			final, err = js.Result.Raw()
			ok = err == nil // a coded result was checked at its record
		}
	})
	return final, ok
}

// JobFailure reports a job's terminal aggregation error, if it has one
// and is covered.
func (m *Master) JobFailure(jobID int) (failure string, ok bool) {
	m.do(func() {
		if js := m.jobs[jobID]; js != nil && js.Done && js.Failure != "" {
			failure, ok = js.Failure, true
		}
	})
	return failure, ok
}

// PendingItems reports how many work items await scheduling (fresh jobs
// plus failed work carried to the next round, the paper's F_A list).
func (m *Master) PendingItems() (n int) {
	m.do(func() { n = len(m.pending) })
	return n
}

// probing is a MeasureBandwidths call as the loop holds it: a probe out
// on every live phone, open until each is acked or its phone dies.
type probing struct {
	payload []byte
	open    int
	done    chan struct{} // closed when open reaches 0
}

// MeasureBandwidths probes every live phone with a timed bulk transfer
// (the prototype's iperf step) and records b_i = elapsed ms / probe KB.
// It returns once every probe is acked or its phone dead, or ctx ends.
func (m *Master) MeasureBandwidths(ctx context.Context) error {
	p := &probing{payload: make([]byte, m.cfg.ProbeKB*1024), done: make(chan struct{})}
	var probed bool
	m.do(func() { probed = m.probeLocked(time.Now(), p) })
	if !probed {
		return ErrNoPhones
	}
	select {
	case <-p.done:
	case <-m.life.Done():
	case <-ctx.Done():
	}
	return ctx.Err()
}

// probeLocked queues a probe, numbered and timed, on every live phone
// that has none outstanding; where one is, p waits for that one instead.
// It reports whether any phone was live.
func (m *Master) probeLocked(now time.Time, p *probing) bool {
	p.open = 1 // one more until every phone has its probe
	for _, ps := range m.phones {
		if !ps.alive() {
			continue
		}
		p.open++
		outstanding := ps.probe != nil
		m.probedLocked(ps) // a call it answered stops waiting on it
		ps.probe = p
		if !outstanding {
			ps.probeSeq++
			ps.probeAt = now
			m.queueLocked(ps, flight{ctl: &protocol.Message{Type: protocol.TypeProbe, Seq: ps.probeSeq, Payload: p.payload}})
		}
	}
	live := p.open > 1
	if p.open--; p.open == 0 {
		close(p.done)
	}
	return live
}

// probeAckLocked times the ack of ps's outstanding probe. An ack echoing
// any other seq is none of its probe's and is dropped.
func (m *Master) probeAckLocked(now time.Time, ps *phoneState, seq uint64) {
	if ps.probe == nil || seq != ps.probeSeq {
		return
	}
	b := float64(now.Sub(ps.probeAt)) / float64(time.Millisecond) / float64(m.cfg.ProbeKB)
	if b <= 0 {
		b = 0.001 // sub-resolution loopback transfer
	}
	ps.info.BMsPerKB = b
	m.cfg.Logger.With("phone", ps.info.ID).Infof("bandwidth: %.3f ms/KB", b)
	m.probedLocked(ps)
}

// probedLocked releases the call ps's probe answers: acked, its phone
// dead, or a later call waiting instead.
func (m *Master) probedLocked(ps *phoneState) {
	if p := ps.probe; p != nil {
		ps.probe = nil
		if p.open--; p.open == 0 {
			close(p.done)
		}
	}
}

// profileSampleKB is the profiling input size (the paper profiles each
// task on 1 KB of its input on the slowest phone).
const profileSampleKB = 1.0

// profileOne runs the single profiling execution of a task that lacks a
// base profile on a take's slowest phone (the lowest ID among equals),
// moving to the next-slowest if a phone fails mid-profile (an unplug
// during profiling must not sink the whole round). Each is an attempt no
// window holds, so it ships even to a draining phone, runs on no clock and
// kills no phone by failing; credit hands its report to reply. Whatever
// ends the wait, the attempt leaves the table with it.
func (m *Master) profileOne(ctx context.Context, t *taking, it *workItem, name string) error {
	a := assignment{item: it, partition: -1, input: profileSample(it)}
	phones := slices.Clone(t.phones) // a phone's ID and clock never change
	slices.SortStableFunc(phones, func(a, b *phoneState) int { return cmp.Compare(a.info.CPUMHz, b.info.CPUMHz) })
	for _, ps := range phones {
		reply := make(chan *protocol.Message, 1)
		var attempt int64
		m.do(func() {
			if ps.alive() { // a stopped master killed every phone
				m.nextAttempt++
				attempt = m.nextAttempt
				m.attempts[attempt] = &attemptRec{a: a, ps: ps, reply: reply}
				m.queueLocked(ps, flight{a: a, attempt: attempt})
			}
		})
		var resp *protocol.Message
		select {
		case resp = <-reply:
		case <-ps.dead:
		case <-ctx.Done():
		case <-m.life.Done():
		}
		m.do(func() { delete(m.attempts, attempt) }) // a credited one is gone already
		if err := ctx.Err(); err != nil {
			return err
		}
		if m.life.Err() != nil {
			return ErrNoPhones
		}
		plog := m.cfg.Logger.With("phone", ps.info.ID, "task", name)
		switch {
		case resp == nil:
			plog.Warnf("profiling phone died; retrying elsewhere")
		case resp.Type != protocol.TypeResult:
			plog.Warnf("profiling failed (%s); retrying elsewhere", resp.Error)
		default:
			ts := resp.ExecMs / (float64(len(a.input)) / 1024)
			if ts <= 0 {
				ts = 0.001 // sub-clock-resolution execution
			}
			if err := t.est.SetProfile(name, ts); err != nil {
				return err
			}
			plog.Infof("profiled: %.3f ms/KB", ts)
			return nil
		}
	}
	return fmt.Errorf("server: no phone left to profile %s", name)
}

// profileSample extracts ~1 KB of a work item's input for profiling;
// atomic inputs are profiled whole (e.g. a small image must stay
// decodable).
func profileSample(it *workItem) []byte {
	b, ok := it.task.(tasks.Breakable)
	if !ok || it.atomic {
		return it.input
	}
	total := float64(len(it.input)) / 1024
	if total <= profileSampleKB {
		return it.input
	}
	pieces, err := splitChecked(b, it.input, []float64{profileSampleKB, total - profileSampleKB})
	if err != nil || len(pieces[0]) == 0 {
		return it.input
	}
	return pieces[0]
}

// splitChecked is Split held to its contract: one piece per size, the
// piece lengths summing to the input's. Offsets into the input are
// derived from those lengths (a round record names a piece by offset
// and length, never by its bytes), so a Split that loses or invents a
// byte must fail here rather than mis-address a range.
func splitChecked(b tasks.Breakable, input []byte, sizesKB []float64) ([][]byte, error) {
	pieces, err := b.Split(input, sizesKB)
	if err != nil {
		return nil, err
	}
	if len(pieces) != len(sizesKB) {
		return nil, fmt.Errorf("%s split %d sizes into %d pieces", b.Name(), len(sizesKB), len(pieces))
	}
	sum := 0
	for _, p := range pieces {
		sum += len(p)
	}
	if sum != len(input) {
		return nil, fmt.Errorf("%s split a %d-byte input into pieces totalling %d bytes", b.Name(), len(input), sum)
	}
	return pieces, nil
}

// Event is one timeline entry of a round, for Figure 12-style plots: the
// projection of one span event the master traced while the round ran.
type Event struct {
	At        time.Duration // offset from round start
	PhoneID   int           // -1: no phone involved
	JobID     int
	Partition int
	// Kind is the span event's kind: "steal", "assign", "result",
	// "failure", "straggler", "speculate", "checkpoint", "requeue" and
	// "deadletter" (from any path: a lost phone, a failure report, an
	// unresolved vote), "submit" for a job that arrived mid-round — plus
	// "late-result" for a result credited to an attempt no window held
	// anymore. Readers switch on the kinds they know and ignore the rest.
	Kind string
}

// RoundReport summarizes one scheduling round.
type RoundReport struct {
	Items               int
	PredictedMakespanMs float64
	Wall                time.Duration
	CompletedJobs       []int
	FailedPhones        []int
	Requeued            int
	// Stragglers lists phones that blew an assignment deadline this round
	// (their partitions were speculatively re-dispatched).
	Stragglers []int
	// DeadLettered counts the round's "deadletter" events: work items whose
	// retry budget ran out, whichever path spent the last retry.
	DeadLettered int
	// Events is the round's timeline, ordered by At.
	Events []Event
}

// assignment couples a core schedule slot with its concrete input bytes.
type assignment struct {
	item      *workItem
	job       int // item's index in its round's items: the packer's job
	partition int
	input     []byte
	// off is where input starts within item.input: the running sum of
	// the split's earlier piece lengths.
	off    int64
	resume *tasks.Checkpoint
	// key is the dispatch identity of this byte range; see workItem.key.
	key int64
	// rng is the range's open-table entry, set once the round record that
	// issues (or re-issues) the key is in the log. Only a profiling
	// execution, which is no part of any job, has none.
	rng *walItemRec
}

// ErrNothingToDo is returned by RunRound with an empty queue.
var ErrNothingToDo = errors.New("server: no pending work")

// RunRound schedules all pending work (fresh submissions plus failed work
// from earlier rounds) across the live fleet, dispatches it, waits for
// completion or failure, and finishes covered jobs. Failed work is
// re-queued for the *next* round, mirroring the paper's decision to delay
// re-scheduling until the next scheduling instant. RunRound is not safe
// for concurrent invocation.
//
// RunRound runs only what must stay off the loop: profiling's waits and
// the packer, over the take's copies of the fleet. The loop commits the
// round and ends it, swept and reported; RunRound returns its report.
func (m *Master) RunRound(ctx context.Context) (*RoundReport, error) {
	t := m.take(true)
	if t == nil || len(t.items) > 0 && len(t.phones) == 0 {
		return nil, ErrNoPhones // stopped or never started, or no fleet
	}
	if len(t.items) == 0 {
		return nil, ErrNothingToDo
	}
	items, profiled := t.items, false
	for _, it := range items {
		if name := it.task.Name(); !t.est.Profiled(name) {
			if err := m.profileOne(ctx, t, it, name); err != nil {
				return nil, err
			}
			profiled = true
		}
	}
	// Take the fleet again: profiling may have killed a phone (or a drain
	// check closed one).
	if profiled {
		if t = m.take(false); t == nil || len(t.phones) == 0 {
			return nil, ErrNoPhones
		}
	}
	sched, inst, err := m.buildSchedule(items, t.infos, t.est)
	if err != nil {
		return nil, err
	}
	plans, err := slicePartitions(items, sched)
	if err != nil {
		return nil, err
	}
	rnd := &round{plans: plans, phones: t.phones, items: items, sched: sched, inst: inst,
		done: make(chan struct{})}
	m.dispatch(ctx, rnd)
	return rnd.report, rnd.err
}

// takeLocked is RunRound's take.
func (m *Master) takeLocked(queue bool) *taking {
	t := &taking{}
	if queue {
		// Drop queued copies whose key has settled: another execution of
		// the range (or a late straggler result) delivered it first.
		queued := m.pending[:0]
		for _, it := range m.pending {
			if it.rng == nil || !m.settledLocked(it.rng) {
				queued = append(queued, it)
			}
		}
		m.pending = queued
		// The round plans what is queued now. The items stay at the head of
		// the queue — where a snapshot cut meanwhile finds them, and where
		// they still are if the round fails before its record is logged —
		// until the commit's record takes them over; later arrivals queue
		// behind.
		t.items = queued[:len(queued):len(queued)]
	}
	// The fleet: a draining phone only while every live phone is (a wrong
	// availability prediction must never park the queue), a quarantined
	// phone never (a wrong answer is worse than none).
	var alive, placeable []*phoneState
	for _, id := range sortedKeys(m.phones) {
		if ps := m.phones[id]; ps.alive() {
			alive = append(alive, ps)
			if m.drains[id] == "" {
				placeable = append(placeable, ps)
			}
		}
	}
	if len(placeable) == 0 {
		placeable = alive
	}
	t.phones = slices.DeleteFunc(placeable, func(ps *phoneState) bool { return m.quarantined[ps.info.ID] })
	t.infos = make([]PhoneInfo, len(t.phones))
	for i, ps := range t.phones {
		t.infos[i] = ps.info
	}
	if m.est == nil && len(t.infos) > 0 {
		slowest := slices.MinFunc(t.infos, func(a, b PhoneInfo) int { return cmp.Compare(a.CPUMHz, b.CPUMHz) })
		m.est, _ = predict.New(slowest.CPUMHz, 1) // the paper's anchor; a registered clock is > 0
	}
	t.est = m.est
	return t
}

// commitLocked commits a packed round and starts it. Every dispatched
// partition gets its key: a re-queued keyed item keeps its own (it is
// atomic, so the byte range is unchanged), everything else a fresh one for
// first-result-wins tracking. The round record (which keyed byte ranges
// the drained items continue as) is logged in the same step, so replay
// sees the handoff atomically; a failed append ends the round with the
// error, its items still at the head of the queue.
func (m *Master) commitLocked(rnd *round) {
	plans := rnd.plans
	rr := &walRound{}
	nextKey := m.nextKey
	for pi := range plans {
		kept := plans[pi][:0]
		for _, a := range plans[pi] {
			it := walRoundItem{Retries: a.item.retries, Partition: a.partition}
			if e := a.item.rng; e == nil {
				nextKey++
				a.key = nextKey
				it.FromSeq, it.Off, it.Len = a.item.seq, a.off, int64(len(a.input))
			} else if m.settledLocked(e) {
				// Settled while the round was being planned (a late result
				// for the range): its log entry is closed, and naming the
				// key in the round record would refer to nothing.
				continue
			} else {
				// Whatever arrived after the item was re-queued is folded in:
				// a checkpoint streamed by an abandoned straggler still
				// chewing on the range, or reported by a copy that failed
				// while this one waited.
				a.key, a.resume = e.Key, e.Resume
			}
			it.Key = a.key
			rr.Items = append(rr.Items, it)
			kept = append(kept, a)
		}
		plans[pi] = kept
	}
	if len(rr.Items) == 0 {
		// Every planned range was settled meanwhile; nothing to log or run.
		m.pending = m.pending[len(rnd.items):]
		rnd.err = ErrNothingToDo
		close(rnd.done)
		return
	}
	if err := m.walAppendErr(rr); err != nil {
		// A missing round record with later report records behind it
		// replays into double-counted coverage: the consumed fresh items
		// re-queue AND the reports credit the keys they became. Nothing
		// has been dispatched yet, so abort the round instead; RunLoop
		// retries at the next scheduling instant, and that round's record
		// is preceded by the snapshot a stale log owes.
		m.cfg.Logger.With("rec", walRecRound).Errorf("wal: round record lost (%v); aborting round", err)
		rnd.err = fmt.Errorf("server: persisting round record: %w", err)
		close(rnd.done)
		return
	}
	// The record is in the log and folded: the items leave the queue, and
	// each range it names is in the open table. Wherever the range sits
	// from here on — unshipped in a phone's queue, prefetched, executing,
	// handed back — a snapshot finds it there.
	m.pending = m.pending[len(rnd.items):]
	for _, queue := range plans {
		for i := range queue {
			queue[i].rng = m.open[queue[i].key]
			queue[i].rng.queued = false
		}
	}
	// Verification executions (replicas / audits) ride the same round:
	// registered in this step so their vote groups exist before any copy
	// can report. Copies share their source's key, so the round record
	// above already names every byte range once.
	for pi, es := range m.planVerificationLocked(plans, rnd.inst) {
		plans[pi] = append(plans[pi], es...)
	}
	// Until the round ends, it finishes the jobs it completes, and its
	// timeline is open.
	m.current = rnd
	rnd.jobs = make([]int, len(rnd.items))
	for i, it := range rnd.items {
		rnd.jobs[i] = it.jobID
	}
	slices.Sort(rnd.jobs)
	rnd.jobs = slices.Compact(rnd.jobs)
	assignments := 0
	for _, queue := range plans {
		assignments += len(queue)
	}
	m.timeline = slices.Grow(m.timeline[:0], 2*assignments) // an assign and a report each
	// The packing decision, snapshotted before dispatch so /debug/sched
	// can pair it with the round's actuals afterwards.
	rnd.snap = m.newSchedSnapshot(rnd)
	rnd.report = &RoundReport{Items: len(rnd.items), PredictedMakespanMs: rnd.sched.Makespan}
	rnd.start = time.Now()
	m.startLocked(rnd.start, rnd)
}

// adopt has the round finish a job: one a result covered while it ran.
func (rnd *round) adopt(jobID int) {
	if i, ok := slices.BinarySearch(rnd.jobs, jobID); !ok {
		rnd.jobs = slices.Insert(rnd.jobs, i, jobID)
	}
}

// endLocked ends rnd in the step in which its last window let go of it:
// stamped, swept and reported, the jobs it holds finished in ID order once
// covered, and the log compacted if due. A closing
// master's round hands nothing back and compacts nothing (its ranges stay
// open, as after a SIGKILL).
func (m *Master) endLocked(rnd *round) {
	defer close(rnd.done)
	report, snap := rnd.report, rnd.snap
	report.Wall = time.Since(rnd.start)
	wallMs := float64(report.Wall) / float64(time.Millisecond)
	m.mx.rounds.Inc()
	m.mx.predictedMakespan.Set(rnd.sched.Makespan)
	m.mx.actualMakespan.Set(wallMs)
	m.mx.roundWallMs.Observe(wallMs)
	// SLO: the packing prediction held if the measured wall time stayed
	// within tolerance of the estimate (an unpredicted round is vacuously
	// good — there was no promise to break).
	m.sloObserve(sloMakespan, rnd.sched.Makespan <= 0 || wallMs <= rnd.sched.Makespan*sloMakespanTolerance)
	m.rounds++
	snap.Round = m.rounds
	m.lastSched = snap
	// Sweep attempt records that can no longer resolve: settled keys,
	// and dead phones (whose in-flight work was re-queued on death). A
	// key with an open vote group still wants its reports — an audit
	// blame tie-break runs on a key that already folded — and an expired
	// tie-break waits for its arbiter's late report or death.
	for id, rec := range m.attempts {
		if (!rec.expired && m.settledLocked(rec.a.rng) && m.votes[rec.a.key] == nil) || !rec.ps.alive() {
			delete(m.attempts, id)
		}
	}
	// Vote groups the round could not settle are swept before jobs finish:
	// an unresolved group's range goes back to the queue, so its job stays
	// under-covered rather than folding unverified.
	if !m.closed {
		m.sweepVoteGroupsLocked()
	}
	// The sweep's requeues are the round's last events; finishing below
	// is the job's, not the round's.
	m.closeTimeline(report, snap, rnd.start)
	report.Requeued = len(m.pending)
	for _, id := range rnd.jobs {
		js := m.jobs[id]
		if js.Done || js.Covered < js.TotalBytes {
			continue
		}
		m.finishJobLocked(js)
		if js.Failure == "" {
			report.CompletedJobs = append(report.CompletedJobs, js.ID)
		}
	}
	for _, ps := range rnd.phones {
		if !ps.alive() {
			report.FailedPhones = append(report.FailedPhones, ps.info.ID)
		}
	}
	if wl := m.cfg.WAL; wl != nil && !m.closed && (wl.CompactDue() || m.walStale) {
		if err := m.walCompactLocked(); err != nil {
			m.cfg.Logger.Errorf("wal: compaction failed: %v", err)
		}
	}
}

// newSchedSnapshot captures the round's bin-packing decision before
// dispatch: per-phone predicted busy spans and per-assignment predicted
// costs under the cost model the scheduler actually used. Actuals are
// filled in by finishSchedSnapshot once the round ends.
func (m *Master) newSchedSnapshot(rnd *round) *SchedSnapshot {
	inst, n := rnd.inst, len(rnd.items)
	snap := &SchedSnapshot{PredictedMakespanMs: rnd.sched.Makespan}
	spans := rnd.sched.PhoneSpans(inst)
	m.plan.shipped = slices.Grow(m.plan.shipped[:0], n)[:n]
	shipped := m.plan.shipped // the current phone's row
	clear(shipped)
	for pi, ps := range rnd.phones {
		sp := SchedPhone{PhoneID: ps.info.ID, PredictedSpanMs: spans[pi]}
		for _, a := range rnd.plans[pi] {
			j := a.job
			sizeKB := float64(len(a.input)) / 1024
			withExec := !shipped[j]
			shipped[j] = true
			sp.Assignments = append(sp.Assignments, SchedAssignment{
				JobID:       a.item.jobID,
				Partition:   a.partition,
				Key:         a.key,
				SizeKB:      sizeKB,
				PredictedMs: inst.Cost(pi, j, sizeKB, withExec),
				ActualMs:    -1,
				Outcome:     "pending",
			})
		}
		for _, a := range rnd.plans[pi] {
			shipped[a.job] = false
		}
		snap.Phones = append(snap.Phones, sp)
	}
	return snap
}

// roundPlan is the memory a round is planned in, overwritten by the next
// round: the instance the packer solves, the flat backing of its cost
// rows, the task-name column of each job, one phone's estimate per name,
// and newSchedSnapshot's shipped row. RunRound packs in it, then the loop
// commits from it; RunRound is not safe for concurrent use.
type roundPlan struct {
	inst    core.Instance
	cells   []float64
	names   []string  // distinct task names this round
	nameOf  []int     // job index -> index into names
	cs      []float64 // the current phone's c per name
	shipped []bool
}

// maxAssignKB caps every phone's partitions beside its RAM: the largest
// input one assign frame carries.
const maxAssignKB = protocol.MaxAssignInput / 1024

// buildSchedule constructs the core instance from a take's fleet and
// solves it. Each phone's partition cap is its RAM, and at most
// maxAssignKB: a phone that reports none gets that bound. The instance is
// m.plan's, valid until the next round plans.
func (m *Master) buildSchedule(items []*workItem, phones []PhoneInfo, est *predict.Estimator) (*core.Schedule, *core.Instance, error) {
	plan := &m.plan
	inst := &plan.inst
	inst.Phones = inst.Phones[:0]
	for _, info := range phones {
		inst.Phones = append(inst.Phones, core.Phone{
			ID:       info.ID,
			BMsPerKB: info.BMsPerKB,
			RAMKB:    min(cmp.Or(float64(info.RAMMB)*1024, maxAssignKB), maxAssignKB),
		})
	}
	inst.Jobs = inst.Jobs[:0]
	plan.names = plan.names[:0]
	plan.nameOf = slices.Grow(plan.nameOf[:0], len(items))[:len(items)]
	for idx, it := range items {
		name := it.task.Name()
		inst.Jobs = append(inst.Jobs, core.Job{
			ID:      idx,
			Task:    name,
			ExecKB:  it.task.ExecKB(),
			InputKB: it.remainingKB(),
			Atomic:  it.atomic || it.resume != nil || it.key != 0,
		})
		k := slices.Index(plan.names, name)
		if k < 0 {
			k = len(plan.names)
			plan.names = append(plan.names, name)
		}
		plan.nameOf[idx] = k
	}
	// c_ij depends on the job only through its task name: estimate once
	// per (phone, distinct name) and fill the row from those, instead of
	// taking the estimator's lock for every cell.
	plan.cells = slices.Grow(plan.cells[:0], len(phones)*len(items))[:len(phones)*len(items)]
	plan.cs = slices.Grow(plan.cs[:0], len(plan.names))[:len(plan.names)]
	inst.C = slices.Grow(inst.C[:0], len(phones))[:len(phones)]
	var err error
	for i, info := range phones {
		for k, name := range plan.names {
			if plan.cs[k], err = est.Estimate(name, info.ID, info.CPUMHz); err != nil {
				return nil, nil, err
			}
		}
		row := plan.cells[i*len(items) : (i+1)*len(items) : (i+1)*len(items)]
		for j, k := range plan.nameOf {
			row[j] = plan.cs[k]
		}
		inst.C[i] = row
	}
	// Deadline-aware packing: cap each phone's bin at its predicted
	// remaining charge window, so a partition whose completion would
	// cross the phone's predicted-unplug quantile is placed elsewhere.
	windowed := false
	if m.cfg.PlugAware {
		now := nowMs()
		for i, info := range phones {
			rem, ok := m.windows.RemainingMs(info.ID, now, drainQuantile)
			if !ok {
				continue // too little history: never veto
			}
			if rem < 1 {
				// Overdue phone: an epsilon window vetoes real work on it
				// without the zero value's "unconstrained" meaning.
				rem = 1
			}
			inst.Phones[i].AvailMs = rem
			windowed = true
		}
	}
	sched, err := core.Greedy(inst)
	if windowed && errors.Is(err, core.ErrInfeasible) {
		// The windows are advisory: when every phone's predicted window
		// is too tight to fit the work at all, running somewhere beats
		// starving the queue. Retry the same instance unconstrained.
		m.cfg.Logger.Warnf("plug-aware windows made packing infeasible; retrying without them")
		for i := range inst.Phones {
			inst.Phones[i].AvailMs = 0
		}
		sched, err = core.Greedy(inst)
	}
	if err != nil {
		return nil, nil, err
	}
	if sched.Vetoed > 0 {
		m.mx.vetoed.Add(int64(sched.Vetoed))
	}
	return sched, inst, nil
}

// slicePartitions turns the abstract schedule into per-phone queues of
// concrete byte partitions, splitting breakable inputs at record
// boundaries.
func slicePartitions(items []*workItem, sched *core.Schedule) ([][]assignment, error) {
	// Gather each item's assignments in deterministic (phone, order)
	// sequence.
	type slot struct {
		phone, pos int
		sizeKB     float64
	}
	perItem := make([][]slot, len(items))
	for pi, asgs := range sched.PerPhone {
		for pos, a := range asgs {
			perItem[a.Job] = append(perItem[a.Job], slot{phone: pi, pos: pos, sizeKB: a.SizeKB})
		}
	}
	plans := make([][]assignment, len(sched.PerPhone))
	for pi := range plans {
		plans[pi] = make([]assignment, len(sched.PerPhone[pi]))
	}
	for j, slots := range perItem {
		it := items[j]
		if len(slots) == 0 {
			return nil, fmt.Errorf("server: item %d received no assignment", j)
		}
		if len(slots) == 1 {
			// A re-queued range keeps the partition number it was first
			// dispatched under so its timeline stays one row.
			plans[slots[0].phone][slots[0].pos] = assignment{
				item: it, job: j, partition: it.partition, input: it.input, resume: it.resume,
			}
			continue
		}
		b, ok := it.task.(tasks.Breakable)
		if !ok {
			return nil, fmt.Errorf("server: scheduler split non-breakable item %d", j)
		}
		sizes := make([]float64, len(slots))
		for k, s := range slots {
			sizes[k] = s.sizeKB
		}
		pieces, err := splitChecked(b, it.input, sizes)
		if err != nil {
			return nil, fmt.Errorf("server: splitting item %d: %w", j, err)
		}
		off := int64(0)
		for k, s := range slots {
			plans[s.phone][s.pos] = assignment{
				item: it, job: j, partition: k, input: pieces[k], off: off,
			}
			off += int64(len(pieces[k]))
		}
	}
	// Drop zero-byte pieces (a line-boundary split can starve a slot).
	for pi := range plans {
		kept := plans[pi][:0]
		for _, a := range plans[pi] {
			if len(a.input) > 0 {
				kept = append(kept, a)
			}
		}
		plans[pi] = kept
	}
	return plans, nil
}

// assignmentDeadlineLocked bounds one assignment by DeadlineFactor times
// its cost-model estimate E_j·b_i + l_ij·(b_i + c_ij), floored at
// DeadlineFloor (early estimates are unreliable).
func (m *Master) assignmentDeadlineLocked(a assignment, ps *phoneState) time.Duration {
	d := m.cfg.DeadlineFloor
	if m.est == nil {
		return d
	}
	c, err := m.est.Estimate(a.item.task.Name(), ps.info.ID, ps.info.CPUMHz)
	if err != nil {
		return d
	}
	b, l := ps.info.BMsPerKB, float64(len(a.input))/1024
	ms := a.item.task.ExecKB()*b + l*core.Rate(b, c)
	if byModel := time.Duration(ms * m.cfg.DeadlineFactor * float64(time.Millisecond)); byModel > d {
		d = byModel
	}
	return d
}

// speculateLocked queues an atomic copy of a straggling assignment for the
// next round. The original attempt stays outstanding; whichever report
// arrives first wins the key. At most one copy is issued per key — none
// for a range a failure report has already queued — and it spends no
// retry, so nothing replay needs changes, and nothing is logged.
func (m *Master) speculateLocked(a assignment) bool {
	e := a.rng
	if e.shared || e.queued || m.settledLocked(e) {
		return false
	}
	e.shared, e.queued = true, true
	m.pending = append(m.pending, itemOf(m.jobs[e.JobID], e))
	m.mx.speculations.Inc()
	m.trace(obs.SpanEvent{Kind: obs.KindSpeculate, Job: a.item.jobID,
		Partition: a.partition, Key: a.key, Phone: -1, Bytes: int64(len(a.input))})
	return true
}

// pairFits reports whether the phone can hold next's input beside the one
// it is executing. RAMMB caps a single partition in the packer; a
// prefetched input is a second buffer on the phone and counts against the
// same memory.
func pairFits(ps *phoneState, cur, next assignment) bool {
	return ps.info.RAMMB == 0 || len(cur.input)+len(next.input) <= ps.info.RAMMB<<20
}

// recordStreamedCheckpoint folds a worker's mid-execution streamed
// checkpoint into the master's resume state for the attempt's byte range.
// If the phone later dies silently (missed keepalives, a cut connection)
// or is abandoned as a straggler, the range re-dispatches from this
// checkpoint instead of from scratch — the paper only gets this on an
// *online* failure, whose report carries the checkpoint. The fold is the
// migrate record a kept failure checkpoint is (keepCheckpointLocked), so
// streamed progress survives a master crash too. Every frame is
// acknowledged, accepted or not: the ack is flow control (workers cap
// unacked frames), not a durability promise: msg becomes the ack, which
// the reader sends.
func (m *Master) recordStreamedCheckpoint(ps *phoneState, msg *protocol.Message) {
	ck := msg.Checkpoint
	var jobID, partition int
	m.mx.ckptFrames.Inc()
	switch {
	case msg.Attempt == 0 || ck == nil || ck.Offset <= 0:
	case msg.Digest != ck.Digest():
		// In-transit damage (a stripped digest included): never fold.
		m.mx.mismatches[verifyCheckpoint].Inc()
		m.sloObserve(sloVerify, false)
		m.cfg.Logger.With("phone", ps.info.ID).Warnf("streamed checkpoint digest mismatch; frame dropped")
	default:
		// A frame naming another phone's attempt resolves to nothing: it
		// never becomes that phone's resume state.
		if rec := m.attemptLocked(ps, msg.Attempt); rec != nil && !rec.expired {
			a, e := rec.a, rec.a.rng
			jobID, partition = a.item.jobID, a.partition
			// (A profiling execution has no range to fold into.)
			if e != nil && !m.settledLocked(e) && m.keepCheckpointLocked(e, ck) {
				m.ckptFolds++
				m.mx.ckptFolds.Inc()
				m.mx.ckptBytes.Add(int64(len(ck.State)))
				m.trace(obs.SpanEvent{Kind: obs.KindCheckpoint, Job: jobID,
					Partition: partition, Key: a.key, Phone: ps.info.ID,
					Bytes: ck.Offset, Detail: "streamed"})
			}
		}
	}
	// Echo the span coordinates so the worker's ckpt_ack telemetry event
	// anchors to the same trace span as the master's checkpoint fold.
	// The ack goes out in the frame's own message; the checkpoint a fold
	// kept is its own allocation.
	var span string
	if jobID != 0 {
		span = jobSpan(jobID)
	}
	*msg = protocol.Message{
		Type: protocol.TypeCheckpointAck, Attempt: msg.Attempt, Seq: msg.Seq,
		JobID: jobID, Partition: partition, Span: span,
	}
}

// StreamedCheckpoints reports how many streamed checkpoints have been
// accepted (folded into resume state) since the master started.
func (m *Master) StreamedCheckpoints() (n int) {
	m.do(func() { n = m.ckptFolds })
	return n
}

// finalizeResultLocked folds a completed (and, if verification applies,
// verified — see recordResultLocked in verify.go) partition into its job
// and refines the execution-time prediction. Duplicate results for an
// already-settled key (the loser of a speculative race, a reconnect
// replay) are dropped.
func (m *Master) finalizeResultLocked(a assignment, resp *protocol.Message, ps *phoneState) {
	if m.settledLocked(a.rng) {
		m.cfg.Logger.With("job", a.item.jobID, "partition", a.partition, "key", a.key).
			Infof("duplicate result dropped (key already settled)")
		return
	}
	js := m.jobs[a.item.jobID]
	// A resumed piece covers its full byte range too: the failure that
	// spawned it recorded no coverage (only the reporter path does, and
	// reporter remainders arrive as fresh pieces without resume state).
	m.walAppend(&walReport{
		JobID: js.ID, Key: a.key, Bytes: int64(len(a.input)), Partial: wire.Held{Bytes: resp.Result},
	})
	// A late result (tie-break, detached straggler) can complete a job's
	// coverage outside any round: without a round's end coming, finish it
	// here. Inside one, the round finishes it, whether or not it holds the
	// job's work.
	switch {
	case js.Done || js.Covered < js.TotalBytes:
	case m.current == nil:
		m.finishJobLocked(js)
	default:
		m.current.adopt(js.ID)
	}
	m.mx.results.Inc()
	m.sloObserve(sloRequeue, true)
	if resp.ExecMs > 0 {
		m.mx.execMs.Observe(resp.ExecMs)
	}
	if m.est != nil && resp.ExecMs > 0 && resp.ProcessedKB > 0 {
		_ = m.est.Report(a.item.task.Name(), ps.info.ID, resp.ExecMs/resp.ProcessedKB)
	}
}

// drainFailureReason is the failure-report error a worker sends when it
// hands back an in-flight partition because the server asked it to
// drain (see protocol.TypeDrain and the worker's reply).
const drainFailureReason = "drained"

// recordFailureLocked applies the paper's migration rule to a failed
// partition: tasks that can convert their checkpoint into a partial result
// have it saved and only the unprocessed input remainder re-queued; others
// are migrated whole (input + checkpoint). A replayed report (a phone that
// replugged before its failure finished processing) finds the range
// settled, or its copy queued, and changes nothing.
func (m *Master) recordFailureLocked(a assignment, resp *protocol.Message) {
	ck := resp.Checkpoint
	m.mx.failures.Inc()
	e := a.rng
	if m.settledLocked(e) {
		// Another execution already delivered this byte range; the
		// failure is moot.
		return
	}
	// The partial-result shortcut credits coverage immediately, so it is
	// only safe when no duplicate of this byte range can still deliver a
	// full result (which would double-count the checkpointed prefix).
	if pr, ok := a.item.task.(tasks.PartialReporter); ok && ck != nil && a.resume == nil && !e.shared &&
		ck.Offset > 0 && ck.Offset <= e.Len {
		partial, err := pr.PartialResult(ck.State)
		if err == nil {
			// The remainder is a fresh byte range: new identity, splittable
			// again, one retry spent — unless that was the last one.
			rec := &walPartialRec{JobID: e.JobID, Key: e.Key, Offset: ck.Offset, Partial: wire.Held{Bytes: partial}}
			rest, reason := int(e.Len-ck.Offset), "failure remainder: "+resp.Error
			if rest > 0 && !spent(e.Retries+1) {
				rec.RemainderSeq, rec.Retries = m.nextSeq+1, e.Retries+1
			}
			m.walAppend(rec)
			if rec.RemainderSeq != 0 {
				m.enqueueLocked(m.fresh[rec.RemainderSeq], reason)
			} else if rest > 0 {
				m.deadLetterLocked(&walDeadLetterRec{JobID: e.JobID, Task: a.item.task.Name(),
					Bytes: rest, Retries: e.Retries, Reason: reason}, 0)
			}
			return
		}
		m.cfg.Logger.With("job", a.item.jobID).Warnf("partial result unusable: %v", err)
	}
	// Whole-partition migration: resume exactly where it stopped.
	if e.queued {
		// A queued copy already carries this byte range (a straggler past
		// its deadline that then unplugged).
		m.keepCheckpointLocked(e, ck)
		return
	}
	// A failure report without a checkpoint (task error, send race) still
	// resumes from the last streamed one, or any earlier progress.
	m.requeueLocked(e, ck, "failure: "+resp.Error)
}

// keepCheckpointLocked is a checkpoint for a range that stays where it is
// — streamed by the execution that holds it, or carried by the failure
// report of one whose range something else already carries (a queued
// copy, a later dispatch): nothing is re-queued and no retry spent, but
// the range resumes from ck if that is further than anything it holds.
// Logged (a migrate record, same retry count), so a recovered master
// resumes from it too; it reports whether ck was kept.
func (m *Master) keepCheckpointLocked(e *walItemRec, ck *tasks.Checkpoint) bool {
	if ck == nil || ck.Offset > e.Len || further(e.Resume, ck) != ck {
		return false
	}
	m.migrateLocked(e, ck, e.Retries)
	return true
}

// migrateLocked logs and folds the one change an open range takes while it
// stays open: same bytes, new resume state and retry count.
func (m *Master) migrateLocked(e *walItemRec, resume *tasks.Checkpoint, retries int) {
	m.walAppend(&walMigrate{JobID: e.JobID, Key: e.Key, Resume: resume,
		Retries: retries, Partition: e.Partition})
}

// maxItemRetries bounds how many times one work item may be re-queued
// before it is dead-lettered instead: graceful degradation over infinite
// re-queue.
const maxItemRetries = 8

// retryBudget is maxItemRetries, a variable so that a test can have a
// range dead-lettered at its second failure.
var retryBudget = maxItemRetries

// spent reports whether a retry count is past the budget.
func spent(retries int) bool { return retries > retryBudget }

// requeueLocked hands the open range e back whole for the next scheduling
// instant, one retry spent, resuming from ck or whatever the entry holds
// ahead of it — or dead-letters it once its retry budget is spent
// (graceful degradation over infinite re-queue). Either way the log takes
// it: replay counts the budget the live master enforces.
func (m *Master) requeueLocked(e *walItemRec, ck *tasks.Checkpoint, reason string) {
	if spent(e.Retries + 1) {
		// Abandoning the range settles its key, like a result would: the
		// dead-letter record closes the range, so an attempt still out on
		// it has nothing left to report into.
		m.deadLetterLocked(&walDeadLetterRec{JobID: e.JobID, Key: e.Key, Task: m.jobs[e.JobID].Task,
			Bytes: int(e.Len), Retries: e.Retries, Reason: reason}, e.Partition)
		return
	}
	m.migrateLocked(e, further(e.Resume, ck), e.Retries+1)
	e.queued = true
	m.enqueueLocked(e, reason)
}

// deadLetterLocked surfaces work whose retry budget is spent instead of
// re-queueing it forever.
func (m *Master) deadLetterLocked(rec *walDeadLetterRec, partition int) {
	m.walAppend(rec)
	m.cfg.Logger.With("job", rec.JobID, "retries", rec.Retries).Warnf("item dead-lettered: %s", rec.Reason)
	m.mx.deadLetters.Inc()
	m.trace(obs.SpanEvent{Kind: obs.KindDeadLetter, Job: rec.JobID, Partition: partition,
		Key: rec.Key, Phone: -1, Bytes: int64(rec.Bytes), Detail: rec.Reason})
}

// enqueueLocked queues a durable entry — a failure's fresh remainder, or
// the copy of a handed-back open range — for the next scheduling instant.
func (m *Master) enqueueLocked(e *walItemRec, reason string) {
	m.pending = append(m.pending, itemOf(m.jobs[e.JobID], e))
	m.mx.requeues.Inc()
	m.sloObserve(sloRequeue, false)
	if e.Resume != nil {
		// The retry resumes mid-input: those bytes never get re-executed.
		m.mx.recomputeSaved.Add(e.Resume.Offset)
	}
	m.trace(obs.SpanEvent{Kind: obs.KindRequeue, Job: e.JobID, Partition: e.Partition,
		Key: e.Key, Phone: -1, Bytes: e.Len, Detail: reason})
}

// handBackLocked re-queues a dispatched range whole — unless its key has
// settled or a queued copy already carries it.
func (m *Master) handBackLocked(e *walItemRec, reason string) {
	if !e.queued && !m.settledLocked(e) {
		m.requeueLocked(e, nil, reason)
	}
}

// finishJobLocked finishes a job whose coverage completed now — at the
// round sweep, or on a late result — and counts and traces it. An
// aggregation error is TERMINAL: the partials it combined are the only
// ones the byte ranges will ever produce (re-running them yields the
// same set), so retrying next round can only wedge the job forever. It
// is surfaced to the submitter via JobFailure.
func (m *Master) finishJobLocked(js *walJobRec) {
	if err := js.finish(); err != nil {
		m.mx.jobsFailed.Inc()
		m.cfg.Logger.With("job", js.ID).Errorf("aggregation failed terminally: %v", err)
		return
	}
	m.mx.jobsCompleted.Inc()
	m.trace(obs.SpanEvent{Kind: obs.KindAggregate, Job: js.ID, Phone: -1,
		Bytes: int64(js.Result.Len())})
}

// RunLoop runs scheduling rounds forever: whenever pending work exists
// (fresh submissions or failed work awaiting the next scheduling instant,
// the paper's "new schedule to be computed at time instant B"), a round
// is executed; otherwise the loop sleeps for the period. It returns when
// the context is canceled. Each round's report is passed to onRound if
// non-nil.
func (m *Master) RunLoop(ctx context.Context, period time.Duration, onRound func(*RoundReport)) error {
	if period <= 0 {
		period = time.Second
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-m.life.Done():
			return nil
		default:
		}
		if m.PendingItems() > 0 {
			report, err := m.RunRound(ctx)
			switch {
			case err == nil:
				if onRound != nil {
					onRound(report)
				}
				continue
			case err == ErrNothingToDo:
				continue // raced with another consumer
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				return err
			case err != ErrNoPhones: // that one just waits for the fleet to come back
				// Graceful degradation: a failed round (profiling lost its
				// phone, scheduling hit a transient inconsistency) must not
				// kill the service; the pending queue still holds the work.
				m.cfg.Logger.Warnf("round failed: %v (retrying next period)", err)
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-m.life.Done():
			return nil
		case <-time.After(period):
		}
	}
}

// sendAssign ships one partition in msg, the writer's own message, as
// one assign frame: the packer cuts no partition larger than
// protocol.MaxAssignInput. A profiling execution is part of no job: it
// ships under the sentinel job 0, with no span.
func (m *Master) sendAssign(ps *phoneState, msg *protocol.Message, a assignment, attempt int64) error {
	job, span := a.item.jobID, a.item.span
	if a.rng == nil {
		job, span = 0, ""
	}
	*msg = protocol.Message{Type: protocol.TypeAssign, JobID: job, Partition: a.partition,
		Attempt: attempt, Span: span, Task: a.item.task.Name(), Params: a.item.params,
		Input: a.input, Resume: a.resume}
	if err := ps.conn.Send(msg); err != nil {
		return err
	}
	m.mx.assignBytes.Add(int64(len(a.input)))
	return nil
}
