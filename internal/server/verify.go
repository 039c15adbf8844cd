package server

import (
	"time"

	"cwc/internal/core"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
)

// Result integrity for untrusted phones. The paper assumes an enterprise
// fleet that returns honest results; a real deployment of other people's
// phones cannot. This file makes the master robust to lying, lazy, and
// corrupting workers without trusting any single phone:
//
//   - Every result frame carries a worker-computed SHA-256 digest of its
//     payload (tasks.Digest). The master recomputes the digest from the
//     received bytes; a claimed/computed mismatch proves in-transit
//     damage and the frame is treated as a failure (the range requeues).
//
//   - Replicated voting (Config.VerifyReplicas = k > 1): the scheduler
//     places every partition on k disjoint phones (core.PlaceCopies) and
//     the recomputed digests are put to a quorum vote. Agreement
//     finalizes the result; losers are penalized; a tie is re-executed
//     on the highest-reputation uninvolved phone until some digest
//     reaches quorum.
//
//   - Spot-check audits (Config.AuditRate, when voting is off): a key-hashed
//     fraction of partitions is silently re-executed on a second phone.
//     The first result folds immediately — audits never delay a job —
//     and the comparison happens when the echo arrives; a mismatch
//     escalates to a tie-break for blame (the folded result stands:
//     audits protect the fleet via reputation, not the folded job).
//
//   - Reputation and quarantine: each verification outcome updates a
//     per-phone EWMA score, WAL-logged (walRecReputation) so it survives
//     crash recovery and failover replication. A phone whose score falls
//     below reputationThreshold is quarantined: it stays
//     connected and visible, but placement treats it as a HARD veto —
//     no never-starve fallback, unlike the advisory drain filter.
//
// Voting compares digests the master computed itself, never the claimed
// ones. What voting cannot catch is collusion: two phones returning the
// same wrong bytes for the same partition outvote the truth (the faults
// package's liars therefore derandomize per phone; see docs/faults.md).

// verifyKind is what a verification mismatch compared, the label of
// cwc_verify_mismatches_total: a digest against its payload, a vote's
// ballots, an audit's echo, or a streamed checkpoint's claimed digest.
type verifyKind string

const (
	verifyDigest     verifyKind = "digest"
	verifyVote       verifyKind = "vote"
	verifyAudit      verifyKind = "audit"
	verifyCheckpoint verifyKind = "checkpoint"
)

var verifyKinds = []verifyKind{verifyDigest, verifyVote, verifyAudit, verifyCheckpoint}

// voteGroup tracks one partition's verification: the executions expected
// for its key, the digests they reported, and how the group settled.
type voteGroup struct {
	a assignment // representative assignment (the original placement)
	// need is how many executions are expected to report before the
	// group declares a tie; tie-breaks increment it.
	need int
	// quorum is how many matching digests finalize the vote (fixed at
	// creation: max(2, ceil((k+1)/2))).
	quorum int
	// audit marks a spot-check group: the first ballot folds immediately
	// and later ballots only compare.
	audit   bool
	ballots map[int]tasks.Sum // phone ID -> recomputed digest
	// folded is the digest of the result already folded into the job
	// (zero until one is).
	folded tasks.Sum
	// winner is the quorum digest once resolved; late ballots are scored
	// against it.
	winner   tasks.Sum
	resolved bool
	// tie is the outstanding tie-break's attempt on arbiter (0: none),
	// reclaimed at tieDue on the loop's timer if the arbiter never reports.
	tie     int64
	arbiter *phoneState
	tieDue  time.Time
}

// recordResultLocked folds a completed partition into its job — after
// the verification layer has had its say. See finalizeResultLocked for
// the fold itself; verifyResultLocked consumes the report when a digest
// mismatch or an open vote group intercepts it.
func (m *Master) recordResultLocked(a assignment, resp *protocol.Message, ps *phoneState) {
	if !m.verifyResultLocked(a, resp, ps) {
		m.finalizeResultLocked(a, resp, ps)
	}
}

// verifyResultLocked is the verification layer's interception point:
// every result report passes through here before it may fold. Returns
// true when the report was consumed (folded via a vote, recorded as a
// ballot, or rejected outright); false hands it to finalizeResultLocked
// unchanged.
func (m *Master) verifyResultLocked(a assignment, resp *protocol.Message, ps *phoneState) bool {
	computed := tasks.Digest(resp.Result)
	if resp.Digest != computed {
		// The payload was damaged between the worker's task output and
		// this fold: detectable from the single frame, no vote needed.
		// Treat it like a failure report so the range re-executes. A
		// missing digest is a mismatch too — otherwise whoever can damage
		// a payload could simply strip its digest.
		m.mx.mismatches[verifyDigest].Inc()
		m.sloObserve(sloVerify, false)
		m.cfg.Logger.With("phone", ps.info.ID, "job", a.item.jobID, "partition", a.partition).
			Warnf("result digest mismatch (claimed %.8s, computed %.8s); discarding", resp.Digest, computed)
		m.reputationEventLocked(ps.info.ID, false, "digest mismatch")
		m.recordFailureLocked(a, &protocol.Message{
			Type: protocol.TypeFailure, Error: "result digest mismatch",
			Epoch: m.epoch,
		})
		return true
	}
	// A digest that matched is one successful verification comparison,
	// whatever the voting layer decides next.
	m.sloObserve(sloVerify, true)
	vg := m.votes[a.key]
	if vg == nil {
		if m.cfg.VerifyReplicas > 1 && a.rng.queued && !m.settledLocked(a.rng) {
			// Voting is on but this key's group was swept (a straggler's
			// late result racing its own requeue): the queued copy will
			// re-execute under a fresh vote, so never fold unverified.
			m.cfg.Logger.With("job", a.item.jobID, "key", a.key).
				Infof("late result dropped: range awaits re-verification")
			return true
		}
		return false
	}
	pid := ps.info.ID
	if _, dup := vg.ballots[pid]; dup {
		// A replayed frame from a phone that already voted; the
		// settled-key dedupe in finalizeResultLocked handles any fold.
		return false
	}
	vg.ballots[pid] = computed
	m.mx.votes.Inc()

	if vg.resolved {
		// Late ballot after the vote settled: score it against the winner.
		won := computed == vg.winner
		if !won {
			m.mx.mismatches[verifyVote].Inc()
		}
		m.sloObserve(sloVerify, won)
		m.reputationEventLocked(pid, won, "late vote")
		if len(vg.ballots) >= vg.need {
			delete(m.votes, a.key)
		}
		return true
	}

	if vg.audit && vg.folded == (tasks.Sum{}) {
		// Audit: the first result folds immediately; the echo compares.
		vg.folded = computed
		m.finalizeResultLocked(a, resp, ps)
		return true
	}
	if vg.audit && len(vg.ballots) == 2 {
		m.mx.audits.Inc()
	}

	counts := map[tasks.Sum]int{}
	for _, d := range vg.ballots {
		counts[d]++
	}
	if counts[computed] >= vg.quorum {
		m.resolveVoteLocked(a.key, vg, computed)
		if !vg.audit { // an audit group folded its first result already
			m.finalizeResultLocked(a, resp, ps)
		}
		return true
	}
	if len(vg.ballots) >= vg.need {
		// Every expected execution reported and no digest reached quorum:
		// a tie. Re-execute on a high-reputation uninvolved phone. (The
		// mismatch metric is recorded per losing ballot at resolution.)
		if vg.audit {
			m.cfg.Logger.With("job", a.item.jobID, "key", a.key).
				Warnf("audit mismatch: escalating to tie-break for blame")
		}
		m.startTieBreakLocked(a.key)
	}
	return true // ballot recorded; more executions still due, or a tie-break
}

// resolveVoteLocked settles a vote group on the winning digest: winners
// are rewarded, losers penalized (and counted as mismatches). The group
// stays registered until every expected ballot is in, so stragglers on
// the losing side are still penalized.
func (m *Master) resolveVoteLocked(key int64, vg *voteGroup, winner tasks.Sum) {
	vg.resolved = true
	vg.winner = winner
	kind := verifyVote
	if vg.audit {
		kind = verifyAudit
	}
	for pid, d := range vg.ballots {
		won := d == winner
		if !won {
			m.mx.mismatches[kind].Inc()
		}
		m.sloObserve(sloVerify, won)
		m.reputationEventLocked(pid, won, "verification vote")
	}
	if vg.audit && vg.folded != (tasks.Sum{}) && vg.folded != winner {
		// The audited result had already been folded when the echo proved
		// it wrong: the job's aggregate may be tainted. Audits are a
		// sampling defense — they quarantine the liar so the *fleet*
		// recovers; replicated voting is the mode that protects every job.
		m.cfg.Logger.With("job", vg.a.item.jobID, "key", key).
			Errorf("audit: folded result lost the vote; aggregate may be tainted")
	}
	if len(vg.ballots) >= vg.need {
		delete(m.votes, key)
	}
}

// reputationAlpha is the EWMA weight of one verification outcome in a
// phone's result-integrity reputation (1.0 start; win → 1, loss → 0). A
// phone whose reputation falls below reputationThreshold after a loss is
// quarantined: three straight losses cross it.
const (
	reputationAlpha     = 0.4
	reputationThreshold = 0.3
)

// reputationEventLocked folds one verification outcome into a phone's
// EWMA integrity score, WAL-logs the new state, and quarantines the
// phone when a loss drops it below the threshold. Quarantine is sticky:
// only an operator (or a fresh enrolment, which the auth token gates)
// readmits the phone.
func (m *Master) reputationEventLocked(id int, won bool, why string) {
	prev := m.reputationLocked(id)
	outcome := 0.0
	if won {
		outcome = 1.0
	}
	rep := (1-reputationAlpha)*prev + reputationAlpha*outcome
	quarantine := !won && !m.quarantined[id] && rep < reputationThreshold
	if rep != prev || quarantine {
		m.walAppend(&walReputationRec{
			PhoneID: id, Score: rep, Quarantined: quarantine || m.quarantined[id],
		})
	}
	switch {
	case quarantine:
		m.mx.quarantines.Inc()
		m.cfg.Logger.With("phone", id).Errorf(
			"quarantined: reputation %.3f fell below %.3f (%s)", rep, reputationThreshold, why)
	case !won:
		m.cfg.Logger.With("phone", id).Warnf("reputation %.3f after %s", rep, why)
	}
}

// auditSelected deterministically picks ~AuditRate of all keys for
// spot-check audits (stateless: a re-queued key re-selects identically).
func (m *Master) auditSelected(key int64) bool {
	rate := m.cfg.AuditRate
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	// SplitMix64-style scramble of the key into a uniform [0,1).
	h := uint64(key) * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11)/float64(1<<53) < rate
}

// planVerificationLocked places this round's verification executions —
// full replication under VerifyReplicas, key-hashed spot-checks under
// AuditRate — via core.PlaceCopies, registers their vote groups, and
// returns the per-phone extra assignments to dispatch. The copies share
// their source's key, so every report funnels into the same group.
// Groups register in the step that assigns the round's keys.
func (m *Master) planVerificationLocked(plans [][]assignment, inst *core.Instance) [][]assignment {
	k := m.cfg.VerifyReplicas
	if k <= 1 && m.cfg.AuditRate <= 0 {
		return nil
	}
	// Rebuild a core schedule positionally aligned with plans (the real
	// schedule's slots were re-sliced and zero-byte pieces dropped).
	cs := &core.Schedule{PerPhone: make([][]core.Assignment, len(plans))}
	scheduled := 0
	for pi, asgs := range plans {
		cs.PerPhone[pi] = make([]core.Assignment, len(asgs))
		for i, a := range asgs {
			cs.PerPhone[pi][i] = core.Assignment{
				Phone: pi, Job: a.job, SizeKB: float64(len(a.input)) / 1024,
			}
		}
		scheduled += len(asgs)
	}
	want := func(sp, idx int, _ core.Assignment) int {
		if k > 1 {
			return k - 1
		}
		if m.auditSelected(plans[sp][idx].key) {
			return 1
		}
		return 0
	}
	copies := core.PlaceCopies(inst, cs, want)
	extra := make([][]assignment, len(plans))
	groups := map[int64]*voteGroup{}
	for _, c := range copies {
		src := plans[c.SrcPhone][c.SrcIdx]
		extra[c.Phone] = append(extra[c.Phone], src)
		g := groups[src.key]
		if g == nil {
			g = &voteGroup{a: src, need: 1, audit: k <= 1, ballots: map[int]tasks.Sum{}}
			groups[src.key] = g
		}
		g.need++
	}
	for key, g := range groups {
		g.quorum = g.need/2 + 1
		if g.quorum < 2 {
			g.quorum = 2
		}
		m.votes[key] = g
		// A voted key must settle through its group: suppress the
		// deadline-copy and partial-result shortcuts, which fold coverage
		// outside it.
		g.a.rng.shared = true
	}
	if k > 1 && len(copies) < scheduled*(k-1) {
		// Placement shortfall (fleet smaller than the factor): partitions
		// without a single copy run unverified this round. Loud, not
		// fatal — a small fleet still makes progress.
		m.cfg.Logger.Warnf("verification: placed %d of %d wanted copies (fleet too small for k=%d)",
			len(copies), scheduled*(k-1), k)
	}
	return extra
}

// sweepVoteGroupsLocked runs at the end of each round: settled groups
// are dropped, groups whose range is queued for re-dispatch reset (the
// next round recreates them with fresh ballots), and groups no
// execution can resolve anymore hand their range back to the queue.
func (m *Master) sweepVoteGroupsLocked() {
	for key, vg := range m.votes {
		if vg.tie != 0 && !vg.resolved {
			// An arbiter is in flight (an audit group's key is settled yet
			// still awaiting blame); its expiry owns cleanup.
			continue
		}
		if !vg.resolved {
			m.handBackLocked(vg.a.rng, "verification unresolved")
		}
		delete(m.votes, key)
	}
}

// startTieBreakLocked re-executes a tied partition on the
// highest-reputation phone that has not voted on it, as an attempt no
// window holds (credit resolves its report into the group) queued on the
// arbiter's writer; the loop's timer expires it, and a dead arbiter's tie
// goes to the next-best (dieLocked). With no eligible phone the range goes
// back to the queue for a fresh vote next round.
func (m *Master) startTieBreakLocked(key int64) {
	vg := m.votes[key]
	// An audit group's key is completed by construction (its first result
	// folded); the tie-break still runs, for blame.
	if vg == nil || vg.resolved || (!vg.audit && m.settledLocked(vg.a.rng)) {
		return
	}
	arb := m.pickArbiterLocked(vg)
	if arb == nil {
		delete(m.votes, key)
		m.handBackLocked(vg.a.rng, "verification tie: no arbiter")
		m.cfg.Logger.With("job", vg.a.item.jobID, "key", key).
			Warnf("verification tie with no arbiter available; range re-queued")
		return
	}
	m.nextAttempt++
	m.attempts[m.nextAttempt] = &attemptRec{a: vg.a, ps: arb}
	vg.tie, vg.arbiter, vg.tieDue = m.nextAttempt, arb, time.Time{}
	m.wakeAt = time.Time{} // the loop's next scan arms its expiry
	vg.need++
	m.cfg.Logger.With("job", vg.a.item.jobID, "key", key, "phone", arb.info.ID).
		Infof("verification tie: re-executing on arbiter")
	m.queueLocked(arb, flight{a: vg.a, attempt: vg.tie})
}

// tieBreakExpiredLocked is a tie-break's expiry: an arbiter that never
// reported has its group dropped and the range re-queued for a fresh
// vote. Its attempt is marked expired, not forgotten, so a report it
// sends late is dropped as late rather than counted as a forgery.
func (m *Master) tieBreakExpiredLocked(key int64, vg *voteGroup) {
	attempt := vg.tie
	vg.tie, vg.tieDue = 0, time.Time{}
	if vg.resolved || (!vg.audit && m.settledLocked(vg.a.rng)) {
		return
	}
	if rec := m.attempts[attempt]; rec != nil {
		rec.expired = true
	}
	delete(m.votes, key)
	m.handBackLocked(vg.a.rng, "verification tie-break expired")
	m.cfg.Logger.With("job", vg.a.item.jobID, "key", key).
		Warnf("tie-break arbiter never reported; range re-queued")
}

// pickArbiterLocked selects the tie-break phone: alive, not quarantined,
// not draining, not already a voter and not arbitrating another tie, nor
// still owing one it let expire (which bounds its writer's queue, and the
// expired attempts kept, to one each) — highest reputation first, ties by
// lowest ID for determinism.
func (m *Master) pickArbiterLocked(vg *voteGroup) *phoneState {
	arbitrating := map[*phoneState]bool{}
	for _, g := range m.votes {
		if g.tie != 0 && m.attempts[g.tie] != nil {
			arbitrating[g.arbiter] = true
		}
	}
	for _, rec := range m.attempts {
		if rec.expired {
			arbitrating[rec.ps] = true
		}
	}
	var best *phoneState
	var bestRep float64
	for id, ps := range m.phones {
		if !ps.alive() || m.quarantined[id] || arbitrating[ps] {
			continue
		}
		if _, voted := vg.ballots[id]; voted {
			continue
		}
		if _, draining := m.drains[id]; draining {
			continue
		}
		rep := m.reputationLocked(id)
		if best == nil || rep > bestRep || (rep == bestRep && id < best.info.ID) {
			best, bestRep = ps, rep
		}
	}
	return best
}

// Reputation returns a phone's result-integrity score (1.0 when no
// verification outcome has been recorded for it).
func (m *Master) Reputation(id int) (rep float64) {
	m.do(func() { rep = m.reputationLocked(id) })
	return rep
}

// reputationLocked is Reputation on the state's owner.
func (m *Master) reputationLocked(id int) float64 {
	if r, ok := m.reputation[id]; ok {
		return r
	}
	return 1.0
}

// Quarantined reports whether a phone is excluded from placement for
// integrity failures.
func (m *Master) Quarantined(id int) (q bool) {
	m.do(func() { q = m.quarantined[id] })
	return q
}

// QuarantinedPhones lists quarantined phone IDs in ascending order.
func (m *Master) QuarantinedPhones() (ids []int) {
	m.do(func() { ids = sortedKeys(m.quarantined) })
	return ids
}
