package core

import "math"

// Improve runs a local-search refinement over a schedule (an extension
// beyond the paper, which reports its greedy solution sitting ~18% above
// the LP bound at the median): repeatedly take the busiest phone and try
// to (a) move one of its partitions to another phone, (b) shrink a
// breakable partition by shifting input to another phone, or (c) swap a
// partition with a cheaper one elsewhere — accepting any change that
// lowers the makespan. It returns an improved copy (the input schedule is
// not modified) and the number of accepted moves.
func Improve(inst *Instance, sched *Schedule, maxRounds int) (*Schedule, int) {
	if maxRounds <= 0 {
		maxRounds = 50
	}
	cur := cloneSchedule(sched)
	moves := 0
	for round := 0; round < maxRounds; round++ {
		spans := cur.PhoneSpans(inst)
		worst := argmaxF(spans)
		// The move heuristics estimate span deltas (executable-cost
		// interactions make exact prediction fiddly); verify every
		// accepted move against the real cost model and revert
		// regressions.
		before := cloneSchedule(cur)
		beforeMk := cur.Evaluate(inst)
		if !(tryMove(inst, cur, spans, worst) ||
			tryShift(inst, cur, spans, worst) ||
			trySwap(inst, cur, spans, worst)) {
			break
		}
		if cur.Evaluate(inst) > beforeMk+1e-9 {
			cur = before // the estimate lied; stop here
			break
		}
		moves++
	}
	cur.Makespan = cur.Evaluate(inst)
	return cur, moves
}

func cloneSchedule(s *Schedule) *Schedule {
	c := &Schedule{Makespan: s.Makespan, PerPhone: make([][]Assignment, len(s.PerPhone))}
	for i := range s.PerPhone {
		c.PerPhone[i] = append([]Assignment(nil), s.PerPhone[i]...)
	}
	return c
}

func argmaxF(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// ramOK checks a partition size against a phone's RAM cap.
func ramOK(inst *Instance, phone int, sizeKB float64) bool {
	ram := inst.Phones[phone].RAMKB
	return ram == 0 || sizeKB <= ram+sizeTolerance
}

// execExtra returns the executable cost phone i would newly pay to host
// job j, zero if some partition of j already sits there.
func execExtra(inst *Instance, s *Schedule, phone, job int) float64 {
	for _, a := range s.PerPhone[phone] {
		if a.Job == job {
			return 0
		}
	}
	return inst.Jobs[job].ExecKB * inst.Phones[phone].BMsPerKB
}

// execSaved returns the executable cost phone i stops paying if the
// given assignment index leaves it (zero when another partition of the
// same job remains).
func execSaved(inst *Instance, s *Schedule, phone, skipIdx int) float64 {
	job := s.PerPhone[phone][skipIdx].Job
	for k, a := range s.PerPhone[phone] {
		if k != skipIdx && a.Job == job {
			return 0
		}
	}
	return inst.Jobs[job].ExecKB * inst.Phones[phone].BMsPerKB
}

// tryMove relocates one whole partition off the busiest phone.
func tryMove(inst *Instance, s *Schedule, spans []float64, worst int) bool {
	mk := spans[worst]
	for idx, a := range s.PerPhone[worst] {
		saved := execSaved(inst, s, worst, idx) + a.SizeKB*inst.Rate(worst, a.Job)
		for p := range inst.Phones {
			if p == worst || !ramOK(inst, p, a.SizeKB) {
				continue
			}
			added := execExtra(inst, s, p, a.Job) + a.SizeKB*inst.Rate(p, a.Job)
			newWorst := math.Max(spans[worst]-saved, spans[p]+added)
			if newWorst < mk-1e-9 {
				moved := a
				moved.Phone = p
				s.PerPhone[worst] = append(s.PerPhone[worst][:idx], s.PerPhone[worst][idx+1:]...)
				s.PerPhone[p] = append(s.PerPhone[p], moved)
				return true
			}
		}
	}
	return false
}

// tryShift moves part of a breakable partition from the busiest phone to
// a phone that already hosts (or will host) the job.
func tryShift(inst *Instance, s *Schedule, spans []float64, worst int) bool {
	mk := spans[worst]
	for idx := range s.PerPhone[worst] {
		a := s.PerPhone[worst][idx]
		if inst.Jobs[a.Job].Atomic || a.SizeKB <= 2*MinPartitionKB {
			continue
		}
		rateW := inst.Rate(worst, a.Job)
		for p := range inst.Phones {
			if p == worst {
				continue
			}
			rateP := inst.Rate(p, a.Job)
			exec := execExtra(inst, s, p, a.Job)
			// Ideal shift equalizes the two spans.
			delta := (spans[worst] - spans[p] - exec) / (rateW + rateP)
			if delta <= MinPartitionKB {
				continue
			}
			if delta > a.SizeKB-MinPartitionKB {
				delta = a.SizeKB - MinPartitionKB
			}
			if !ramOK(inst, p, delta) {
				delta = inst.Phones[p].RAMKB
				if delta <= MinPartitionKB {
					continue
				}
			}
			newWorst := math.Max(spans[worst]-delta*rateW, spans[p]+exec+delta*rateP)
			if newWorst >= mk-1e-9 {
				continue
			}
			s.PerPhone[worst][idx].SizeKB -= delta
			// Merge into an existing partition of the same job when
			// present (keeps the partition count low, as the paper's
			// aggregation-cost argument wants), else append.
			merged := false
			for k := range s.PerPhone[p] {
				if s.PerPhone[p][k].Job == a.Job &&
					ramOK(inst, p, s.PerPhone[p][k].SizeKB+delta) {
					s.PerPhone[p][k].SizeKB += delta
					merged = true
					break
				}
			}
			if !merged {
				s.PerPhone[p] = append(s.PerPhone[p], Assignment{Phone: p, Job: a.Job, SizeKB: delta})
			}
			return true
		}
	}
	return false
}

// trySwap exchanges one partition on the busiest phone with a cheaper one
// elsewhere.
func trySwap(inst *Instance, s *Schedule, spans []float64, worst int) bool {
	mk := spans[worst]
	for ai, a := range s.PerPhone[worst] {
		costAW := execSaved(inst, s, worst, ai) + a.SizeKB*inst.Rate(worst, a.Job)
		for p := range inst.Phones {
			if p == worst {
				continue
			}
			for bi, b := range s.PerPhone[p] {
				if !ramOK(inst, p, a.SizeKB) || !ramOK(inst, worst, b.SizeKB) {
					continue
				}
				costBP := execSaved(inst, s, p, bi) + b.SizeKB*inst.Rate(p, b.Job)
				// Approximate exec deltas after the swap by charging the
				// full executable unless the job is already present.
				costAP := execExtra(inst, s, p, a.Job) + a.SizeKB*inst.Rate(p, a.Job)
				costBW := execExtra(inst, s, worst, b.Job) + b.SizeKB*inst.Rate(worst, b.Job)
				newWorstSpan := spans[worst] - costAW + costBW
				newPSpan := spans[p] - costBP + costAP
				if math.Max(newWorstSpan, newPSpan) < mk-1e-9 {
					s.PerPhone[worst][ai], s.PerPhone[p][bi] = b, a
					s.PerPhone[worst][ai].Phone = worst
					s.PerPhone[p][bi].Phone = p
					return true
				}
			}
		}
	}
	return false
}
