// Package core implements CWC's makespan-minimizing task scheduler
// (paper §5).
//
// The scheduling problem SCH: given jobs j with executable size E_j (KB)
// and input size L_j (KB), and phones i with per-KB transfer time b_i
// (ms/KB) and per-KB execution time c_ij (ms/KB), assign input partitions
// l_ij so the time at which the last phone finishes (the makespan T) is
// minimized, where phone i's completion time is
//
//	Σ_j u_ij·(E_j·b_i + l_ij·(b_i + c_ij))
//
// Atomic jobs must go to exactly one phone. SCH generalizes unrelated-
// machines minimum makespan scheduling and is NP-hard; CWC solves it
// greedily through the complementary bin-packing problem (Algorithm 1)
// inside a binary search over bin capacity. This package provides that
// algorithm, the simple baselines the paper compares against (equal
// split, round-robin), the LP-relaxation lower bound (Figure 13), and
// schedule validation/evaluation utilities.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Job is one schedulable unit of work. When re-scheduling failed work the
// same type is reused: InputKB is then the *remaining* input (the paper's
// R_j) and Resume carries the migrated checkpoint.
type Job struct {
	ID      int     // caller-assigned identifier, unique within an instance
	Task    string  // executable name (tasks registry key)
	ExecKB  float64 // E_j: executable size shipped once per phone
	InputKB float64 // L_j (or R_j when re-scheduling): input left to process
	Atomic  bool    // must execute on a single phone
	Resume  []byte  // optional migrated checkpoint state, carried opaquely
}

// Phone is one schedulable phone.
type Phone struct {
	ID       int     // caller-assigned identifier, unique within an instance
	BMsPerKB float64 // b_i: measured per-KB transfer time from the server
	RAMKB    float64 // partition size cap (footnote 4); 0 = unconstrained
	// AvailMs caps this phone's total scheduled time (bin height) at its
	// predicted remaining charge window, ms; 0 = unconstrained. The cap
	// is advisory: callers whose instance becomes infeasible under the
	// windows are expected to retry without them rather than starve.
	AvailMs float64
}

// Instance is a complete scheduling problem.
type Instance struct {
	Phones []Phone
	Jobs   []Job
	// C[i][j] is c_ij, the per-KB execution time of job j on phone i, in
	// ms/KB, typically produced by the predict package.
	C [][]float64
}

// Validation failures.
var (
	ErrNoPhones   = errors.New("core: instance has no phones")
	ErrNoJobs     = errors.New("core: instance has no jobs")
	ErrInfeasible = errors.New("core: no feasible schedule (job exceeds every phone's RAM?)")
)

// Validate checks structural consistency of the instance.
func (inst *Instance) Validate() error {
	if len(inst.Phones) == 0 {
		return ErrNoPhones
	}
	if len(inst.Jobs) == 0 {
		return ErrNoJobs
	}
	if len(inst.C) != len(inst.Phones) {
		return fmt.Errorf("core: C has %d rows, want %d phones", len(inst.C), len(inst.Phones))
	}
	ids := make([]int, max(len(inst.Phones), len(inst.Jobs)))
	dupPhone := firstDuplicate(ids[:len(inst.Phones)], func(i int) int { return inst.Phones[i].ID })
	for i, p := range inst.Phones {
		if p.BMsPerKB <= 0 {
			return fmt.Errorf("core: phone %d has non-positive b_i %v", p.ID, p.BMsPerKB)
		}
		if p.RAMKB < 0 {
			return fmt.Errorf("core: phone %d has negative RAM", p.ID)
		}
		if p.AvailMs < 0 || math.IsNaN(p.AvailMs) {
			return fmt.Errorf("core: phone %d has invalid availability window %v", p.ID, p.AvailMs)
		}
		if i == dupPhone {
			return fmt.Errorf("core: duplicate phone ID %d", p.ID)
		}
		if len(inst.C[i]) != len(inst.Jobs) {
			return fmt.Errorf("core: C row %d has %d cols, want %d jobs", i, len(inst.C[i]), len(inst.Jobs))
		}
		for j, c := range inst.C[i] {
			if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("core: c[%d][%d] = %v invalid", i, j, c)
			}
		}
	}
	dupJob := firstDuplicate(ids[:len(inst.Jobs)], func(j int) int { return inst.Jobs[j].ID })
	for k, j := range inst.Jobs {
		if j.InputKB <= 0 {
			return fmt.Errorf("core: job %d has non-positive input %v KB", j.ID, j.InputKB)
		}
		if j.ExecKB < 0 {
			return fmt.Errorf("core: job %d has negative executable size", j.ID)
		}
		if k == dupJob {
			return fmt.Errorf("core: duplicate job ID %d", j.ID)
		}
	}
	return nil
}

// firstDuplicate returns the smallest k < len(scratch) whose id(k)
// repeats an earlier one, or -1. It overwrites scratch.
func firstDuplicate(scratch []int, id func(int) int) int {
	n := len(scratch)
	for k := range scratch {
		scratch[k] = id(k)
	}
	slices.Sort(scratch)
	if len(slices.Compact(scratch)) == n {
		return -1
	}
	// Some ID repeats: find where it first does (the error path).
	for k := 1; k < n; k++ {
		for l := range k {
			if id(l) == id(k) {
				return k
			}
		}
	}
	return -1
}

// Cost returns the time (ms) for phone index i to fetch and execute sizeKB
// of job index j's input, including the executable shipping cost when
// withExec is set — Equation 1 of the paper.
func (inst *Instance) Cost(i, j int, sizeKB float64, withExec bool) float64 {
	b := inst.Phones[i].BMsPerKB
	cost := sizeKB * (b + inst.C[i][j])
	if withExec {
		cost += inst.Jobs[j].ExecKB * b
	}
	return cost
}

// Assignment is one scheduled partition: phone phoneIdx processes SizeKB
// of job jobIdx's input.
type Assignment struct {
	Phone  int // index into Instance.Phones
	Job    int // index into Instance.Jobs
	SizeKB float64
}

// Schedule is a solved instance: per-phone ordered assignment lists plus
// the predicted makespan.
type Schedule struct {
	// PerPhone[i] lists phone i's assignments in execution order.
	PerPhone [][]Assignment
	// Makespan is the predicted completion time of the last phone, ms.
	Makespan float64
	// Vetoed counts the placements the winning packing run rejected
	// solely because of a phone's availability window (Phone.AvailMs) —
	// placements the capacity alone would have accepted. Each (item as
	// it stood, phone) pair counts once: the packer remembers a
	// rejection and does not ask again until the item changes. Zero when
	// no windows constrain the instance.
	Vetoed int
}

// PartitionCounts returns, for each job index, how many partitions its
// input was split into (1 = executed whole, the paper's "0 input
// partitions" in Figure 12b's x-axis counts *extra* pieces, i.e. pieces-1).
func (s *Schedule) PartitionCounts(numJobs int) []int {
	counts := make([]int, numJobs)
	for _, asgs := range s.PerPhone {
		for _, a := range asgs {
			counts[a.Job]++
		}
	}
	return counts
}

// PhoneSpans returns each phone's total busy time under the instance's
// cost model (executable shipped once per phone/job pair).
func (s *Schedule) PhoneSpans(inst *Instance) []float64 {
	spans := make([]float64, len(inst.Phones))
	shipped := make([]bool, len(inst.Jobs)) // the current phone's row
	for i, asgs := range s.PerPhone {
		spans[i] = span(inst, asgs, shipped)
	}
	return spans
}

// span is one phone's busy time over its assignment list. shipped is a
// cleared per-job row; span marks in it which executables the phone has
// received, and clears it again.
func span(inst *Instance, asgs []Assignment, shipped []bool) float64 {
	t := 0.0
	for _, a := range asgs {
		withExec := !shipped[a.Job]
		shipped[a.Job] = true
		t += inst.Cost(a.Phone, a.Job, a.SizeKB, withExec)
	}
	for _, a := range asgs {
		shipped[a.Job] = false
	}
	return t
}

// Evaluate recomputes the makespan of the schedule under the instance's
// cost model, independent of whatever the scheduler predicted.
func (s *Schedule) Evaluate(inst *Instance) float64 {
	spans := s.PhoneSpans(inst)
	max := 0.0
	for _, sp := range spans {
		if sp > max {
			max = sp
		}
	}
	return max
}

// sizeTolerance absorbs float accumulation when checking input coverage.
const sizeTolerance = 1e-6

// Validate checks that the schedule is a correct solution to the
// instance: every job's input fully assigned, atomic jobs unsplit, RAM
// caps respected, indices in range, and the declared makespan consistent
// with the cost model.
func (s *Schedule) Validate(inst *Instance) error {
	if len(s.PerPhone) != len(inst.Phones) {
		return fmt.Errorf("core: schedule covers %d phones, instance has %d",
			len(s.PerPhone), len(inst.Phones))
	}
	assigned := make([]float64, len(inst.Jobs))
	pieces := make([]int, len(inst.Jobs))
	for i, asgs := range s.PerPhone {
		for _, a := range asgs {
			if a.Phone != i {
				return fmt.Errorf("core: assignment on phone list %d claims phone %d", i, a.Phone)
			}
			if a.Job < 0 || a.Job >= len(inst.Jobs) {
				return fmt.Errorf("core: assignment references job index %d", a.Job)
			}
			if a.SizeKB <= 0 {
				return fmt.Errorf("core: non-positive partition %v KB for job %d", a.SizeKB, a.Job)
			}
			if ram := inst.Phones[i].RAMKB; ram > 0 && a.SizeKB > ram+sizeTolerance {
				return fmt.Errorf("core: partition %v KB exceeds phone %d RAM %v KB",
					a.SizeKB, inst.Phones[i].ID, ram)
			}
			assigned[a.Job] += a.SizeKB
			pieces[a.Job]++
		}
	}
	for j, job := range inst.Jobs {
		if math.Abs(assigned[j]-job.InputKB) > sizeTolerance*(1+job.InputKB) {
			return fmt.Errorf("core: job %d has %v of %v KB assigned", job.ID, assigned[j], job.InputKB)
		}
		if job.Atomic && pieces[j] != 1 {
			return fmt.Errorf("core: atomic job %d split into %d pieces", job.ID, pieces[j])
		}
	}
	if got := s.Evaluate(inst); math.Abs(got-s.Makespan) > 1e-6*(1+got) {
		return fmt.Errorf("core: declared makespan %v != recomputed %v", s.Makespan, got)
	}
	return nil
}
