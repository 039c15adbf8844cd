package expt

import (
	"fmt"
	"sort"

	"cwc/internal/core"
)

// Segment is one stripe of a Figure 12 timeline: a phone transferring or
// executing one partition.
type Segment struct {
	Phone   int // phone index
	Job     int // job index
	Kind    SegmentKind
	StartMs float64
	EndMs   float64
}

// SegmentKind labels a timeline stripe.
type SegmentKind string

// Segment kinds: the paper's black (receiving executable+input) and white
// (local execution) stripes.
const (
	SegTransfer SegmentKind = "transfer"
	SegExecute  SegmentKind = "execute"
)

// FailedWork is a partition (or part of one) lost to an unplug event.
type FailedWork struct {
	Job         int     // job index in the executed instance
	RemainingKB float64 // unprocessed input
	// Processed is how much of the partition completed before failure;
	// for tasks with partial reporting it becomes a saved partial result.
	ProcessedKB float64
}

// ExecResult is a simulated run of one schedule.
type ExecResult struct {
	Segments    []Segment
	PhoneFinish []float64 // per phone, ms at which it went idle (or failed)
	MakespanMs  float64   // last completion among surviving phones
	Failed      []FailedWork
	ProcessedKB float64 // total input processed across the fleet
}

// ExecuteSchedule replays a schedule against ground-truth execution rates
// (actualC, in ms/KB) instead of the predicted ones the scheduler used.
// Phones run their queues serially — the next partition is copied only
// after the previous completes, as in the prototype — and independently
// of each other (the NIO server overlaps transfers to different phones).
//
// unplugs maps phone index to the simulated ms at which the phone is
// unplugged: everything unfinished there becomes FailedWork, with
// execute-segment progress recorded at KB granularity (transfer-phase
// failures lose the whole partition, as the input never fully arrived).
func ExecuteSchedule(inst *core.Instance, sched *core.Schedule, actualC [][]float64, unplugs map[int]float64) (*ExecResult, error) {
	if len(actualC) != len(inst.Phones) {
		return nil, fmt.Errorf("expt: actualC has %d rows, want %d", len(actualC), len(inst.Phones))
	}
	res := &ExecResult{PhoneFinish: make([]float64, len(inst.Phones))}
	for i, queue := range sched.PerPhone {
		b := inst.Phones[i].BMsPerKB
		now := 0.0
		deadline, willFail := unplugs[i]
		shipped := map[int]bool{}
		failedFrom := -1 // queue position at which the phone died
		for qi, a := range queue {
			// Transfer: executable (first time for this job on this
			// phone) plus the input partition.
			tdur := a.SizeKB * b
			if !shipped[a.Job] {
				tdur += inst.Jobs[a.Job].ExecKB * b
				shipped[a.Job] = true
			}
			xdur := a.SizeKB * actualC[i][a.Job]

			if willFail && now+tdur >= deadline {
				// Died during transfer: entire partition lost.
				res.Segments = append(res.Segments, Segment{
					Phone: i, Job: a.Job, Kind: SegTransfer, StartMs: now, EndMs: deadline,
				})
				res.Failed = append(res.Failed, FailedWork{Job: a.Job, RemainingKB: a.SizeKB})
				now = deadline
				failedFrom = qi + 1
				break
			}
			res.Segments = append(res.Segments, Segment{
				Phone: i, Job: a.Job, Kind: SegTransfer, StartMs: now, EndMs: now + tdur,
			})
			now += tdur

			if willFail && now+xdur >= deadline {
				// Died mid-execution: checkpoint at whole-KB progress.
				processed := (deadline - now) / actualC[i][a.Job]
				if processed > a.SizeKB {
					processed = a.SizeKB
				}
				processed = float64(int(processed)) // KB granularity
				res.Segments = append(res.Segments, Segment{
					Phone: i, Job: a.Job, Kind: SegExecute, StartMs: now, EndMs: deadline,
				})
				res.Failed = append(res.Failed, FailedWork{
					Job:         a.Job,
					RemainingKB: a.SizeKB - processed,
					ProcessedKB: processed,
				})
				res.ProcessedKB += processed
				now = deadline
				failedFrom = qi + 1
				break
			}
			res.Segments = append(res.Segments, Segment{
				Phone: i, Job: a.Job, Kind: SegExecute, StartMs: now, EndMs: now + xdur,
			})
			now += xdur
			res.ProcessedKB += a.SizeKB
		}
		if failedFrom >= 0 {
			for _, a := range sched.PerPhone[i][failedFrom:] {
				res.Failed = append(res.Failed, FailedWork{Job: a.Job, RemainingKB: a.SizeKB})
			}
		}
		res.PhoneFinish[i] = now
		if failedFrom < 0 && now > res.MakespanMs {
			res.MakespanMs = now
		}
	}
	sort.Slice(res.Segments, func(a, b int) bool {
		if res.Segments[a].Phone != res.Segments[b].Phone {
			return res.Segments[a].Phone < res.Segments[b].Phone
		}
		return res.Segments[a].StartMs < res.Segments[b].StartMs
	})
	return res, nil
}

// FailedInstance builds the next round's scheduling instance from failed
// work: remaining input per job, merged across failure records, offered
// to the surviving phones (the paper's F_A re-scheduling at instant B).
func FailedInstance(orig *core.Instance, failed []FailedWork, deadPhones map[int]bool) (*core.Instance, []int, error) {
	if len(failed) == 0 {
		return nil, nil, fmt.Errorf("expt: no failed work")
	}
	remaining := map[int]float64{}
	for _, f := range failed {
		remaining[f.Job] += f.RemainingKB
	}
	var jobIdx []int
	for j := range remaining {
		jobIdx = append(jobIdx, j)
	}
	sort.Ints(jobIdx)

	inst := &core.Instance{}
	var phoneIdx []int
	for i, p := range orig.Phones {
		if deadPhones[i] {
			continue
		}
		phoneIdx = append(phoneIdx, i)
		inst.Phones = append(inst.Phones, p)
	}
	if len(inst.Phones) == 0 {
		return nil, nil, fmt.Errorf("expt: every phone failed")
	}
	for _, j := range jobIdx {
		job := orig.Jobs[j]
		job.InputKB = remaining[j]
		inst.Jobs = append(inst.Jobs, job)
	}
	inst.C = make([][]float64, len(inst.Phones))
	for row, i := range phoneIdx {
		inst.C[row] = make([]float64, len(jobIdx))
		for col, j := range jobIdx {
			inst.C[row][col] = orig.C[i][j]
		}
	}
	return inst, phoneIdx, nil
}
