package core

import (
	"math"
	"sort"
)

// This file is the packer as it stood before rejections were remembered,
// kept verbatim (types renamed, the never-read options field dropped, a
// fits counter added) as the oracle the differential tests compare the
// production packer against. It rescans every item of L against every
// open bin after every placement: O(J²·P) fits calls per capacity.

// refSearch is GreedyOpt's capacity search over whatever pack function
// the caller supplies.
func refSearch(inst *Instance, pack func(cap float64) (*Schedule, bool)) (*Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	ub := UpperBoundCapacity(inst)
	lb := LowerBoundMakespan(inst)
	if lb > ub {
		lb = 0
	}
	best, ok := pack(ub)
	if !ok {
		return nil, ErrInfeasible
	}
	hi := best.Makespan
	lo := lb
	for hi-lo > relTolerance*hi+0.5 {
		c := (lo + hi) / 2
		if sched, ok := pack(c); ok {
			best = sched
			hi = math.Min(c, sched.Makespan)
		} else {
			lo = c
		}
	}
	return best, nil
}

// RefGreedy is Greedy as it was: the same search over the reference
// packer. Exported (from a test file) for the external test package.
func RefGreedy(inst *Instance) (*Schedule, error) {
	return refSearch(inst, func(cap float64) (*Schedule, bool) {
		sched, _, ok := refPackWithCapacity(inst, cap)
		return sched, ok
	})
}

// refPacker holds the state of one Algorithm 1 run at a fixed capacity.
type refPacker struct {
	inst    *Instance
	cap     float64
	slowest int // phone index whose c-row orders the item list

	items   []item // the sorted list L
	opened  []bool
	order   []int // phone indices in opening order
	height  []float64
	shipped []map[int]bool
	asgs    [][]Assignment
	vetoed  int // placements rejected solely by an availability window

	fitsCalls int // fits evaluations, for the complexity guard
}

// refPackWithCapacity runs Algorithm 1. ok is false when the capacity does
// not admit a packing. fits is the number of fits evaluations made.
func refPackWithCapacity(inst *Instance, cap float64) (sched *Schedule, fits int, ok bool) {
	p := &refPacker{
		inst:    inst,
		cap:     cap,
		slowest: refSlowestPhone(inst),
		opened:  make([]bool, len(inst.Phones)),
		height:  make([]float64, len(inst.Phones)),
		shipped: make([]map[int]bool, len(inst.Phones)),
		asgs:    make([][]Assignment, len(inst.Phones)),
	}
	for j, job := range inst.Jobs {
		p.items = append(p.items, item{job: j, remaining: job.InputKB})
	}
	p.sortItems()

	for len(p.items) > 0 {
		// Find the first item in L that fits any opened bin; pack it into
		// the minimum-height bin that accepts it.
		packed := false
		for idx := range p.items {
			bin := p.bestOpenBin(p.items[idx])
			if bin >= 0 {
				p.pack(bin, idx)
				packed = true
				break
			}
		}
		if packed {
			continue
		}
		// No item fits an open bin: open the best bin for the largest
		// item (line 15 of Algorithm 1).
		bin := p.bestNewBin(p.items[0])
		if bin < 0 {
			return nil, p.fitsCalls, false // no bins left: cannot finish with this C
		}
		p.opened[bin] = true
		p.order = append(p.order, bin)
		if !p.fits(bin, p.items[0]) {
			return nil, p.fitsCalls, false // even a fresh best bin rejects the item
		}
		p.pack(bin, 0)
	}

	sched = &Schedule{PerPhone: p.asgs, Vetoed: p.vetoed}
	sched.Makespan = sched.Evaluate(inst)
	return sched, p.fitsCalls, true
}

// refSlowestPhone picks the phone s whose execution times order the item
// list; with clock-scaled costs this is the slowest-CPU phone for every
// job, and in general the phone with the largest mean c-row.
func refSlowestPhone(inst *Instance) int {
	best, bestMean := 0, -1.0
	for i := range inst.Phones {
		mean := 0.0
		for j := range inst.Jobs {
			mean += inst.C[i][j]
		}
		if mean > bestMean {
			best, bestMean = i, mean
		}
	}
	return best
}

// sortItems orders L by decreasing local execution time on the slowest
// phone, R_j·c_sj, ties broken by job ID for determinism.
func (p *refPacker) sortItems() {
	s := p.slowest
	sort.SliceStable(p.items, func(a, b int) bool {
		ka := p.items[a].remaining * p.inst.C[s][p.items[a].job]
		kb := p.items[b].remaining * p.inst.C[s][p.items[b].job]
		if ka != kb {
			return ka > kb
		}
		return p.inst.Jobs[p.items[a].job].ID < p.inst.Jobs[p.items[b].job].ID
	})
}

// execCost returns the executable shipping cost for job j on phone i,
// zero when already shipped there.
func (p *refPacker) execCost(i, j int) float64 {
	if p.shipped[i] != nil && p.shipped[i][j] {
		return 0
	}
	return p.inst.Jobs[j].ExecKB * p.inst.Phones[i].BMsPerKB
}

// minUnit is the smallest partition this item accepts on phone i.
func (p *refPacker) minUnit(i int, it item) float64 {
	if p.inst.Jobs[it.job].Atomic {
		return it.remaining
	}
	u := math.Min(it.remaining, MinPartitionKB)
	if ram := p.inst.Phones[i].RAMKB; ram > 0 && ram < u {
		u = ram
	}
	return u
}

// binCap is bin i's effective capacity: the search capacity, tightened
// to the phone's predicted availability window when one is set.
func (p *refPacker) binCap(i int) float64 {
	if a := p.inst.Phones[i].AvailMs; a > 0 && a < p.cap {
		return a
	}
	return p.cap
}

// fits reports whether the item can contribute at least its minimum unit
// to bin i without exceeding the capacity (and RAM, for atomic items).
// A rejection the plain capacity would not have issued — the phone's
// availability window alone turned the placement away — is counted as a
// veto.
func (p *refPacker) fits(i int, it item) bool {
	p.fitsCalls++
	job := p.inst.Jobs[it.job]
	if job.Atomic {
		if ram := p.inst.Phones[i].RAMKB; ram > 0 && it.remaining > ram {
			return false
		}
	}
	unit := p.minUnit(i, it)
	need := p.execCost(i, it.job) + unit*(p.inst.Phones[i].BMsPerKB+p.inst.C[i][it.job])
	if p.height[i]+need <= p.binCap(i)*(1+capacityEps) {
		return true
	}
	if p.height[i]+need <= p.cap*(1+capacityEps) {
		p.vetoed++
	}
	return false
}

// bestOpenBin returns the minimum-height opened bin that fits the item,
// or -1. Ties break toward the earliest-opened bin.
func (p *refPacker) bestOpenBin(it item) int {
	best := -1
	for _, i := range p.order {
		if !p.fits(i, it) {
			continue
		}
		if best < 0 || p.height[i] < p.height[best] {
			best = i
		}
	}
	return best
}

// bestNewBin returns the unopened phone minimizing Equation 1 for the
// item's remaining input, among phones that accept at least the item's
// minimum unit, or -1 when none does. The fit filter keeps a phone
// whose availability window is nearly closed from being opened and
// immediately declaring the packing infeasible while roomier phones
// stand unopened.
func (p *refPacker) bestNewBin(it item) int {
	best, bestCost := -1, math.Inf(1)
	for i := range p.inst.Phones {
		if p.opened[i] || !p.fits(i, it) {
			continue
		}
		cost := p.inst.Cost(i, it.job, it.remaining, true)
		if cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}

// pack places item items[idx] into bin i: whole if it fits (preferred, to
// keep server-side aggregation cheap), otherwise its largest partition
// under the capacity and RAM caps. Partially packed items re-enter L with
// their remainder.
func (p *refPacker) pack(i, idx int) {
	it := p.items[idx]
	jobIdx := it.job
	job := p.inst.Jobs[jobIdx]
	phone := p.inst.Phones[i]
	rate := phone.BMsPerKB + p.inst.C[i][jobIdx]
	exec := p.execCost(i, jobIdx)
	avail := p.binCap(i)*(1+capacityEps) - p.height[i] - exec

	ramOK := phone.RAMKB == 0 || it.remaining <= phone.RAMKB
	wholeFits := ramOK && it.remaining*rate <= avail

	var size float64
	switch {
	case job.Atomic:
		size = it.remaining
	case wholeFits:
		size = it.remaining
	default:
		size = avail / rate
		if phone.RAMKB > 0 && size > phone.RAMKB {
			size = phone.RAMKB
		}
		if size > it.remaining {
			size = it.remaining
		}
		if unit := p.minUnit(i, it); size < unit {
			size = unit // fits() guaranteed the unit is admissible
		}
	}

	if p.shipped[i] == nil {
		p.shipped[i] = map[int]bool{}
	}
	p.shipped[i][jobIdx] = true
	p.height[i] += exec + size*rate
	p.asgs[i] = append(p.asgs[i], Assignment{Phone: i, Job: jobIdx, SizeKB: size})

	it.remaining -= size
	if it.remaining <= sizeTolerance {
		p.items = append(p.items[:idx], p.items[idx+1:]...)
	} else {
		p.items[idx] = it
		p.sortItems()
	}
}
