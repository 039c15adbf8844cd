package core

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// MinPartitionKB is the smallest input partition the packer creates, the
// paper's 1 KB unit of input.
const MinPartitionKB = 1.0

// capacityEps absorbs floating-point noise in capacity comparisons.
const capacityEps = 1e-9

// relTolerance stops the capacity binary search once the bracket is
// within this relative width.
const relTolerance = 1e-4

// Greedy schedules the instance with CWC's algorithm: the complementary
// bin-packing greedy (Algorithm 1) inside a binary search over bin
// capacity. It returns ErrInfeasible when no packing exists even at the
// trivial upper-bound capacity (e.g. an atomic job larger than every
// phone's RAM).
func Greedy(inst *Instance) (*Schedule, error) {
	return GreedyOpt(inst, GreedyOptions{})
}

// GreedyOptions tune the scheduler; the zero value reproduces the paper.
type GreedyOptions struct {
	// FixedCapacity skips the binary search and packs at the given
	// capacity directly (an ablation). Zero means search.
	FixedCapacity float64
}

// GreedyOpt is Greedy with options.
func GreedyOpt(inst *Instance, opt GreedyOptions) (*Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	p := newPacker(inst)
	defer p.release()
	if opt.FixedCapacity > 0 {
		sched, ok := p.packWithCapacity(opt.FixedCapacity)
		if !ok {
			return nil, ErrInfeasible
		}
		return sched, nil
	}

	ub := UpperBoundCapacity(inst)
	lb := LowerBoundMakespan(inst)
	if lb > ub {
		lb = 0
	}

	if !p.run(ub) {
		return nil, ErrInfeasible
	}
	hi := p.keep()
	lo := lb
	for hi-lo > relTolerance*hi+0.5 {
		c := (lo + hi) / 2
		if p.run(c) {
			hi = math.Min(c, p.keep())
		} else {
			lo = c
		}
	}
	return p.schedule(), nil
}

// UpperBoundCapacity is the paper's trivial upper bound: every item packed
// into the single worst bin (the phone maximizing Equation 1 over the
// whole workload).
func UpperBoundCapacity(inst *Instance) float64 {
	worst := 0.0
	for i := range inst.Phones {
		total := 0.0
		for j := range inst.Jobs {
			total += inst.Cost(i, j, inst.Jobs[j].InputKB, true)
		}
		if total > worst {
			worst = total
		}
	}
	return worst
}

// LowerBoundMakespan is the paper's "magical bin" seed for the binary
// search: a valid lower bound combining (a) the aggregate-bandwidth
// transfer bound — in time T the fleet ships at most T·Σ(1/b_i) KB — and
// (b) a per-job aggregate processing bound — phone i processes at most
// T/(b_i+c_ij) KB of job j in time T, executables free.
func LowerBoundMakespan(inst *Instance) float64 {
	aggBW := 0.0
	for _, p := range inst.Phones {
		aggBW += 1 / p.BMsPerKB
	}
	totalKB := 0.0
	bound := 0.0
	for j, job := range inst.Jobs {
		totalKB += job.InputKB
		rate := 0.0
		for i := range inst.Phones {
			rate += 1 / (inst.Phones[i].BMsPerKB + inst.C[i][j])
		}
		if jb := job.InputKB / rate; jb > bound {
			bound = jb
		}
	}
	if tb := totalKB / aggBW; tb > bound {
		bound = tb
	}
	return bound
}

// item is a job with input remaining to pack (the paper's R_j). An item
// packed in full stays in L, done, holding the key it had, so L stays
// sorted without shifting its tail.
type item struct {
	job       int
	remaining float64
	done      bool
}

// packers recycles packer scratch across searches: a master plans a
// round of the same shape again and again.
var packers = sync.Pool{New: func() any { return new(packer) }}

// packer runs Algorithm 1 on one instance. What depends on the instance
// alone is computed once, by newPacker; everything else is scratch that
// run resets, so a capacity search allocates nothing but its answer.
type packer struct {
	inst    *Instance
	slowest int    // phone index whose c-row orders the item list
	sorted  []item // L before any placement: every job whole

	cap     float64
	items   []item // the sorted list L
	live    int    // items of L not yet done
	opened  []bool
	order   []int // phone indices in opening order
	height  []float64
	shipped []bool // phone i has job j's executable: shipped[i*len(Jobs)+j]
	asgs    [][]Assignment
	vetoed  int // placements rejected solely by an availability window

	// seen[j] counts the leading bins of order known to reject item j as
	// it stands. While j waits in L nothing its fit depends on changes
	// except bin heights, and those only grow, so a rejection holds until
	// j itself is packed; a partial placement resets the count.
	seen []int

	// best is the packing keep took last, with its makespan and vetoes;
	// its lists and asgs trade places on every keep.
	best         [][]Assignment
	bestMakespan float64
	bestVetoed   int
	row          []bool // a cleared per-job row for span

	fitsCalls int // fits evaluations since newPacker, for the complexity guard
}

// newPacker takes a packer from the pool and loads the (valid) instance
// into it.
func newPacker(inst *Instance) *packer {
	phones, jobs := len(inst.Phones), len(inst.Jobs)
	p := packers.Get().(*packer)
	p.inst, p.slowest, p.fitsCalls = inst, slowestPhone(inst), 0
	p.sorted = resize(p.sorted, jobs)
	for j := range inst.Jobs {
		p.sorted[j] = item{job: j, remaining: inst.Jobs[j].InputKB}
	}
	slices.SortFunc(p.sorted, func(a, b item) int {
		switch {
		case p.before(a, b):
			return -1
		case p.before(b, a):
			return 1
		}
		return 0
	})
	p.opened, p.height = resize(p.opened, phones), resize(p.height, phones)
	p.shipped = resize(p.shipped, phones*jobs)
	p.seen, p.row = resize(p.seen, jobs), resize(p.row, jobs)
	clear(p.row)
	// Rows past the old length come back as the lists an earlier, wider
	// instance grew, ready for reuse.
	p.asgs, p.best = resize(p.asgs, phones), resize(p.best, phones)
	return p
}

// release returns the packer to the pool, dropping its hold on the
// instance.
func (p *packer) release() {
	p.inst = nil
	packers.Put(p)
}

// resize returns s with length n, reusing its backing array when it is
// large enough; the elements' contents are unspecified.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// packWithCapacity runs Algorithm 1 at one capacity and copies the packing
// out. ok is false when the capacity does not admit a packing.
func (p *packer) packWithCapacity(cap float64) (*Schedule, bool) {
	if !p.run(cap) {
		return nil, false
	}
	p.keep()
	return p.schedule(), true
}

// run packs every item at the capacity into the live lists. It reports
// whether the capacity admits a packing.
func (p *packer) run(cap float64) bool {
	p.cap = cap
	p.items = append(p.items[:0], p.sorted...)
	p.live = len(p.items)
	p.order = p.order[:0]
	p.vetoed = 0
	clear(p.opened)
	clear(p.height)
	clear(p.shipped)
	clear(p.seen)
	for i := range p.asgs {
		p.asgs[i] = p.asgs[i][:0]
	}

	// Every item before head is done; every item before next is done or
	// rejected by every open bin.
	head, next := 0, 0
	for p.live > 0 {
		// Find the first item in L that fits any opened bin; pack it into
		// the minimum-height bin that accepts it.
		bin := -1
		for ; next < len(p.items); next++ {
			it := p.items[next]
			if it.done {
				continue
			}
			// bestOpenBin, with its two commonest cases answered here: a
			// scan after a bin opens mostly meets items that know every bin
			// but the newest, and skipping the call is measurably faster.
			switch s := p.seen[it.job]; s {
			case len(p.order):
				continue // every open bin rejects it
			case len(p.order) - 1:
				// The newest bin alone is unknown: it is the minimum-height
				// fit if it fits at all.
				if i := p.order[s]; p.fits(i, it) {
					bin = i
				} else {
					p.seen[it.job] = len(p.order)
				}
			default:
				bin = p.bestOpenBin(it)
			}
			if bin >= 0 {
				break
			}
		}
		if bin >= 0 {
			p.pack(bin, next) // a remainder re-enters L at or after next
			continue
		}
		// No item fits an open bin: open the best bin for the largest
		// item (line 15 of Algorithm 1).
		for p.items[head].done {
			head++
		}
		bin = p.bestNewBin(p.items[head])
		if bin < 0 {
			return false // no bins left: cannot finish with this C
		}
		p.opened[bin] = true
		p.order = append(p.order, bin)
		p.pack(bin, head)
		next = head
	}
	return true
}

// keep takes the packing run just finished as the best so far and returns
// its makespan, as Schedule.Evaluate computes it.
func (p *packer) keep() float64 {
	p.asgs, p.best = p.best, p.asgs
	p.bestVetoed = p.vetoed
	p.bestMakespan = 0
	for _, asgs := range p.best {
		if sp := span(p.inst, asgs, p.row); sp > p.bestMakespan {
			p.bestMakespan = sp
		}
	}
	return p.bestMakespan
}

// schedule copies the kept packing out of the scratch, every list on one
// backing array. Phones left without work keep a nil list.
func (p *packer) schedule() *Schedule {
	n := 0
	for _, asgs := range p.best {
		n += len(asgs)
	}
	flat := make([]Assignment, 0, n)
	sched := &Schedule{PerPhone: make([][]Assignment, len(p.best)), Makespan: p.bestMakespan, Vetoed: p.bestVetoed}
	for i, asgs := range p.best {
		if len(asgs) > 0 {
			start := len(flat)
			flat = append(flat, asgs...)
			sched.PerPhone[i] = flat[start:len(flat):len(flat)]
		}
	}
	return sched
}

// slowestPhone picks the phone s whose execution times order the item
// list; with clock-scaled costs this is the slowest-CPU phone for every
// job, and in general the phone with the largest mean c-row.
func slowestPhone(inst *Instance) int {
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

// before is L's order: decreasing local execution time on the slowest
// phone, R_j·c_sj, ties broken by job ID. Job IDs are unique, so the
// order is total and L has exactly one sorted arrangement.
func (p *packer) before(a, b item) bool {
	ka := a.remaining * p.inst.C[p.slowest][a.job]
	kb := b.remaining * p.inst.C[p.slowest][b.job]
	if ka != kb {
		return ka > kb
	}
	return p.inst.Jobs[a.job].ID < p.inst.Jobs[b.job].ID
}

// execCost returns the executable shipping cost for job j on phone i,
// zero when already shipped there.
func (p *packer) execCost(i, j int) float64 {
	if p.shipped[i*len(p.inst.Jobs)+j] {
		return 0
	}
	return p.inst.Jobs[j].ExecKB * p.inst.Phones[i].BMsPerKB
}

// minUnit is the smallest partition this item accepts on phone i.
func (p *packer) minUnit(i int, it item) float64 {
	if p.inst.Jobs[it.job].Atomic {
		return it.remaining
	}
	u := min(it.remaining, MinPartitionKB)
	if ram := p.inst.Phones[i].RAMKB; ram > 0 && ram < u {
		u = ram
	}
	return u
}

// binCap is bin i's effective capacity: the search capacity, tightened
// to the phone's predicted availability window when one is set.
func (p *packer) binCap(i int) float64 {
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
func (p *packer) fits(i int, it item) bool {
	p.fitsCalls++
	if p.inst.Jobs[it.job].Atomic {
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
// or -1. Ties break toward the earliest-opened bin. Bins the item is
// known to be rejected by are not asked again.
func (p *packer) bestOpenBin(it item) int {
	best := -1
	for _, i := range p.order[p.seen[it.job]:] {
		if !p.fits(i, it) {
			continue
		}
		if best < 0 || p.height[i] < p.height[best] {
			best = i
		}
	}
	if best < 0 {
		p.seen[it.job] = len(p.order)
	}
	return best
}

// bestNewBin returns the unopened phone minimizing Equation 1 for the
// item's remaining input, among phones that accept at least the item's
// minimum unit, or -1 when none does. The fit filter keeps a phone
// whose availability window is nearly closed from being opened and
// immediately declaring the packing infeasible while roomier phones
// stand unopened.
func (p *packer) bestNewBin(it item) int {
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
func (p *packer) pack(i, idx int) {
	it := p.items[idx]
	jobIdx := it.job
	ram := p.inst.Phones[i].RAMKB
	rate := p.inst.Phones[i].BMsPerKB + p.inst.C[i][jobIdx]
	exec := p.execCost(i, jobIdx)
	avail := p.binCap(i)*(1+capacityEps) - p.height[i] - exec

	ramOK := ram == 0 || it.remaining <= ram
	wholeFits := ramOK && it.remaining*rate <= avail

	var size float64
	switch {
	case p.inst.Jobs[jobIdx].Atomic:
		size = it.remaining
	case wholeFits:
		size = it.remaining
	default:
		size = avail / rate
		if ram > 0 && size > ram {
			size = ram
		}
		if size > it.remaining {
			size = it.remaining
		}
		if unit := p.minUnit(i, it); size < unit {
			size = unit // fits() guaranteed the unit is admissible
		}
	}

	p.shipped[i*len(p.inst.Jobs)+jobIdx] = true
	p.height[i] += exec + size*rate
	p.asgs[i] = append(p.asgs[i], Assignment{Phone: i, Job: jobIdx, SizeKB: size})

	it.remaining -= size
	if it.remaining <= sizeTolerance {
		p.items[idx].done = true // L keeps its key
		p.live--
		return
	}
	// The item's key shrank and nothing else moved: slide it back to its
	// place among the items that followed it.
	p.seen[jobIdx] = 0
	rest := p.items[idx+1:]
	n := sort.Search(len(rest), func(k int) bool { return p.before(it, rest[k]) })
	copy(p.items[idx:], rest[:n])
	p.items[idx+n] = it
}
