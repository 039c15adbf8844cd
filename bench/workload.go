package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"cwc/internal/core"
	"cwc/internal/device"
	"cwc/internal/expt"
	"cwc/internal/tasks"
	"cwc/internal/wal"
)

// fleetSeed fixes the links and CPUs of every fleet. They are part of a
// workload's definition, not of its seed: --seed drives job sizes and
// contents only, so runs on different seeds measure the same deployment
// and their spread is the program's, not the draw's.
const fleetSeed = 2012

// maxBatchMB is the largest batch the benchmark will submit. A round
// record re-copies every pending input, base64, into one WAL record capped
// at wal.MaxRecordBytes (64 MiB); above ~45 MB of input the master fails the
// round with "record too large". The benchmark refuses instead.
const maxBatchMB = 32

// phoneSpec is one emulated phone: its catalog personality, its link and
// its emulated per-KB execution delay.
type phoneSpec struct {
	dev   device.Phone
	kbps  float64
	delay time.Duration
}

// job is one submission with its locally computed reference result.
type job struct {
	task   tasks.Task
	input  []byte
	atomic bool
	want   []byte
}

type batch struct {
	jobs       []job
	inputBytes int64
	// lpBoundMs is the batch's LP lower bound on the true instance.
	lpBoundMs float64
}

// unplug is a progress-triggered online failure: phone (fleet index) pulls
// its charger once it has received frac of its fair share of the batch.
type unplug struct {
	phone int
	frac  float64
}

// spec defines a workload.
type spec struct {
	name string
	why  string
	// fleet returns the emulated phones.
	fleet func() []phoneSpec
	// gen draws one batch's jobs (inputs only) from rng at the given scale.
	gen func(rng *rand.Rand, scale float64) ([]job, error)
	// pool is how many distinct batches are generated; episodes cycle them.
	pool int
	// batches is how many batches one episode (one deployment) runs.
	batches int
	sync    wal.SyncPolicy
	// standby attaches a live replica.Standby through a replica.Shipper.
	standby bool
	unplugs []unplug
	probeKB int
	// scale shrinks the inputs for the smoke test (0: full size).
	scale float64
}

// paperFleet is the paper's 18-phone testbed: link rate 1000/b_i KB/s with
// b_i from the paper's 1–70 ms/KB range, times linkMul; emulated execution
// delay delayMs × 1000/EffectiveMHz per KB. n phones cycle the testbed.
func paperFleet(n int, linkMul, delayMs float64) []phoneSpec {
	tb, err := expt.NewTestbed(rand.New(rand.NewSource(fleetSeed)))
	if err != nil {
		panic(fmt.Sprintf("bench: testbed: %v", err)) // the radio table is static
	}
	fleet := make([]phoneSpec, n)
	for i := range fleet {
		k := i % len(tb.Phones)
		ph := tb.Phones[k]
		ph.ID = i
		fleet[i] = phoneSpec{
			dev:   ph,
			kbps:  linkMul * 1000 / tb.BMsPerKB[k],
			delay: time.Duration(delayMs * 1000 / ph.Spec.CPU.EffectiveMHz() * float64(time.Millisecond)),
		}
	}
	return fleet
}

// flatFleet is n identical-link phones with no execution delay.
func flatFleet(n int, kbps float64) []phoneSpec {
	cat := device.Catalog()
	fleet := make([]phoneSpec, n)
	for i := range fleet {
		fleet[i] = phoneSpec{
			dev:  device.Phone{ID: i, Spec: cat[i%len(cat)], House: 1, Radio: device.WiFiA},
			kbps: kbps,
		}
	}
	return fleet
}

// normalize rescales sizes so they sum to exactly total: every seed then
// submits the same number of bytes per task class, and only the split
// between jobs (and the contents) differs.
func normalize(sizes []float64, total float64) {
	sum := 0.0
	for _, s := range sizes {
		sum += s
	}
	for i := range sizes {
		sizes[i] *= total / sum
	}
}

// genPaperMix is expt.PaperWorkload with real inputs: 50 primecount and 50
// wordcount (breakable), 50 blur (atomic). paperScale stretches the
// paper's sizes; scale is the smoke-test shrink on top.
func genPaperMix(paperScale float64) func(*rand.Rand, float64) ([]job, error) {
	return func(rng *rand.Rand, scale float64) ([]job, error) {
		cj := expt.PaperWorkload(rng, paperScale*scale)
		// Class means of PaperWorkload's uniform draws, in KB.
		means := map[string]float64{"primecount": 1750, "wordcount": 3500, "blur": 650}
		byTask := map[string][]int{}
		for i, j := range cj {
			byTask[j.Task] = append(byTask[j.Task], i)
		}
		for task, idx := range byTask {
			sizes := make([]float64, len(idx))
			for k, i := range idx {
				sizes[k] = cj[i].InputKB
			}
			normalize(sizes, means[task]*paperScale*scale*float64(len(idx)))
			for k, i := range idx {
				cj[i].InputKB = sizes[k]
			}
		}
		jobs := make([]job, len(cj))
		for i, j := range cj {
			switch j.Task {
			case "primecount":
				jobs[i] = job{task: tasks.PrimeCount{}, input: tasks.GenIntegers(j.InputKB, 100000, rng)}
			case "wordcount":
				jobs[i] = job{task: tasks.WordCount{Word: "inventory"}, input: tasks.GenText(j.InputKB, rng)}
			case "blur":
				img, err := tasks.GenImageKB(j.InputKB, rng)
				if err != nil {
					return nil, err
				}
				jobs[i] = job{task: tasks.Blur{}, input: img, atomic: true}
			}
		}
		return jobs, nil
	}
}

// genUniform draws n breakable jobs of one task with sizes U[lo, hi] KB,
// normalized to n × the mean. The smoke-test scale cuts the count, not the
// sizes.
func genUniform(n int, lo, hi float64, mk func(kb float64, rng *rand.Rand) job) func(*rand.Rand, float64) ([]job, error) {
	return func(rng *rand.Rand, scale float64) ([]job, error) {
		count := max(2, int(float64(n)*scale))
		sizes := make([]float64, count)
		for i := range sizes {
			sizes[i] = lo + rng.Float64()*(hi-lo)
		}
		normalize(sizes, (lo+hi)/2*float64(count))
		jobs := make([]job, count)
		for i, kb := range sizes {
			jobs[i] = mk(kb, rng)
		}
		return jobs, nil
	}
}

var workloads = []spec{
	{
		name:    "paper-mix",
		why:     "the paper's experiment: 18 heterogeneous links and CPUs, 50 primecount + 50 wordcount breakable beside 50 blur atomic; packing, cost model and wire bytes all on the critical path",
		fleet:   func() []phoneSpec { return paperFleet(18, 1, 2) },
		gen:     genPaperMix(1.0 / 64),
		pool:    2,
		batches: 2,
		sync:    wal.SyncInterval,
		probeKB: 16,
	},
	{
		name:  "bulk-bytes",
		why:   "6 equal 4 MB/s links, cheapest kernel, megabyte jobs: the scheduler has nothing to decide, so frame codec, base64, chunking and the WAL's input copies do all the work",
		fleet: func() []phoneSpec { return flatFleet(6, 4096) },
		gen: genUniform(6, 512, 1536, func(kb float64, rng *rand.Rand) job {
			return job{task: tasks.MaxInt{}, input: tasks.GenIntegers(kb, 1<<40, rng)}
		}),
		pool:    4,
		batches: 8,
		sync:    wal.SyncInterval,
		probeKB: 64,
	},
	{
		name:  "wide-fleet",
		why:   "128 phones and 512 four-KB jobs a round: 65k cost-matrix cells, per-frame and per-record fixed costs and the single planner dominate; payload size is irrelevant",
		fleet: func() []phoneSpec { return paperFleet(128, 2, 1) },
		gen: genUniform(512, 2, 6, func(kb float64, rng *rand.Rand) job {
			return job{task: tasks.WordCount{Word: "inventory"}, input: tasks.GenText(kb, rng)}
		}),
		pool:    4,
		batches: 12,
		sync:    wal.SyncInterval,
		probeKB: 16,
	},
	{
		name:    "unplug-durable",
		why:     "paper Fig 12c on the durable configuration: fsync-per-record WAL, live standby, checkpoint streaming, three phones unplug mid-batch and their work is rescheduled",
		fleet:   func() []phoneSpec { return paperFleet(18, 1, 2) },
		gen:     genPaperMix(1.0 / 40),
		pool:    1,
		batches: 1,
		sync:    wal.SyncAlways,
		standby: true,
		unplugs: []unplug{{1, 0.2}, {7, 0.3}, {11, 0.4}},
		probeKB: 16,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs is everything a run feeds the program: generated from the seed
// before any clock starts.
type inputs struct {
	pool   []batch
	sha256 string
}

// generate draws the workload's batch pool from seed and computes every
// job's reference result by running Process locally on the whole input.
func generate(s spec, seed int64) (*inputs, error) {
	scale := s.scale
	if scale == 0 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	in := &inputs{}
	for b := 0; b < s.pool; b++ {
		jobs, err := s.gen(rng, scale)
		if err != nil {
			return nil, fmt.Errorf("generating %s batch %d: %w", s.name, b, err)
		}
		bt := batch{jobs: jobs}
		for i := range jobs {
			bt.inputBytes += int64(len(jobs[i].input))
		}
		if mb := float64(bt.inputBytes) / (1 << 20); mb > maxBatchMB {
			return nil, fmt.Errorf("%s batch %d is %.1f MB: over the %d MB the round record can carry", s.name, b, mb, maxBatchMB)
		}
		for i := range jobs {
			j := &jobs[i]
			want, err := j.task.Process(context.Background(), j.input, &tasks.Checkpoint{})
			if err != nil {
				return nil, fmt.Errorf("reference for %s job %d: %w", j.task.Name(), i, err)
			}
			j.want = want
			h.Write(j.input)
		}
		if bt.lpBoundMs, err = lpBoundMs(s.fleet(), bt.inputBytes); err != nil {
			return nil, fmt.Errorf("lp bound of %s batch %d: %w", s.name, b, err)
		}
		in.pool = append(in.pool, bt)
	}
	in.sha256 = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

// lpBoundMs is the LP-relaxation lower bound (paper Fig 13) of one batch
// on the true instance: configured link rates on raw bytes, c_ij the
// configured execution delay, nothing shipped but the input. Kernel
// compute time is left out so the bound depends on the workload alone,
// not on this host; it stays a lower bound. On the true instance every
// job costs a phone the same per KB, so the relaxation is solved over one
// merged job.
func lpBoundMs(fleet []phoneSpec, inputBytes int64) (float64, error) {
	inst := &core.Instance{
		Jobs: []core.Job{{ID: 0, Task: "batch", InputKB: float64(inputBytes) / 1024}},
	}
	for i, ph := range fleet {
		inst.Phones = append(inst.Phones, core.Phone{ID: i, BMsPerKB: 1000 / ph.kbps})
		c := float64(ph.delay) / float64(time.Millisecond)
		if c <= 0 {
			c = 1e-9 // Validate wants c_ij > 0
		}
		inst.C = append(inst.C, []float64{c})
	}
	return core.RelaxedLowerBound(inst)
}

// fairShareKB is phone i's LP share of a batch: what it would receive if
// every phone finished together.
func fairShareKB(fleet []phoneSpec, i int, inputBytes int64) float64 {
	weight := func(ph phoneSpec) float64 {
		return 1 / (1000/ph.kbps + float64(ph.delay)/float64(time.Millisecond))
	}
	sum := 0.0
	for _, ph := range fleet {
		sum += weight(ph)
	}
	return float64(inputBytes) / 1024 * weight(fleet[i]) / sum
}
