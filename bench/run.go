package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cwc/internal/server"
	"cwc/internal/stats"
	"cwc/internal/wal"
)

// recoverReps is how many times a traced episode's finished log is
// recovered (on clones) for the recovery layer's timings. An untraced
// episode recovers once, for the correctness check alone.
const recoverReps = 3

// maxRoundsPerBatch bounds the closed loop: a batch that is not done after
// this many rounds counts its unfinished jobs as failed.
const maxRoundsPerBatch = 12

// episode is what one deployment's life measured: set-up, its batches in a
// closed loop with one submitter, shutdown, and recovery of the finished log.
type episode struct {
	traced bool

	setup, measure time.Duration
	probeErr       []float64

	batches    []batchRun
	inputBytes int64 // Σ over batches
	walBytes   int64 // the finished log
	recover    []time.Duration
	// recoverOpen and recoverWAL are the wal.Open and RecoverWAL shares of
	// each recover sample.
	recoverOpen []time.Duration
	recoverWAL  []time.Duration
	// Traced episodes also time a compaction of the recovered master and
	// an independent WALFold over the same records.
	compactWAL  time.Duration
	foldRecPerS float64

	jobs, failed int
	// lateness is, per batch after the first, the gap between the previous
	// batch's last Result and this batch's first Submit: the generator's.
	lateness   []time.Duration
	stragglers int
	unplugged  int

	submitAck     []time.Duration
	roundPlan     []time.Duration
	roundDispatch []time.Duration
	rounds        int
	requeued      int
	assigns       int
	idleFrac      []float64
	predErr       []float64
	lag           []float64
	execMs        float64
	transferKB    float64
	ckptFrames    int
	telemetry     int64
}

// batchRun is one batch through the closed loop, measured from its first
// Submit to its last Result. The byte and allocation counts are deltas
// over that window.
type batchRun struct {
	makespan   time.Duration
	sumWall    time.Duration // Σ RoundReport.Wall
	sumPredMs  float64       // Σ RoundReport.PredictedMakespanMs
	lpBoundMs  float64
	inputBytes int64
	wireBytes  int64
	walBytes   int64
	allocBytes uint64
}

// runEpisode deploys s in dir, runs its batches starting at pool index
// *next, tears down, and recovers the log. rec is nil on untraced episodes.
func runEpisode(ctx context.Context, s spec, in *inputs, idx int, dir string, rec *recorder, next *int) (*episode, error) {
	ep := &episode{traced: rec != nil}
	setupStart := time.Now()
	d, err := deploy(ctx, s, dir, ep.traced)
	if err != nil {
		return nil, fmt.Errorf("deploying %s: %w", s.name, err)
	}
	closed := false
	defer func() {
		if !closed {
			d.close()
		}
	}()
	ep.setup, ep.measure, ep.probeErr = d.setup, d.measure, d.probeErr
	setupID := rec.add(span{Name: "setup", Episode: idx, Start: setupStart, End: setupStart.Add(d.setup)})
	rec.add(span{Name: "measure_bandwidths", Parent: setupID, Episode: idx,
		Start: setupStart.Add(d.setup - d.measure), End: setupStart.Add(d.setup)})

	stopLag := func() {}
	if ep.traced && d.shipper != nil {
		stopLag = sampleLag(d, &ep.lag)
	}

	type submitted struct {
		id  int
		job *job
	}
	var all []submitted
	failed := map[int]bool{} // job IDs with no, a failed, or a wrong result — live or recovered
	var lastDone time.Time
	for b := 0; b < s.batches; b++ {
		bt := &in.pool[*next%len(in.pool)]
		*next++
		if !lastDone.IsZero() {
			ep.lateness = append(ep.lateness, time.Since(lastDone))
		}
		ids, err := runBatch(ctx, s, d, bt, ep, rec, idx, b)
		if err != nil {
			return nil, err
		}
		lastDone = time.Now()
		// Verification sits outside every metric but the generator's lateness.
		for i := range bt.jobs {
			got, ok := d.master.Result(ids[i])
			if _, bad := d.master.JobFailure(ids[i]); !ok || bad || !bytes.Equal(got, bt.jobs[i].want) {
				failed[ids[i]] = true
			}
			all = append(all, submitted{ids[i], &bt.jobs[i]})
		}
		ep.jobs += len(bt.jobs)
		ep.inputBytes += bt.inputBytes
	}
	ep.walBytes = d.log.LogBytes()
	stopLag()

	for _, w := range d.workers {
		st := w.Stats()
		ep.execMs += st.ExecMs
		ep.transferKB += st.TransferKB
		ep.ckptFrames += st.CkptFrames
	}
	ep.telemetry = d.reg.Counter("cwc_frames_received_total", "type", "telemetry").Value()
	d.close()
	closed = true

	// Recovery: the read side of the WAL, and the check that a master
	// rebuilt from the log alone holds every result the live one returned.
	reps := 1
	if ep.traced {
		reps = recoverReps
	}
	for r := 0; r < reps; r++ {
		clone := filepath.Join(dir, fmt.Sprintf("recover-%d", r))
		if err := cloneDir(d.walDir, clone); err != nil {
			return nil, err
		}
		runtime.GC() // every sample starts from a collected heap, not from the episode's garbage
		start := time.Now()
		log, err := wal.Open(clone, walOptions(s.sync, nil))
		if err != nil {
			return nil, fmt.Errorf("reopening log: %w", err)
		}
		opened := time.Now()
		m := server.New(server.Config{WAL: log})
		walStart := time.Now()
		err = m.RecoverWAL()
		end := time.Now()
		if err != nil {
			log.Close()
			return nil, fmt.Errorf("recovering log: %w", err)
		}
		ep.recover = append(ep.recover, end.Sub(start))
		ep.recoverOpen = append(ep.recoverOpen, opened.Sub(start))
		ep.recoverWAL = append(ep.recoverWAL, end.Sub(walStart))
		rec.add(span{Name: "recover", Episode: idx, Start: start, End: end})
		if r == 0 {
			for _, sj := range all {
				if got, ok := m.Result(sj.id); !ok || !bytes.Equal(got, sj.job.want) {
					failed[sj.id] = true
				}
			}
			if ep.traced {
				if err := traceRecovery(m, log, ep); err != nil {
					log.Close()
					return nil, err
				}
			}
		}
		log.Close()
		if err := os.RemoveAll(clone); err != nil {
			return nil, err
		}
	}
	ep.failed = len(failed)
	return ep, nil
}

// traceRecovery times the two other readers of a finished log: a
// compaction of the recovered master, and server.WALFold (the standby's
// reducer) applied to the same records.
func traceRecovery(m *server.Master, log *wal.Log, ep *episode) error {
	t0 := time.Now()
	if err := m.CompactWAL(); err != nil {
		return fmt.Errorf("compacting recovered log: %w", err)
	}
	ep.compactWAL = time.Since(t0)
	fold := server.NewWALFold()
	recs := log.Recovered()
	t0 = time.Now()
	for i, r := range recs {
		if err := fold.Apply(r); err != nil {
			return fmt.Errorf("folding record %d: %w", i, err)
		}
	}
	ep.foldRecPerS = float64(len(recs)) / time.Since(t0).Seconds()
	return nil
}

// runBatch submits every job of bt, then runs rounds until each has a
// result (or the round budget is spent). It returns the job IDs.
func runBatch(ctx context.Context, s spec, d *deployment, bt *batch, ep *episode, rec *recorder, idx, b int) ([]int, error) {
	m := d.master
	stopUnplug := func() {}
	if len(s.unplugs) > 0 {
		stopUnplug = armUnplugs(s, d, bt, ep, rec, idx, b)
	}
	defer stopUnplug()

	run := batchRun{lpBoundMs: bt.lpBoundMs, inputBytes: bt.inputBytes}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, wire0, wal0 := ms.TotalAlloc, d.wireBytes(), d.log.LogBytes()
	ids := make([]int, len(bt.jobs))
	start := time.Now()
	for i := range bt.jobs {
		j := &bt.jobs[i]
		t0 := time.Now()
		id, err := m.Submit(j.task, j.input, j.atomic)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("submit: %w", err)
		}
		ids[i] = id
		if ep.traced {
			ep.submitAck = append(ep.submitAck, t1.Sub(t0))
			rec.add(span{Name: "submit", Episode: idx, Batch: b, Job: id, Start: t0, End: t1})
		}
	}
	open := len(ids)
	done := make([]bool, len(ids))
	for round := 0; open > 0 && round < maxRoundsPerBatch; round++ {
		t0 := time.Now()
		rep, err := m.RunRound(ctx)
		t1 := time.Now()
		if errors.Is(err, server.ErrNothingToDo) {
			break // nothing queued yet jobs are open: they count as failed
		}
		if err != nil {
			return nil, fmt.Errorf("round: %w", err)
		}
		ep.rounds++
		run.sumWall += rep.Wall
		run.sumPredMs += rep.PredictedMakespanMs
		ep.requeued += rep.Requeued
		ep.stragglers += len(rep.Stragglers)
		if ep.traced {
			traceRound(m, rep, t0, t1, ep, rec, idx, b)
		}
		for i, id := range ids {
			if done[i] {
				continue
			}
			_, ok := m.Result(id)
			if _, failed := m.JobFailure(id); ok || failed {
				done[i] = true
				open--
			}
		}
	}
	run.makespan = time.Since(start)
	runtime.ReadMemStats(&ms)
	run.allocBytes = ms.TotalAlloc - alloc0
	run.wireBytes = d.wireBytes() - wire0
	run.walBytes = d.log.LogBytes() - wal0
	ep.batches = append(ep.batches, run)
	return ids, nil
}

// traceRound derives the per-round layer numbers and spans from a round's
// report: plan is RunRound's time before the first dispatch, dispatch the
// report's own wall time, one partition span per assign→result pair.
func traceRound(m *server.Master, rep *server.RoundReport, t0, t1 time.Time, ep *episode, rec *recorder, idx, b int) {
	plan := t1.Sub(t0) - rep.Wall
	ep.roundPlan = append(ep.roundPlan, plan)
	ep.roundDispatch = append(ep.roundDispatch, rep.Wall)
	roundID := rec.add(span{Name: "run_round", Episode: idx, Batch: b, Start: t0, End: t1})
	dispatchStart := t0.Add(plan)
	rec.add(span{Name: "round.plan", Parent: roundID, Episode: idx, Batch: b, Start: t0, End: dispatchStart})
	dispatchID := rec.add(span{Name: "round.dispatch", Parent: roundID, Episode: idx, Batch: b, Start: dispatchStart, End: t1})

	type key struct{ phone, job, part int }
	assigned := map[key]time.Duration{}
	busy := map[int]time.Duration{}
	for _, e := range rep.Events {
		k := key{e.PhoneID, e.JobID, e.Partition}
		switch e.Kind {
		case "assign":
			assigned[k] = e.At
			ep.assigns++
		case "result", "failure":
			at, ok := assigned[k]
			if !ok {
				continue
			}
			busy[e.PhoneID] += e.At - at
			rec.add(span{Name: "partition", Parent: dispatchID, Episode: idx, Batch: b,
				Phone: e.PhoneID, Job: e.JobID, Start: dispatchStart.Add(at), End: dispatchStart.Add(e.At)})
		}
	}
	if n := len(m.Phones()); n > 0 && rep.Wall > 0 {
		var sum time.Duration
		for _, d := range busy {
			sum += d
		}
		ep.idleFrac = append(ep.idleFrac, 1-float64(sum)/(float64(n)*float64(rep.Wall)))
	}
	if snap := m.LastSched(); snap != nil {
		for _, ph := range snap.Phones {
			for _, a := range ph.Assignments {
				if a.ActualMs > 0 {
					ep.predErr = append(ep.predErr, math.Abs(a.ActualMs-a.PredictedMs)/a.ActualMs)
				}
			}
		}
	}
}

// armUnplugs starts the watcher that pulls each planned phone's charger
// once the phone has received its fraction of its fair share of the batch.
// Progress triggers, not wall offsets: an offset lands in a different
// partition on every run and the makespan follows it.
func armUnplugs(s spec, d *deployment, bt *batch, ep *episode, rec *recorder, idx, b int) (stop func()) {
	type trigger struct {
		phone int
		atKB  float64
	}
	var pending []trigger
	for _, u := range s.unplugs {
		if u.phone < len(d.workers) {
			base := d.workers[u.phone].Stats().TransferKB
			pending = append(pending, trigger{u.phone, base + u.frac*fairShareKB(d.fleet, u.phone, bt.inputBytes)})
		}
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for len(pending) > 0 {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			kept := pending[:0]
			for _, t := range pending {
				if d.workers[t.phone].Stats().TransferKB < t.atKB {
					kept = append(kept, t)
					continue
				}
				t0 := time.Now()
				d.workers[t.phone].Unplug()
				rec.add(span{Name: "unplug", Episode: idx, Batch: b, Phone: t.phone, Start: t0, End: time.Now()})
				ep.unplugged++ // read only after stop()
			}
			pending = kept
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
	}
}

// sampleLag samples the shipper's backlog every 50 ms until stopped.
func sampleLag(d *deployment, out *[]float64) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				*out = append(*out, float64(d.shipper.Lag()))
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
	}
}

// quantile is the q-quantile of vals by linear interpolation between
// closest ranks; 0 for no samples (a layer that had nothing to measure).
func quantile(vals []float64, q float64) float64 {
	v, err := stats.Percentile(vals, 100*q)
	if err != nil {
		return 0
	}
	return v
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
