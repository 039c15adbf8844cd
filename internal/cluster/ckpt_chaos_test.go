package cluster

// The checkpoint-streaming chaos harness: the acceptance scenario for
// bounded work loss. Workers are killed silently at seeded instants
// (streamed-checkpoint thresholds, so the kill always lands mid-interval
// regardless of host speed), and the tests assert the two guarantees the
// feature exists for: final aggregates stay byte-identical to a
// fault-free run, and the input recomputed per failure is bounded by the
// checkpoint interval plus one flush — including when the *master* dies
// mid-round and recovers from its WAL.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cwc/internal/obs"
	"cwc/internal/server"
	"cwc/internal/tasks"
	"cwc/internal/wal"
	"cwc/internal/worker"
)

// meterFloor filters profiling executions out of the tally: profile
// samples are ~1 KB, real partitions are tens of KB.
const meterFloor = 4 * 1024

// meteredBytes counts input bytes actually processed by ckpt-metered
// executions across every attempt in this process — worker-side ground
// truth for how much work the cluster really did. A fault-free run
// processes exactly len(input); anything above that is recomputation
// caused by a failure, which checkpoint streaming must bound.
var meteredBytes atomic.Int64

// meteredTask wraps SleepCount with the processed-bytes meter. The
// per-batch sleep stretches executions so kills land mid-partition, and
// the meter makes lost work directly observable: an interrupted
// execution leaves ck.Offset at its last interrupt point, so the
// start→end delta is precisely the bytes this attempt consumed.
type meteredTask struct{ tasks.SleepCount }

func (meteredTask) Name() string { return "ckpt-metered" }

func (mt meteredTask) Process(ctx context.Context, input []byte, ck *tasks.Checkpoint) ([]byte, error) {
	start := ck.Offset
	out, err := mt.SleepCount.Process(ctx, input, ck)
	if len(input) >= meterFloor {
		if end := ck.Offset; end > start {
			meteredBytes.Add(end - start)
		}
	}
	return out, err
}

func init() {
	tasks.Register("ckpt-metered", func(params []byte) (tasks.Task, error) {
		base, err := tasks.New("sleepcount", params)
		if err != nil {
			return nil, err
		}
		return meteredTask{base.(tasks.SleepCount)}, nil
	})
}

// TestCkptChaosBoundedWorkLoss kills three workers silently, one at each
// streamed-checkpoint threshold, replugs them, and asserts the job's
// aggregate matches a local run while total recomputed input stays under
// kills × 2×interval (one interval of progress since the last flush,
// plus one interval of slack for a flush in flight when the connection
// died).
func TestCkptChaosBoundedWorkLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint chaos skipped in -short mode")
	}
	meteredBytes.Store(0)

	const ckptKB = 2
	tracer := obs.NewTracer(4096)
	opts := Options{Phones: DefaultPhones()[:4]}
	opts.Server.CheckpointEveryKB = ckptKB
	opts.Server.KeepalivePeriod = 100 * time.Millisecond
	opts.Server.KeepaliveTolerance = 3
	opts.Server.Tracer = tracer
	c := startCluster(t, opts)

	rng := rand.New(rand.NewSource(42))
	input := tasks.GenIntegers(256, 100000, rng)
	var ck tasks.Checkpoint
	want, err := (tasks.SleepCount{}).Process(context.Background(), input, &ck)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Master.Submit(
		meteredTask{tasks.SleepCount{PerBatch: 2 * time.Millisecond}}, input, false)
	if err != nil {
		t.Fatal(err)
	}

	// Kill a distinct worker each time the master's streamed-checkpoint
	// count crosses a threshold: the trigger is progress, not wall time,
	// so every kill lands mid-interval on any host. Replugged workers
	// rejoin so the fleet can finish.
	replugCtx, cancelReplugs := context.WithCancel(context.Background())
	t.Cleanup(cancelReplugs)
	thresholds := []int{2, 3, 5}
	var kills atomic.Int32
	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for next := 0; next < len(thresholds); {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if c.Master.StreamedCheckpoints() < thresholds[next] {
				continue
			}
			w := c.Workers[next]
			w.Vanish()
			kills.Add(1)
			go func(w *worker.Phone) {
				time.Sleep(300 * time.Millisecond)
				w.Replug()
				_ = w.Run(replugCtx)
			}(w)
			next++
		}
	}()

	results := runToCompletion(t, c, []int{id}, 120*time.Second)
	close(stop)
	watcher.Wait()

	if string(results[id]) != string(want) {
		t.Errorf("aggregate after kills %s != local %s", results[id], want)
	}
	if got := int(kills.Load()); got != len(thresholds) {
		t.Errorf("only %d of %d seeded kills fired before completion", got, len(thresholds))
	}
	if folds := c.Master.StreamedCheckpoints(); folds < thresholds[len(thresholds)-1] {
		t.Errorf("master folded only %d streamed checkpoints", folds)
	}
	streamedSaves, resumes := 0, 0
	for _, e := range tracer.Span(fmt.Sprintf("j%d", id)) {
		switch {
		case e.Kind == obs.KindCheckpoint && e.Detail == "streamed":
			streamedSaves++
		case e.Kind == obs.KindAssign && e.Detail == "resume" && e.Bytes > 0:
			resumes++
		}
	}
	if streamedSaves == 0 {
		t.Error("no streamed-checkpoint saves on the job's trace span")
	}

	overage := meteredBytes.Load() - int64(len(input))
	maxLoss := int64(kills.Load()) * 2 * ckptKB * 1024
	if overage < 0 {
		t.Errorf("processed %d bytes < input %d: the meter is broken",
			meteredBytes.Load(), len(input))
	}
	if overage > maxLoss {
		t.Errorf("recomputed %d bytes after %d kills, want <= %d (2x%dKB interval each)",
			overage, kills.Load(), maxLoss, ckptKB)
	}
	// Which worker a threshold kills is not tied to which one streamed, so
	// the re-ship count is reported, not asserted; the bound above is what
	// fails when resume state stops travelling.
	t.Logf("kills=%d recomputed=%dB (bound %dB), %d checkpoints folded, %d assigns shipped resume state",
		kills.Load(), overage, maxLoss, c.Master.StreamedCheckpoints(), resumes)
}

// TestCkptChaosMasterCrashRecovery crashes the master itself mid-round —
// after streamed checkpoints have been folded and WAL-appended, with
// every partition still in flight — then recovers a fresh master from
// the WAL with a fresh worker fleet. The job must finish with the exact
// fault-free aggregate, and the recomputed input must be bounded by one
// interval (plus an in-flight flush) per in-flight partition: streamed
// progress survives the crash because each fold hit the log before it
// was acknowledged.
func TestCkptChaosMasterCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint chaos skipped in -short mode")
	}
	meteredBytes.Store(0)

	const ckptKB = 8
	dir := t.TempDir()
	wl, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	phones := DefaultPhones()[:3]
	opts := Options{Phones: phones}
	opts.Server.CheckpointEveryKB = ckptKB
	opts.Server.WAL = wl
	c := startCluster(t, opts)

	rng := rand.New(rand.NewSource(43))
	input := tasks.GenIntegers(128, 100000, rng)
	var ck tasks.Checkpoint
	want, err := (tasks.SleepCount{}).Process(context.Background(), input, &ck)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Master.Submit(
		meteredTask{tasks.SleepCount{PerBatch: 2 * time.Millisecond}}, input, false)
	if err != nil {
		t.Fatal(err)
	}

	// Drive the round from a goroutine we can abandon mid-flight.
	roundCtx, cancelRound := context.WithCancel(context.Background())
	defer cancelRound()
	go func() {
		for roundCtx.Err() == nil {
			if _, err := c.Master.RunRound(roundCtx); err != nil {
				time.Sleep(10 * time.Millisecond)
			}
		}
	}()

	// Crash once a few streamed checkpoints have been folded (and, under
	// SyncAlways, fsynced): no state save, the WAL is the only survivor.
	deadline := time.Now().Add(30 * time.Second)
	for c.Master.StreamedCheckpoints() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d checkpoints folded before deadline", c.Master.StreamedCheckpoints())
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancelRound()
	c.Stop()
	wl.Close()

	// Recover a fresh master from the log.
	wl2, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wl2.Close() })
	m2 := server.New(server.Config{
		Addr:              "127.0.0.1:0",
		CheckpointEveryKB: ckptKB,
		WAL:               wl2,
	})
	if err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m2.Close)
	if err := m2.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if m2.PendingItems() == 0 {
		t.Fatal("recovered master has no pending work: the crash landed after completion")
	}

	// A fresh fleet: the old workers died with the old master.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	fleetCtx, cancelFleet := context.WithCancel(context.Background())
	t.Cleanup(cancelFleet)
	for _, ph := range phones {
		w, err := worker.New(worker.Config{
			ServerAddr: m2.Addr(),
			Model:      ph.Spec.Model,
			CPUMHz:     ph.Spec.CPU.ClockMHz,
			RAMMB:      ph.Spec.RAMMB,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = w.Run(fleetCtx) }()
	}
	if err := m2.WaitForPhones(ctx, len(phones)); err != nil {
		t.Fatal(err)
	}

	got, ok := []byte(nil), false
	finish := time.Now().Add(90 * time.Second)
	for !ok && time.Now().Before(finish) {
		if _, err := m2.RunRound(ctx); err != nil {
			time.Sleep(10 * time.Millisecond)
		}
		got, ok = m2.Result(id)
	}
	if !ok {
		t.Fatalf("job did not complete after recovery (dead letters: %+v)", m2.DeadLetters())
	}
	if string(got) != string(want) {
		t.Errorf("aggregate after master crash %s != local %s", got, want)
	}

	// Each of the <= 3 in-flight partitions loses at most one interval of
	// progress since its last durable fold, one in-flight flush, and one
	// interrupt batch of slack.
	overage := meteredBytes.Load() - int64(len(input))
	maxLoss := int64(len(phones)) * (2*ckptKB*1024 + 4096)
	if overage < 0 {
		t.Errorf("processed %d bytes < input %d: the meter is broken",
			meteredBytes.Load(), len(input))
	}
	if overage > maxLoss {
		t.Errorf("recomputed %d bytes across the crash, want <= %d", overage, maxLoss)
	}
	t.Logf("recomputed=%dB (bound %dB) after WAL recovery", overage, maxLoss)
}
