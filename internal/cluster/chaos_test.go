package cluster

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cwc/internal/faults"
	"cwc/internal/tasks"
	"cwc/internal/worker"
)

// runToCompletion drives scheduling rounds until every job has a result,
// tolerating transient round errors (e.g. the whole fleet mid-reconnect).
func runToCompletion(t *testing.T, c *Cluster, ids []int, budget time.Duration) map[int][]byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	deadline := time.Now().Add(budget)
	results := map[int][]byte{}
	for len(results) < len(ids) && time.Now().Before(deadline) {
		if _, err := c.Master.RunRound(ctx); err != nil {
			time.Sleep(50 * time.Millisecond)
		}
		for _, id := range ids {
			if _, ok := results[id]; ok {
				continue
			}
			if got, ok := c.Master.Result(id); ok {
				results[id] = got
			}
		}
	}
	if len(results) < len(ids) {
		t.Fatalf("only %d of %d jobs completed (dead letters: %+v, offline: %+v)",
			len(results), len(ids), c.Master.DeadLetters(), c.Master.OfflineFailures())
	}
	return results
}

// The acceptance scenario for the hardened dispatch path: a worker whose
// connection is cut mid-assignment reconnects with backoff under its
// prior identity, the in-flight work survives (the executing task's
// report is replayed after the rejoin, or the re-queued partition is
// re-dispatched), and the job completes correctly.
func TestClusterWorkerReconnectsAfterMidAssignmentCut(t *testing.T) {
	phones := DefaultPhones()[:2]
	// Deterministic scenario: each phone's first connection dies abruptly
	// mid-frame on its 6th write — after registration, while the real
	// partition is executing (keepalive pongs keep the write ordinal
	// advancing during execution).
	plan := &faults.Plan{Seed: 1, PerPhone: map[int]faults.Profile{
		0: {Seed: 11, CutEvery: 6, MaxCuts: 1},
		1: {Seed: 12, CutEvery: 6, MaxCuts: 1},
	}}
	opts := Options{
		Phones:     phones,
		DelayPerKB: 15 * time.Millisecond,
		Faults:     plan,
		Reconnect: worker.ReconnectPolicy{
			BaseDelay:   20 * time.Millisecond,
			MaxDelay:    200 * time.Millisecond,
			MaxAttempts: -1,
			Seed:        3,
		},
	}
	opts.Server.KeepalivePeriod = 100 * time.Millisecond
	opts.Server.KeepaliveTolerance = 3
	c := startCluster(t, opts)

	rng := rand.New(rand.NewSource(31))
	input := tasks.GenIntegers(128, 100000, rng)
	var ck tasks.Checkpoint
	want, err := (tasks.PrimeCount{}).Process(context.Background(), input, &ck)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Master.Submit(tasks.PrimeCount{}, input, false)
	if err != nil {
		t.Fatal(err)
	}
	results := runToCompletion(t, c, []int{id}, 90*time.Second)
	if string(results[id]) != string(want) {
		t.Errorf("result after cuts %s != local %s", results[id], want)
	}
	if cuts := plan.Recorder().Count(faults.Cut); cuts < 1 {
		t.Errorf("no connection cut was injected (events: %+v)", plan.Recorder().Events())
	}
	// Every reconnection reused its prior identity: no ghost registrations.
	if got := len(c.Master.Phones()); got != len(phones) {
		t.Errorf("fleet has %d identities after reconnects, want %d: %+v",
			got, len(phones), c.Master.Phones())
	}
}

// The chaos soak: a full multi-job, multi-round workload over loopback
// TCP with randomized-but-seeded faults on every link — latency, partial
// writes, corrupted frames, mid-frame cuts, refused dials — must produce
// aggregates byte-identical to a fault-free run, and the same seed must
// derive the same fault plan.
func TestChaosSoakByteIdenticalAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}

	// Same seed, same plan: the fault scenario is an input, not an accident.
	plan := faults.NewPlan(99, 6)
	if replay := faults.NewPlan(99, 6); !reflect.DeepEqual(plan.PerPhone, replay.PerPhone) {
		t.Fatal("fault plans from the same seed differ")
	}

	rng := rand.New(rand.NewSource(77))
	type job struct {
		task   tasks.Task
		input  []byte
		want   []byte
		atomic bool
	}
	jobs := []job{
		{task: tasks.PrimeCount{}, input: tasks.GenIntegers(96, 100000, rng)},
		{task: tasks.WordCount{Word: "sale"}, input: tasks.GenText(64, rng)},
		{task: tasks.MaxInt{}, input: tasks.GenIntegers(48, 1000000, rng)},
	}
	for i := range jobs {
		var ck tasks.Checkpoint
		want, err := jobs[i].task.Process(context.Background(), jobs[i].input, &ck)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i].want = want
	}

	run := func(name string, pl *faults.Plan) map[int][]byte {
		opts := Options{
			Phones:     DefaultPhones(),
			DelayPerKB: 4 * time.Millisecond,
		}
		if pl != nil {
			opts.Faults = pl
			opts.Reconnect = worker.ReconnectPolicy{
				BaseDelay:        20 * time.Millisecond,
				MaxDelay:         250 * time.Millisecond,
				MaxAttempts:      -1,
				HandshakeTimeout: 2 * time.Second,
				Seed:             5,
			}
			// Fast keepalives generate write traffic (more fault triggers)
			// and quick offline detection.
			opts.Server.KeepalivePeriod = 150 * time.Millisecond
			opts.Server.KeepaliveTolerance = 3
			opts.Server.DeadlineFloor = 2 * time.Second
		}
		c := startCluster(t, opts)
		var ids []int
		for _, j := range jobs {
			id, err := c.Master.Submit(j.task, j.input, j.atomic)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		results := runToCompletion(t, c, ids, 120*time.Second)
		c.Stop()
		t.Logf("%s run: %d jobs done", name, len(results))
		return results
	}

	clean := run("fault-free", nil)
	chaotic := run("chaos", plan)

	for i, j := range jobs {
		id := i + 1 // job IDs are assigned sequentially from 1
		if string(clean[id]) != string(j.want) {
			t.Errorf("job %d: fault-free result %q != local %q", id, clean[id], j.want)
		}
		if string(chaotic[id]) != string(clean[id]) {
			t.Errorf("job %d: chaos aggregate %q != fault-free aggregate %q",
				id, chaotic[id], clean[id])
		}
	}
	if events := plan.Recorder().Events(); len(events) == 0 {
		t.Error("the chaos run injected no faults at all")
	} else {
		counts := map[faults.EventKind]int{}
		for _, e := range events {
			counts[e.Kind]++
		}
		t.Logf("injected faults: %v", counts)
	}
}
