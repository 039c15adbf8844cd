package cluster

import (
	"context"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"cwc/internal/tasks"
)

func startCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := Start(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func TestClusterEndToEndWordCount(t *testing.T) {
	c := startCluster(t, Options{})
	rng := rand.New(rand.NewSource(1))
	input := tasks.GenText(128, rng)

	// Ground truth on the host.
	var ck tasks.Checkpoint
	want, err := (tasks.WordCount{Word: "sale"}).Process(context.Background(), input, &ck)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Master.MeasureBandwidths(ctx); err != nil {
		t.Fatal(err)
	}
	id, err := c.Master.Submit(tasks.WordCount{Word: "sale"}, input, false)
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Master.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.CompletedJobs) != 1 || report.CompletedJobs[0] != id {
		t.Fatalf("completed = %v, want [%d]", report.CompletedJobs, id)
	}
	got, ok := c.Master.Result(id)
	if !ok {
		t.Fatal("result missing")
	}
	if string(got) != string(want) {
		t.Errorf("distributed count %s != local %s", got, want)
	}
}

func TestClusterMixedWorkload(t *testing.T) {
	c := startCluster(t, Options{})
	rng := rand.New(rand.NewSource(2))
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	type expect struct {
		id   int
		want string
	}
	var expects []expect

	// A few breakable jobs with host-computed ground truth.
	for k := 0; k < 3; k++ {
		input := tasks.GenIntegers(64, 100000, rng)
		var ck tasks.Checkpoint
		want, err := (tasks.PrimeCount{}).Process(context.Background(), input, &ck)
		if err != nil {
			t.Fatal(err)
		}
		id, err := c.Master.Submit(tasks.PrimeCount{}, input, false)
		if err != nil {
			t.Fatal(err)
		}
		expects = append(expects, expect{id, string(want)})
	}
	// An atomic blur job.
	img, err := tasks.GenImageKB(24, rng)
	if err != nil {
		t.Fatal(err)
	}
	var ck tasks.Checkpoint
	wantBlur, err := (tasks.Blur{}).Process(context.Background(), img, &ck)
	if err != nil {
		t.Fatal(err)
	}
	blurID, err := c.Master.Submit(tasks.Blur{}, img, true)
	if err != nil {
		t.Fatal(err)
	}
	expects = append(expects, expect{blurID, string(wantBlur)})

	report, err := c.Master.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.CompletedJobs) != len(expects) {
		t.Fatalf("completed %d jobs, want %d", len(report.CompletedJobs), len(expects))
	}
	for _, e := range expects {
		got, ok := c.Master.Result(e.id)
		if !ok {
			t.Errorf("job %d has no result", e.id)
			continue
		}
		if string(got) != e.want {
			t.Errorf("job %d: distributed result differs from local", e.id)
		}
	}
	if report.PredictedMakespanMs <= 0 {
		t.Error("no predicted makespan")
	}
}

func TestClusterSubmitValidation(t *testing.T) {
	c := startCluster(t, Options{})
	if _, err := c.Master.Submit(tasks.PrimeCount{}, nil, false); err == nil {
		t.Error("empty input should be rejected")
	}
}

func TestClusterOnlineFailureMigratesWork(t *testing.T) {
	// Slow the workers down so we can unplug mid-execution.
	c := startCluster(t, Options{DelayPerKB: 12 * time.Millisecond})
	rng := rand.New(rand.NewSource(3))
	input := tasks.GenIntegers(256, 100000, rng)
	var ck tasks.Checkpoint
	want, err := (tasks.PrimeCount{}).Process(context.Background(), input, &ck)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Master.Submit(tasks.PrimeCount{}, input, false)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Unplug two phones shortly after dispatch begins.
	go func() {
		time.Sleep(300 * time.Millisecond)
		c.Workers[0].Unplug()
		c.Workers[1].Unplug()
	}()

	deadline := time.Now().Add(90 * time.Second)
	done := false
	for !done && time.Now().Before(deadline) {
		report, err := c.Master.RunRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, cj := range report.CompletedJobs {
			if cj == id {
				done = true
			}
		}
		if c.Master.PendingItems() == 0 && !done {
			t.Fatal("queue drained but job not complete")
		}
	}
	if !done {
		t.Fatal("job did not complete after failures")
	}
	got, _ := c.Master.Result(id)
	if string(got) != string(want) {
		t.Errorf("result after migration %s != local %s", got, want)
	}
}

func TestClusterOfflineFailureDetectedByKeepalive(t *testing.T) {
	opts := Options{DelayPerKB: 15 * time.Millisecond}
	// Scaled-down detector: 50 ms pings, 2 tolerated misses, so the test
	// exercises the paper's 30 s / 3-miss mechanism in ~150 ms.
	opts.Server.KeepalivePeriod = 50 * time.Millisecond
	opts.Server.KeepaliveTolerance = 2
	c := startCluster(t, opts)

	rng := rand.New(rand.NewSource(4))
	input := tasks.GenIntegers(192, 100000, rng)
	var ck tasks.Checkpoint
	want, err := (tasks.PrimeCount{}).Process(context.Background(), input, &ck)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Master.Submit(tasks.PrimeCount{}, input, false)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	go func() {
		time.Sleep(250 * time.Millisecond)
		c.Workers[0].Vanish() // silent death: no failure report
	}()

	deadline := time.Now().Add(90 * time.Second)
	done := false
	for !done && time.Now().Before(deadline) {
		report, err := c.Master.RunRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, cj := range report.CompletedJobs {
			if cj == id {
				done = true
			}
		}
	}
	if !done {
		t.Fatal("job did not complete after offline failure")
	}
	got, _ := c.Master.Result(id)
	if string(got) != string(want) {
		t.Errorf("result after offline failure %s != local %s", got, want)
	}
	// The vanished phone must be marked dead.
	alive := 0
	for _, p := range c.Master.Phones() {
		if p.Alive {
			alive++
		}
	}
	if alive != len(c.Workers)-1 {
		t.Errorf("%d phones alive, want %d", alive, len(c.Workers)-1)
	}
}

func TestClusterResultUnknownJob(t *testing.T) {
	c := startCluster(t, Options{})
	if _, ok := c.Master.Result(999); ok {
		t.Error("unknown job should have no result")
	}
	if _, err := c.Master.RunRound(context.Background()); err == nil {
		t.Error("empty round should error")
	}
}

func TestClusterPrimesMatchStrconv(t *testing.T) {
	// Sanity: the distributed prime count over a tiny input matches a
	// direct count here.
	c := startCluster(t, Options{})
	input := []byte("2\n4\n5\n6\n7\n")
	id, err := c.Master.Submit(tasks.PrimeCount{}, input, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Master.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Master.Result(id)
	if !ok {
		t.Fatal("no result")
	}
	if n, _ := strconv.Atoi(string(got)); n != 3 {
		t.Errorf("count = %s, want 3", got)
	}
}

// The paper's §4 RAM argument: a job bigger than any phone's memory is
// partitioned so every piece fits, and the distributed result still
// matches a local run.
func TestClusterRAMConstrainedPartitioning(t *testing.T) {
	phones := DefaultPhones()
	for i := range phones {
		phones[i].Spec.RAMMB = 1 // 1 MB cap per partition
	}
	c := startCluster(t, Options{Phones: phones})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := c.Master.MeasureBandwidths(ctx); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(14))
	input := tasks.GenIntegers(4*1024, 500000, rng) // 4 MB > every phone's 1 MB
	var ck tasks.Checkpoint
	want, err := (tasks.PrimeCount{}).Process(context.Background(), input, &ck)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Master.Submit(tasks.PrimeCount{}, input, false)
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Master.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Master.Result(id)
	if !ok {
		t.Fatal("RAM-partitioned job did not complete")
	}
	if string(got) != string(want) {
		t.Errorf("distributed %s != local %s", got, want)
	}
	// Every assignment respected the 1 MB cap: check via the events —
	// with 4 MB of input and 1 MB caps, at least 4 partitions ran.
	assigns := 0
	for _, e := range report.Events {
		if e.Kind == "assign" {
			assigns++
		}
	}
	if assigns < 4 {
		t.Errorf("only %d assignments for a 4 MB job with 1 MB RAM caps", assigns)
	}
}

// A multi-megabyte input end to end: each partition ships in one assign
// frame, however large, and the job's answer is right.
func TestClusterChunkedTransfers(t *testing.T) {
	c := startCluster(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	rng := rand.New(rand.NewSource(21))
	input := tasks.GenIntegers(2*1024, 300000, rng) // 2 MB
	var ck tasks.Checkpoint
	want, err := (tasks.PrimeCount{}).Process(context.Background(), input, &ck)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Master.Submit(tasks.PrimeCount{}, input, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Master.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Master.Result(id)
	if !ok {
		t.Fatal("the 2 MB job did not complete")
	}
	if string(got) != string(want) {
		t.Errorf("2 MB result %s != local %s", got, want)
	}
}

// A phone that unplugs and later replugs re-enters the pool and serves
// work again.
func TestClusterPhoneReentersAfterReplug(t *testing.T) {
	c := startCluster(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	w := c.Workers[0]
	w.Unplug()
	// Wait for the server to mark it dead.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		alive := 0
		for _, p := range c.Master.Phones() {
			if p.Alive {
				alive++
			}
		}
		if alive == len(c.Workers)-1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Replug: the worker reconnects and registers under a new ID.
	w.Replug()
	go func() { _ = w.Run(context.Background()) }()
	if err := c.Master.WaitForPhones(ctx, len(c.Workers)); err != nil {
		t.Fatalf("replugged phone never re-registered: %v", err)
	}

	// The replugged fleet still computes correctly.
	input := []byte("2\n3\n4\n5\n")
	id, err := c.Master.Submit(tasks.PrimeCount{}, input, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Master.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Master.Result(id); !ok || string(got) != "3" {
		t.Errorf("post-replug result = %s %v", got, ok)
	}
}
