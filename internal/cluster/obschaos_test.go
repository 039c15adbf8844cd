package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"cwc/internal/faults"
	"cwc/internal/obs"
	"cwc/internal/replica"
	"cwc/internal/server"
	"cwc/internal/tasks"
	"cwc/internal/wal"
	"cwc/internal/worker"
)

// saveArtifact writes a postmortem file into $CWC_ARTIFACT_DIR so CI can
// upload it alongside check.log. A no-op when the variable is unset
// (local runs).
func saveArtifact(t *testing.T, name string, data []byte) {
	t.Helper()
	dir := os.Getenv("CWC_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir %s: %v", dir, err)
		return
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Logf("artifact %s: %v", path, err)
		return
	}
	t.Logf("saved artifact %s", path)
}

// traceJSONL renders a tracer's ring as JSONL for artifact upload.
func traceJSONL(tr *obs.Tracer) []byte {
	var out []byte
	for _, ev := range tr.Recent(100000) {
		line, err := json.Marshal(ev)
		if err != nil {
			continue
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out
}

// timelineSettled reports whether every partition visible in the span
// has its master-side events and a worker-side exec_finish no older
// than its latest master assign — i.e. the final telemetry batches
// shipped after the last reports have landed and the timeline is
// complete on both process sides. (An exec_finish from before the
// failover does not count: it is already in the ring while the batch
// that closes the re-execution is still in flight.)
func timelineSettled(tr *obs.Tracer, span string) bool {
	seen := map[int]bool{}
	finished := map[int]time.Time{}
	assigned := map[int]time.Time{}
	for _, ev := range tr.Span(span) {
		switch ev.Kind {
		case obs.KindSubmit, obs.KindRound, obs.KindAggregate, obs.KindPromote:
			continue // job-level milestones, not partition rows
		}
		seen[ev.Partition] = true
		switch {
		case ev.Src == "worker" && ev.Kind == "exec_finish" && ev.TS.After(finished[ev.Partition]):
			finished[ev.Partition] = ev.TS
		case ev.Src != "worker" && ev.Kind == obs.KindAssign && ev.TS.After(assigned[ev.Partition]):
			assigned[ev.Partition] = ev.TS
		}
	}
	if len(seen) == 0 {
		return false
	}
	for p := range seen {
		// Worker clocks ride the wire in whole milliseconds.
		if assigned[p].IsZero() || finished[p].Before(assigned[p].Truncate(time.Millisecond)) {
			return false
		}
	}
	return true
}

// The obs-chaos acceptance scenario: a replicated pair runs a seeded
// workload slow enough that every partition is mid-execution when the
// primary is scripted to die. The standby promotes; the workers rotate
// over, re-ship their buffered epoch-1 span events to the new regime and
// finish the work under epoch 2. Every partition's /debug/timeline must
// then hold BOTH process sides — master dispatch events and
// worker-minted telemetry — in causal order across the promotion, the
// timeline must show both epochs, and not one worker event may be an
// orphan (a span the master cannot anchor).
func TestObsChaosTimelineAcrossFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("obs-chaos e2e skipped in -short mode")
	}
	plan, err := faults.ParseScenario("kill-primary: at=300ms resurrect=0s")
	if err != nil {
		t.Fatal(err)
	}
	killAt := plan.PrimaryKills[0].At
	const lease = 500 * time.Millisecond

	// Primary: WAL + replication + full obs, so workers buffer telemetry
	// from their very first welcome.
	pwl, err := wal.Open(filepath.Join(t.TempDir(), "primary-wal"), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	ship := replica.NewShipper(replica.ShipperOptions{})
	preg := obs.NewRegistry()
	ptracer := obs.NewTracer(8192)
	m1 := server.New(server.Config{
		Addr: "127.0.0.1:0", WAL: pwl, ReplicaSink: ship,
		Role: "primary", Metrics: preg, Tracer: ptracer, ObsAddr: "127.0.0.1:0",
	})
	ship.BindMaster(m1)
	if err := m1.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ship.Serve(rln)
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}

	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sreg := obs.NewRegistry()
	stracer := obs.NewTracer(8192)
	st := replica.New(replica.StandbyOptions{
		PrimaryAddr: rln.Addr().String(),
		WALDir:      filepath.Join(t.TempDir(), "standby-wal"),
		WALOptions:  wal.Options{Sync: wal.SyncNone},
		Lease:       lease,
		MasterConfig: server.Config{
			Listener: tln, Addr: tln.Addr().String(), Metrics: sreg,
			Tracer: stracer, ObsAddr: "127.0.0.1:0",
		},
		Metrics: sreg,
	})
	stCtx, stCancel := context.WithCancel(context.Background())
	defer stCancel()
	stDone := make(chan error, 1)
	go func() { stDone <- st.Run(stCtx) }()

	// On failure, ship the promoted master's trace ring to CI.
	t.Cleanup(func() {
		if t.Failed() {
			saveArtifact(t, "obschaos-timeline-trace.jsonl", traceJSONL(stracer))
		}
	})

	failoverAddrs := m1.Addr() + "," + tln.Addr().String()
	runCtx, runCancel := context.WithCancel(context.Background())
	defer runCancel()
	const fleet = 3
	for i := 0; i < fleet; i++ {
		w, err := worker.New(worker.Config{
			ServerAddr: failoverAddrs,
			Model:      fmt.Sprintf("chaos-phone-%d", i),
			CPUMHz:     900,
			RAMMB:      512,
			// ~25ms/KB over ~32KB partitions: every partition takes
			// ~800ms, so all of them are provably mid-flight at the
			// 300ms kill and their epoch-1 worker events are still
			// buffered (nothing shipped yet: no result, no pong).
			DelayPerKB: 25 * time.Millisecond,
			Reconnect: worker.ReconnectPolicy{
				BaseDelay:   20 * time.Millisecond,
				MaxDelay:    150 * time.Millisecond,
				MaxAttempts: -1,
				Seed:        int64(71 + i),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = w.Run(runCtx) }()
	}
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if err := m1.WaitForPhones(waitCtx, fleet); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(29))
	input := tasks.GenIntegers(96, 100000, rng)
	var ck tasks.Checkpoint
	want, err := (tasks.PrimeCount{}).Process(context.Background(), input, &ck)
	if err != nil {
		t.Fatal(err)
	}
	id, err := m1.Submit(tasks.PrimeCount{}, input, false)
	if err != nil {
		t.Fatal(err)
	}

	killed := make(chan struct{})
	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for {
			select {
			case <-killed:
				return
			default:
			}
			if _, err := m1.RunRound(ctx); err != nil {
				select {
				case <-killed:
					return
				case <-time.After(20 * time.Millisecond):
				}
			}
		}
	}()
	time.Sleep(killAt)
	m1.Kill()
	close(killed)
	<-driverDone
	ship.Close()
	_ = pwl.Close()

	select {
	case <-st.Promoted():
	case err := <-stDone:
		t.Fatalf("standby exited instead of promoting: %v", err)
	case <-time.After(10 * lease):
		t.Fatal("standby did not promote")
	}
	m2 := st.Master()
	defer func() {
		m2.Close()
		st.Log().Close()
	}()

	results := driveToCompletion(t, m2, []int{id}, 60*time.Second)
	if string(results[id]) != string(want) {
		t.Errorf("aggregate across failover = %s, want %s", results[id], want)
	}

	// Give the final telemetry batches (shipped right after the last
	// result reports) a moment to fold into the promoted master's ring.
	span := fmt.Sprintf("j%d", id)
	deadline := time.Now().Add(5 * time.Second)
	for !timelineSettled(stracer, span) && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}

	body, code := httpGet(t, "http://"+m2.ObsAddr()+"/debug/timeline?job="+fmt.Sprint(id))
	if code != 200 {
		t.Fatalf("/debug/timeline status %d: %s", code, body)
	}
	t.Cleanup(func() {
		if t.Failed() {
			saveArtifact(t, "obschaos-timeline.json", body)
		}
	})
	var tl server.Timeline
	if err := json.Unmarshal(body, &tl); err != nil {
		t.Fatalf("/debug/timeline is not JSON: %v\n%s", err, body)
	}
	if tl.Span != span {
		t.Errorf("timeline span = %q, want %q", tl.Span, span)
	}
	if len(tl.Partitions) == 0 {
		t.Fatalf("timeline has no partitions:\n%s", body)
	}

	// The promotion boundary is visible: events from both regimes.
	epochs := map[int64]bool{}
	for _, e := range tl.Epochs {
		epochs[e] = true
	}
	if !epochs[1] || !epochs[2] {
		t.Errorf("timeline epochs = %v, want both 1 (buffered pre-kill worker events) and 2", tl.Epochs)
	}

	// Every partition: both process sides, in causal order.
	for _, part := range tl.Partitions {
		var sawMaster, sawWorker bool
		var assignTS, execStartTS, execFinishTS time.Time
		for _, ev := range part.Events {
			if ev.Src == "worker" {
				sawWorker = true
			} else {
				sawMaster = true
			}
			switch ev.Kind {
			case obs.KindAssign:
				if assignTS.IsZero() {
					assignTS = ev.TS
				}
			case "exec_start":
				if execStartTS.IsZero() {
					execStartTS = ev.TS
				}
			case "exec_finish":
				execFinishTS = ev.TS
			}
		}
		if !sawMaster || !sawWorker {
			t.Errorf("partition %d timeline is one-sided (master=%v worker=%v): %+v",
				part.Partition, sawMaster, sawWorker, part.Events)
		}
		if execStartTS.IsZero() || execFinishTS.IsZero() {
			t.Errorf("partition %d has no exec_start/exec_finish worker events", part.Partition)
			continue
		}
		if execFinishTS.Before(execStartTS) {
			t.Errorf("partition %d: exec_finish %v precedes exec_start %v",
				part.Partition, execFinishTS, execStartTS)
		}
		if !assignTS.IsZero() && execFinishTS.Before(assignTS) {
			t.Errorf("partition %d: exec_finish %v precedes the first assign %v",
				part.Partition, execFinishTS, assignTS)
		}
	}

	// No orphan spans: every worker event anchored to a job the promoted
	// master knows.
	if got := sreg.Counter("cwc_telemetry_orphan_spans_total").Value(); got != 0 {
		t.Errorf("promoted master counted %d orphan worker spans, want 0", got)
	}
	if got := sreg.Counter("cwc_frames_received_total", "type", "telemetry").Value(); got < 1 {
		t.Errorf("promoted master received %d telemetry frames, want >= 1", got)
	}
}

// The black-box half of the obs-chaos gate: a real cwc-server process,
// SIGQUIT'd, must leave a parseable JSONL flight-recorder dump behind
// and exit with the conventional 128+SIGQUIT status.
func TestObsChaosBlackboxSIGQUIT(t *testing.T) {
	if testing.Short() {
		t.Skip("obs-chaos e2e skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cwc-server")
	if out, err := exec.Command("go", "build", "-o", bin, "cwc/cmd/cwc-server").CombinedOutput(); err != nil {
		t.Fatalf("building cwc-server: %v\n%s", err, out)
	}

	dump := filepath.Join(dir, "blackbox.jsonl")
	cmd := exec.Command(bin,
		"-listen", "127.0.0.1:0",
		"-wait", "0", // register-only mode: runs until signalled
		"-blackbox-file", dump,
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait until the daemon has logged something — proof the logger (and
	// with it the black-box tap) is live and the ring is non-empty.
	sc := bufio.NewScanner(stderr)
	lineCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			select {
			case lineCh <- sc.Text():
			default: // keep draining so the child never blocks on stderr
			}
		}
	}()
	select {
	case line := <-lineCh:
		t.Logf("daemon up: %s", line)
	case <-time.After(15 * time.Second):
		t.Fatal("cwc-server produced no output")
	}
	time.Sleep(100 * time.Millisecond)

	if err := cmd.Process.Signal(syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("cwc-server exit: %v, want exit status 131", err)
		}
		if code := ee.ExitCode(); code != 131 {
			t.Fatalf("cwc-server exit code %d, want 131 (128+SIGQUIT)", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("cwc-server did not exit after SIGQUIT")
	}

	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("black-box dump missing: %v", err)
	}
	t.Cleanup(func() {
		if t.Failed() {
			saveArtifact(t, "obschaos-blackbox.jsonl", data)
		}
	})
	lines, logs := 0, 0
	for sc := bufio.NewScanner(bytes.NewReader(data)); sc.Scan(); {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e obs.SpanEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("dump line %d not parseable: %v\n%s", lines+1, err, sc.Bytes())
		}
		if e.Kind == "" || e.TS.IsZero() {
			t.Errorf("dump line %d is not a span event: %s", lines+1, sc.Bytes())
		}
		if e.Kind == obs.KindLog {
			logs++
			if e.Detail == "" {
				t.Errorf("dump line %d is a log event with no line", lines+1)
			}
		}
		lines++
	}
	if logs == 0 {
		t.Fatalf("black-box dump holds %d lines, none of them the log line the daemon printed", lines)
	}
}
