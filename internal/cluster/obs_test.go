package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"cwc/internal/obs"
	"cwc/internal/server"
	"cwc/internal/tasks"
	"cwc/internal/wal"
)

func httpGet(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return body, resp.StatusCode
}

// The acceptance scenario for the admin plane: a live 4-worker cluster
// with a WAL, checkpoint streaming and one injected online failure must
// expose its flight data — a rich /metrics catalog (including WAL fsync
// latency, keepalive misses, checkpoint bytes and predicted-vs-actual
// makespan), per-phone /statusz, the /debug/sched packing-vs-actuals
// view, and a JSONL span chain covering the traced job's whole life
// including the failure and requeue.
func TestObsAdminPlaneLiveCluster(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(8192)
	var traceBuf bytes.Buffer
	tracer.SetSink(&traceBuf)

	wlog, err := wal.Open(t.TempDir(), wal.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()

	opts := Options{
		Phones:     DefaultPhones()[:4],
		DelayPerKB: 12 * time.Millisecond,
	}
	opts.Server.Metrics = reg
	opts.Server.Tracer = tracer
	opts.Server.ObsAddr = "127.0.0.1:0"
	opts.Server.WAL = wlog
	opts.Server.KeepalivePeriod = 50 * time.Millisecond
	opts.Server.KeepaliveTolerance = 3
	opts.Server.CheckpointEveryKB = 16
	c := startCluster(t, opts)

	if c.Master.ObsAddr() == "" {
		t.Fatal("admin plane did not bind")
	}
	base := "http://" + c.Master.ObsAddr()
	// Every series exists from startup: a label drawn from traffic (a
	// phone ID, a job, a wire string) would add series as the run goes.
	startup, _ := httpGet(t, base+"/metrics")

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := c.Master.MeasureBandwidths(ctx); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(51))
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

	// Online failure mid-round: the unplugged phone reports its failure,
	// the master requeues the remainder, and the trace gets its
	// failure→requeue edge.
	go func() {
		time.Sleep(300 * time.Millisecond)
		c.Workers[0].Unplug()
	}()
	results := runToCompletion(t, c, []int{id}, 90*time.Second)
	if string(results[id]) != string(want) {
		t.Errorf("result with obs enabled %s != local %s", results[id], want)
	}

	// /healthz
	body, code := httpGet(t, base+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	// /metrics: a real catalog, not a token gesture. A worker's span
	// events ride the frame after its report, so the last exec_finish may
	// land just after the result it belongs to.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if reg.Counter("cwc_telemetry_events_total", "kind", "exec_finish").Value() > 0 {
			break
		}
	}
	body, code = httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	text := string(body)
	series := 0
	for _, line := range strings.Split(text, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			series++
		}
	}
	if series < 20 {
		t.Errorf("/metrics exposes %d series, want >= 20:\n%s", series, text)
	}
	for _, must := range []string{
		"cwc_wal_fsync_ms_count",
		"cwc_wal_append_ms_count",
		"cwc_keepalive_misses_total",
		"cwc_checkpoint_bytes_total",
		"cwc_round_predicted_makespan_ms",
		"cwc_round_actual_makespan_ms",
		"cwc_exec_ms_count",
		"cwc_results_total",
		"cwc_failures_total",
		"cwc_requeues_total",
		`cwc_telemetry_events_total{kind="exec_finish"}`,
	} {
		if !strings.Contains(text, must) {
			t.Errorf("/metrics missing %q", must)
		}
	}

	startSeries := seriesNames(string(startup))
	for name := range seriesNames(text) {
		if !startSeries[name] {
			t.Errorf("series %s was created after startup", name)
		}
	}

	// The WAL actually ran, so its histograms must have observations.
	var appendCount int
	fmt.Sscanf(findLine(text, "cwc_wal_append_ms_count"), "cwc_wal_append_ms_count %d", &appendCount)
	if appendCount == 0 {
		t.Error("cwc_wal_append_ms_count is zero on a cluster run with a WAL")
	}

	// /statusz: the whole fleet with per-phone detail.
	body, code = httpGet(t, base+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status %d", code)
	}
	var st struct {
		PhonesAlive int `json:"phones_alive"`
		Phones      []struct {
			ID       int     `json:"id"`
			Model    string  `json:"model"`
			BMsPerKB float64 `json:"b_ms_per_kb"`
		} `json:"phones"`
		Rounds    int `json:"rounds"`
		LastRound *struct {
			PredictedMakespanMs float64 `json:"predicted_makespan_ms"`
		} `json:"last_round"`
		JobsCompleted int `json:"jobs_completed"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/statusz is not JSON: %v\n%s", err, body)
	}
	if len(st.Phones) != 4 {
		t.Errorf("/statusz lists %d phones, want 4", len(st.Phones))
	}
	if st.PhonesAlive != 3 {
		t.Errorf("/statusz phones_alive = %d, want 3 after one unplug", st.PhonesAlive)
	}
	if st.Rounds < 1 || st.LastRound == nil || st.JobsCompleted != 1 {
		t.Errorf("/statusz rounds=%d last_round=%v completed=%d", st.Rounds, st.LastRound, st.JobsCompleted)
	}

	// /debug/sched: last round's packing decision with actuals folded in.
	body, code = httpGet(t, base+"/debug/sched")
	if code != http.StatusOK {
		t.Fatalf("/debug/sched status %d: %s", code, body)
	}
	var snap server.SchedSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/debug/sched is not JSON: %v\n%s", err, body)
	}
	if len(snap.Phones) == 0 {
		t.Fatal("/debug/sched has no phones")
	}
	if snap.PredictedMakespanMs <= 0 || snap.ActualMakespanMs <= 0 {
		t.Errorf("/debug/sched makespans predicted=%v actual=%v, want both > 0",
			snap.PredictedMakespanMs, snap.ActualMakespanMs)
	}
	assigns, resolved := 0, 0
	for _, sp := range snap.Phones {
		for _, a := range sp.Assignments {
			assigns++
			if a.PredictedMs <= 0 {
				t.Errorf("assignment %+v has no predicted cost", a)
			}
			if a.Outcome == "result" && a.ActualMs >= 0 {
				resolved++
			}
		}
	}
	if assigns == 0 {
		t.Error("/debug/sched has no assignments")
	}
	if resolved == 0 {
		t.Error("/debug/sched has no assignment with a measured result latency")
	}

	// /debug/trace filtered to the job's span.
	span := fmt.Sprintf("j%d", id)
	body, code = httpGet(t, base+"/debug/trace?span="+span)
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status %d", code)
	}
	var evs []obs.SpanEvent
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatalf("/debug/trace is not JSON: %v\n%s", err, body)
	}
	if len(evs) == 0 {
		t.Fatalf("no trace events for span %s", span)
	}

	// The JSONL sink holds the full chain: assign → ... → aggregate with
	// the injected failure and its requeue in between.
	// (Detach it first: the cluster is still live, and a late telemetry
	// batch folding into the tracer would write the buffer mid-read.)
	tracer.SetSink(nil)
	kinds := map[string]bool{}
	for _, line := range strings.Split(traceBuf.String(), "\n") {
		if line == "" {
			continue
		}
		var ev obs.SpanEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL trace line %q: %v", line, err)
		}
		if ev.Span == span {
			kinds[ev.Kind] = true
		}
	}
	for _, k := range []string{
		obs.KindSubmit, obs.KindAssign, obs.KindResult,
		obs.KindFailure, obs.KindRequeue, obs.KindAggregate,
	} {
		if !kinds[k] {
			t.Errorf("span %s JSONL chain missing kind %q (have %v)", span, k, kinds)
		}
	}
}

// seriesNames returns the series a /metrics exposition lists, values cut.
func seriesNames(text string) map[string]bool {
	names := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			names[line[:i]] = true
		}
	}
	return names
}

func findLine(text, prefix string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// obs must be a flight recorder, not a flight control: with ObsAddr
// unset, the aggregates are byte-identical to an instrumented run, no
// admin listener exists, not one telemetry frame crosses the wire (the
// welcome never asks for worker telemetry), and shutdown returns the
// process to its goroutine baseline.
func TestObsDisabledNeutrality(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	primes := tasks.GenIntegers(96, 100000, rng)
	text := tasks.GenText(96, rng)

	run := func(t *testing.T, opts Options) map[int][]byte {
		t.Helper()
		c := startCluster(t, opts)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := c.Master.MeasureBandwidths(ctx); err != nil {
			t.Fatal(err)
		}
		id1, err := c.Master.Submit(tasks.PrimeCount{}, primes, false)
		if err != nil {
			t.Fatal(err)
		}
		id2, err := c.Master.Submit(tasks.WordCount{Word: "sale"}, text, false)
		if err != nil {
			t.Fatal(err)
		}
		results := runToCompletion(t, c, []int{id1, id2}, 60*time.Second)
		// Key results by submission order, not job ID, for comparison.
		return map[int][]byte{0: results[id1], 1: results[id2]}
	}

	before := runtime.NumGoroutine()

	// The disabled run gets a private registry purely as a witness: with
	// ObsAddr unset the master must never see a telemetry frame, because
	// its welcome never asked the workers to buffer any.
	dreg := obs.NewRegistry()
	var plain map[int][]byte
	t.Run("disabled", func(t *testing.T) {
		opts := Options{}
		opts.Server.Metrics = dreg
		plain = run(t, opts)
	})
	if got := dreg.Counter("cwc_frames_received_total", "type", "telemetry").Value(); got != 0 {
		t.Errorf("obs-disabled master received %d telemetry frames, want 0", got)
	}
	if got := dreg.Counter("cwc_telemetry_events_total", "kind", "exec_finish").Value(); got != 0 {
		t.Errorf("obs-disabled master folded %d worker events, want 0", got)
	}

	// The disabled run must not leave goroutines behind (no admin plane,
	// no scrape loops). Cleanup is asynchronous, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines grew from %d to %d after obs-disabled run", before, n)
	}

	var instrumented map[int][]byte
	ereg := obs.NewRegistry()
	t.Run("enabled", func(t *testing.T) {
		tracer := obs.NewTracer(1024)
		tracer.SetSink(io.Discard)
		opts := Options{}
		opts.Server.Metrics = ereg
		opts.Server.Tracer = tracer
		opts.Server.ObsAddr = "127.0.0.1:0"
		instrumented = run(t, opts)
	})
	// The same workload with the obs plane bound DOES ship telemetry —
	// proving the disabled run's zero above is the gate, not a dead path.
	if got := ereg.Counter("cwc_frames_received_total", "type", "telemetry").Value(); got < 1 {
		t.Errorf("obs-enabled master received %d telemetry frames, want >= 1", got)
	}

	for k, p := range plain {
		if !bytes.Equal(p, instrumented[k]) {
			t.Errorf("job %d: obs-disabled aggregate %q != instrumented %q", k, p, instrumented[k])
		}
	}
}

// A master with ObsAddr unset must report no admin address.
func TestObsAddrUnboundByDefault(t *testing.T) {
	c := startCluster(t, Options{})
	if got := c.Master.ObsAddr(); got != "" {
		t.Errorf("ObsAddr = %q on a default cluster, want empty", got)
	}
}
