package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"cwc/internal/tasks"
)

// transfer pushes n bytes through a link at kbps in reads of chunk bytes
// and returns how long the reader took.
func transfer(t *testing.T, l *link, n, chunk int) time.Duration {
	t.Helper()
	a, b := net.Pipe()
	shaped := l.wrap(a)
	defer shaped.Close()
	go func() {
		defer b.Close()
		if _, err := b.Write(make([]byte, n)); err != nil {
			t.Errorf("raw write: %v", err)
		}
	}()
	buf := make([]byte, chunk)
	start := time.Now()
	for got := 0; got < n; {
		m, err := shaped.Read(buf)
		if err != nil {
			t.Fatalf("shaped read after %d bytes: %v", got, err)
		}
		got += m
	}
	return time.Since(start)
}

func TestLinkDeliversConfiguredRate(t *testing.T) {
	for _, tc := range []struct {
		kbps  float64
		bytes int
	}{{64, 16 << 10}, {4096, 1 << 20}} {
		l := &link{kbps: tc.kbps}
		got := transfer(t, l, tc.bytes, 32<<10)
		want := time.Duration(float64(tc.bytes) / (tc.kbps * 1024) * float64(time.Second))
		if d := math.Abs(float64(got-want)) / float64(want); d > 0.03 {
			t.Errorf("%.0f KB/s: %d bytes took %v, want %v (off by %.1f%%)", tc.kbps, tc.bytes, got, want, 100*d)
		}
		if l.down.Load() != int64(tc.bytes) || l.up.Load() != 0 {
			t.Errorf("%.0f KB/s: counters down=%d up=%d, want %d and 0", tc.kbps, l.down.Load(), l.up.Load(), tc.bytes)
		}
	}
}

// A thousand 8-byte reads owe 0.12 ms each at 64 KB/s. Sleeping on every
// one would cost a timer's granularity a thousand times over; carrying the
// debt costs the transfer time once.
func TestLinkCarriesOwedTimeAcrossSmallReads(t *testing.T) {
	const n = 8000
	got := transfer(t, &link{kbps: 64}, n, 8)
	want := n * time.Second / (64 * 1024)
	if got < want*97/100 || got > 3*want {
		t.Errorf("%d bytes in 8-byte reads took %v, want about %v", n, got, want)
	}
}

func TestLinkCountsWrites(t *testing.T) {
	a, b := net.Pipe()
	l := &link{kbps: 1024}
	shaped := l.wrap(a)
	go io.Copy(io.Discard, b)
	for _, n := range []int{1, 100, 5000} {
		if _, err := shaped.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	shaped.Close()
	b.Close()
	if l.up.Load() != 5101 || l.bytes() != 5101 {
		t.Errorf("up=%d total=%d, want 5101", l.up.Load(), l.bytes())
	}
}

// shrunk is s cut down for the smoke test: inputs scale times the size on
// links 1/scale times as fast, two batches an episode at most.
func (s spec) shrunk(scale float64) spec {
	full := s.fleet
	s.fleet = func() []phoneSpec {
		fleet := full()
		for i := range fleet {
			fleet[i].kbps /= scale
			fleet[i].delay = time.Duration(float64(fleet[i].delay) * scale)
		}
		return fleet
	}
	s.scale = scale
	s.batches = min(s.batches, 2)
	return s
}

// smokeScale shrinks every workload so that all four, traced, take seconds.
const smokeScale = 1.0 / 16

// TestSmoke runs every workload end to end at a tiny scale — both metric
// sets, full result verification, recovery — and checks that every metric
// the tables name is emitted and finite.
func TestSmoke(t *testing.T) {
	// The micro loops do not depend on the workload: once, one sample each.
	micro := map[string]float64{}
	if err := microAll(micro, 2012, 1, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, s := range workloads {
		t.Run(s.name, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			res, err := runWorkload(context.Background(), s.shrunk(smokeScale), 2012, 0, true, 0, t.TempDir(), spans)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range micro {
				res.PerLayer[name] = v
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
			}
			// A tiny batch can end before a trigger's share has arrived;
			// the path is covered once any phone left mid-batch.
			if len(s.unplugs) > 0 && res.Unplugged == 0 {
				t.Error("no unplug fired")
			}
			for _, m := range endToEnd {
				if v, ok := res.EndToEnd[m.name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end %s = %v (present %v), want a positive number", m.name, v, ok)
				}
			}
			for _, m := range perLayer {
				if v, ok := res.PerLayer[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer %s = %v (present %v)", m.name, v, ok)
				}
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer values emitted, the table names %d", len(res.PerLayer), len(perLayer))
			}
			line, err := json.Marshal(driverLine(res))
			if err != nil || !bytes.Contains(line, []byte(`"server.round_plan_ms_p50"`)) {
				t.Errorf("driver line %s: %v", line, err)
			}
			if b, err := os.ReadFile(spans); err != nil || !bytes.Contains(b, []byte(`"name":"round.plan"`)) {
				t.Errorf("span file: %v, %d bytes", err, len(b))
			}
		})
	}
}

// TestSeedIsTheInput runs one workload twice on one seed: the inputs and
// their references must be identical, and the WAL must hold the same bytes
// per input byte up to what the measured b_i moves in partition counts.
func TestSeedIsTheInput(t *testing.T) {
	s, _ := findSpec("paper-mix")
	s = s.shrunk(smokeScale)
	var runs [2]*result
	var refs [2]*inputs
	for i := range runs {
		var err error
		if refs[i], err = generate(s, 7); err != nil {
			t.Fatal(err)
		}
		if runs[i], err = runWorkload(context.Background(), s, 7, 0, false, 1, t.TempDir(), ""); err != nil {
			t.Fatal(err)
		}
	}
	if runs[0].InputsSHA256 != runs[1].InputsSHA256 || runs[0].InputsSHA256 != refs[0].sha256 {
		t.Errorf("inputs_sha256 differ: %s, %s, %s", runs[0].InputsSHA256, runs[1].InputsSHA256, refs[0].sha256)
	}
	for b := range refs[0].pool {
		for j := range refs[0].pool[b].jobs {
			if !bytes.Equal(refs[0].pool[b].jobs[j].want, refs[1].pool[b].jobs[j].want) {
				t.Fatalf("batch %d job %d: references differ", b, j)
			}
		}
	}
	a, b := runs[0].EndToEnd["wal_bytes_per_input_byte"], runs[1].EndToEnd["wal_bytes_per_input_byte"]
	if math.Abs(a-b)/a > 0.01 {
		t.Errorf("wal_bytes_per_input_byte %v and %v on one seed", a, b)
	}
	other, err := generate(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if other.sha256 == refs[0].sha256 {
		t.Error("seeds 7 and 8 generate the same inputs")
	}
}

func TestOversizedBatchIsRefused(t *testing.T) {
	s, _ := findSpec("bulk-bytes")
	s.gen = genUniform(40, 1024, 1024, func(kb float64, _ *rand.Rand) job {
		return job{task: tasks.MaxInt{}, input: bytes.Repeat([]byte("1\n"), int(kb*512))}
	})
	if _, err := generate(s, 1); err == nil {
		t.Error("a 40 MB batch was accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code's tables equal, in
// both directions, and inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the file, %d in the code", kind, len(got), len(want))
		}
		for i, e := range got {
			name(e.Name)
			m := want[i]
			if e.Name != m.name || e.Unit != m.unit || e.Better != m.better || !unitRE.MatchString(e.Unit) {
				t.Errorf("%s %d: file has %+v, code has %s/%s/%s", kind, i, e, m.name, m.unit, m.better)
			}
			if bounded != (e.Bound != nil) || (bounded && (*e.Bound != m.bound || m.bound <= 0 || m.bound > 0.25)) {
				t.Errorf("%s %s: bound in file %v, in code %v", kind, e.Name, e.Bound, m.bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 || len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", file.RunSeconds, file.Paths)
	}
	// 4 + 22 runs per workload, each measuring run_seconds plus about a
	// third again for input generation, teardown and recovery, must fit
	// the driver's 3420 s with two builds to spare.
	if total := float64(4+22*len(workloads)) * float64(file.RunSeconds) * 1.35; total > 3200 {
		t.Errorf("the driver's runs would take about %.0f s", total)
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{name: "makespan_s", better: "lower", bound: 0.10}
	higher := metric{name: "rate", better: "higher", bound: 0.10}
	for _, tc := range []struct {
		m    metric
		a, b []float64
		want string
	}{
		{lower, []float64{10, 10.1, 10.2}, []float64{10.05, 10.1, 10.3}, "within bound"},
		{lower, []float64{10, 10.1, 10.2}, []float64{11.5, 11.6, 11.7}, "worse"},
		{lower, []float64{10, 10.1, 10.2}, []float64{9, 9.1, 9.2}, "better"},
		{lower, []float64{8, 10, 12}, []float64{9, 10.5, 13}, "unresolved"},
		{lower, []float64{8, 10, 12}, []float64{5, 6, 7}, "better"},
		{higher, []float64{100, 101, 102}, []float64{80, 81, 82}, "worse"},
		{higher, []float64{100, 101, 102}, []float64{120, 121, 122}, "better"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v vs %v: %s, want %s", tc.m.better, tc.a, tc.b, got, tc.want)
		}
	}
}
