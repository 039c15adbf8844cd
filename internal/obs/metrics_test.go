package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketMath(t *testing.T) {
	h := newHistogram(nil)
	if len(h.bounds) != 25 {
		t.Fatalf("default buckets: got %d bounds, want 25", len(h.bounds))
	}
	if h.bounds[0] != 0.0625 || h.bounds[len(h.bounds)-1] != math.Ldexp(1, 20) {
		t.Fatalf("bounds span [%v, %v], want [0.0625, 2^20]",
			h.bounds[0], h.bounds[len(h.bounds)-1])
	}
	for i := 1; i < len(h.bounds); i++ {
		if h.bounds[i] != 2*h.bounds[i-1] {
			t.Fatalf("bounds not log-2 scale at %d: %v then %v", i, h.bounds[i-1], h.bounds[i])
		}
	}

	// An observation exactly on a bound lands in that bound's bucket
	// (cumulative le semantics), one just above in the next.
	h.Observe(1.0)
	h.Observe(1.0000001)
	h.Observe(0.001)             // below the lowest bound
	h.Observe(math.Ldexp(1, 21)) // above the highest bound → overflow
	idx1 := 4                    // bounds: 1/16, 1/8, 1/4, 1/2, 1 → index 4
	if h.bounds[idx1] != 1 {
		t.Fatalf("bound layout changed: bounds[%d] = %v", idx1, h.bounds[idx1])
	}
	if got := h.counts[idx1].Load(); got != 1 {
		t.Errorf("bucket le=1 holds %d, want exactly the v=1 observation", got)
	}
	if got := h.counts[idx1+1].Load(); got != 1 {
		t.Errorf("bucket le=2 holds %d, want exactly the v=1.0000001 observation", got)
	}
	if got := h.counts[0].Load(); got != 1 {
		t.Errorf("lowest bucket holds %d, want the v=0.001 underflow", got)
	}
	if got := h.counts[len(h.bounds)].Load(); got != 1 {
		t.Errorf("+Inf bucket holds %d, want the 2^21 overflow", got)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	wantSum := 1.0 + 1.0000001 + 0.001 + math.Ldexp(1, 21)
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram(nil)
	for i := 0; i < 90; i++ {
		h.Observe(0.5) // ≤ 0.5 bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(100) // ≤ 128 bucket
	}
	if q := h.Quantile(0.5); q != 0.5 {
		t.Errorf("p50 = %v, want 0.5", q)
	}
	if q := h.Quantile(0.99); q != 128 {
		t.Errorf("p99 = %v, want 128 (bucket upper bound)", q)
	}
	empty := newHistogram(nil)
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
}

func TestHistogramQuantileOverflowClamps(t *testing.T) {
	// Observations past the last finite bound land in the +Inf bucket;
	// quantiles that resolve there must clamp to the last finite bound
	// instead of returning +Inf, so dashboards stay plottable.
	h := newHistogram(nil)
	last := h.bounds[len(h.bounds)-1] // 2^20 for DefaultBuckets
	for i := 0; i < 10; i++ {
		h.Observe(last * 4)
	}
	for _, q := range []float64{0.5, 0.99, 1.0} {
		got := h.Quantile(q)
		if math.IsInf(got, 1) {
			t.Fatalf("Quantile(%v) = +Inf, want clamp to %v", q, last)
		}
		if got != last {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, last)
		}
	}

	// Same clamp on custom bounds.
	hc := newHistogram([]float64{1, 2, 4})
	hc.Observe(100)
	if got := hc.Quantile(0.99); got != 4 {
		t.Errorf("custom-bounds overflow quantile = %v, want 4", got)
	}

	// Mixed population: quantiles below the overflow mass still resolve
	// to their finite buckets.
	hm := newHistogram(nil)
	for i := 0; i < 90; i++ {
		hm.Observe(1)
	}
	for i := 0; i < 10; i++ {
		hm.Observe(last * 2)
	}
	if got := hm.Quantile(0.5); got != 1 {
		t.Errorf("mixed p50 = %v, want 1", got)
	}
	if got := hm.Quantile(0.99); got != last {
		t.Errorf("mixed p99 = %v, want clamp to %v", got, last)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("test_ops_total").Inc()
				r.Counter("test_by_phone_total", "phone", []string{"0", "1", "2"}[w%3]).Inc()
				r.Gauge("test_level").Set(float64(i))
				r.Gauge("test_accum").Add(1)
				r.Histogram("test_latency_ms").Observe(float64(i%64) / 4)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("test_ops_total").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("test_accum").Value(); got != workers*perWorker {
		t.Errorf("gauge accum = %v, want %v", got, workers*perWorker)
	}
	if got := r.Histogram("test_latency_ms").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var perPhone int64
	for _, p := range []string{"0", "1", "2"} {
		perPhone += r.Counter("test_by_phone_total", "phone", p).Value()
	}
	if perPhone != workers*perWorker {
		t.Errorf("labeled counters sum to %d, want %d", perPhone, workers*perWorker)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("app_requests_total", "requests served").Add(7)
	r.Counter("app_errors_total", "reason", "timeout").Add(2)
	r.Gauge("app_temperature").Set(36.6)
	r.Histogram("app_latency_ms").Observe(0.5)
	r.Histogram("app_latency_ms").Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP app_requests_total requests served",
		"# TYPE app_requests_total counter",
		"app_requests_total 7",
		`app_errors_total{reason="timeout"} 2`,
		"# TYPE app_temperature gauge",
		"app_temperature 36.6",
		"# TYPE app_latency_ms histogram",
		`app_latency_ms_bucket{le="0.5"} 1`,
		`app_latency_ms_bucket{le="4"} 2`,
		`app_latency_ms_bucket{le="+Inf"} 2`,
		"app_latency_ms_sum 3.5",
		"app_latency_ms_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Deterministic: two renders are identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("exposition is not deterministic across renders")
	}
}

func TestHistogramWithLabelsExposition(t *testing.T) {
	r := NewRegistry()
	r.Histogram("op_ms", "op", "fsync").Observe(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`op_ms_bucket{op="fsync",le="1"} 1`,
		`op_ms_sum{op="fsync"} 1`,
		`op_ms_count{op="fsync"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labeled histogram exposition missing %q\n---\n%s", want, out)
		}
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter went down: %d", c.Value())
	}
}

// TestSeriesNameQuoting pins SeriesName to the fmt form it replaced,
// family{k="v"} with each value formatted by %q, on values that need
// escaping.
func TestSeriesNameQuoting(t *testing.T) {
	fmtForm := func(family string, labels ...string) string {
		var b strings.Builder
		b.WriteString(family)
		b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
		}
		b.WriteByte('}')
		return b.String()
	}
	for _, v := range []string{
		"", "plain", `say "hi"`, `back\slash`, "new\nline", "tab\there",
		"héllo 日本", "\xff\xfe invalid", "nul\x00", "bell\a", "\u2028",
	} {
		for _, labels := range [][]string{{"k", v}, {"a", "1", "k", v}, {"k", v, "odd"}} {
			if got, want := SeriesName("x_total", labels...), fmtForm("x_total", labels...); got != want {
				t.Errorf("SeriesName(%q) = %s, want %s", labels, got, want)
			}
		}
	}
	if got := SeriesName("x_total"); got != "x_total" {
		t.Errorf("SeriesName without labels = %s, want the family", got)
	}
}

// TestLabelledLookupAllocs requires a lookup of an existing labelled
// series by name to allocate nothing: handles are built from these
// lookups, and a reader outside the declaring package (a benchmark, a
// test) reads series by name.
func TestLabelledLookupAllocs(t *testing.T) {
	r := NewRegistry()
	r.Counter("cwc_frames_received_total", "type", "result").Inc()
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("cwc_frames_received_total", "type", "result").Inc()
		r.Gauge("g", "phone", "7").Set(1)
		r.Histogram("h_ms", "phase", "plan").Observe(2)
	})
	if allocs != 0 {
		t.Errorf("labelled lookups allocate %v times, want 0", allocs)
	}
	if got := r.Counter("cwc_frames_received_total", "type", "result").Value(); got != 102 {
		t.Errorf("counter = %d, want 102", got)
	}
}

// TestFamilyKeepsOneKind: a family's kind is fixed by its first series;
// a series of another kind under the same family name panics, whatever
// its labels, so the exposition's one TYPE line per family is true.
func TestFamilyKeepsOneKind(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "a", "1")
	defer func() {
		if recover() == nil {
			t.Error("a gauge series of a counter family did not panic")
		}
	}()
	r.Gauge("x_total", "a", "2")
}

// TestCountersDeclareEverySeries: a labelled declaration creates one
// series per value up front, with the family's help, and labels the
// empty value "other".
func TestCountersDeclareEverySeries(t *testing.T) {
	type kind string
	r := NewRegistry()
	set := Counters(r, "x_total", "things by kind", "kind", []kind{"", "a", "b"})
	set["a"].Inc()
	if n := r.SeriesCount(); n != 3 {
		t.Fatalf("declaration created %d series, want 3", n)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# HELP x_total things by kind", `x_total{kind="other"} 0`, `x_total{kind="a"} 1`, `x_total{kind="b"} 0`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q\n%s", want, b.String())
		}
	}
}
