// Package obs is CWC's dependency-free observability substrate: a
// metrics registry (counters, gauges, log-scale histograms) with
// Prometheus text-format exposition, a task-lifecycle tracer (span
// events in a bounded ring with an optional JSONL sink), and a
// structured, leveled logger. The paper evaluates CWC by comparing
// predicted and actual completion times (Fig. 6), scheduler makespans
// (Fig. 12) and an LP lower bound (Fig. 13); this package is how a
// *running* master exposes those same numbers instead of burying them
// in test output.
//
// Everything here is deliberately free of third-party dependencies and
// cheap enough to stay enabled unconditionally: recording a metric is
// one or two atomic operations, and the HTTP admin plane that serves
// the data (internal/server) is off unless explicitly bound.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Safe for concurrent use;
// one atomic add per increment.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters never go down).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (float64). Safe for
// concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d (CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed log-scale buckets.
// Observation is lock-free: a binary search over the bounds plus two
// atomic adds.
type Histogram struct {
	bounds []float64      // upper bucket bounds, ascending
	counts []atomic.Int64 // len(bounds)+1; last is +Inf overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// DefaultBuckets returns the registry's default histogram bounds: powers
// of two from 1/16 up to 2^20, which in milliseconds spans a fast fsync
// (~60 µs) to a ~17-minute makespan in 25 buckets.
func DefaultBuckets() []float64 {
	bounds := make([]float64, 0, 25)
	for exp := -4; exp <= 20; exp++ {
		bounds = append(bounds, math.Ldexp(1, exp))
	}
	return bounds
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets()
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound >= v (cumulative "le" semantics).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile returns an estimate of the q-quantile (0..1) assuming
// observations sit at their bucket's upper bound; good enough for
// operator dashboards, not for billing. Observations beyond the last
// finite bucket clamp to that bound rather than reporting +Inf — a
// dashboard fed "Inf ms" is strictly less useful than "at least 2^20
// ms", and JSON cannot carry the infinity anyway.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	last := 0.0
	if len(h.bounds) > 0 {
		last = h.bounds[len(h.bounds)-1]
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return last
		}
	}
	return last
}

// metricKind discriminates registry entries for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named metrics and renders them in the Prometheus text
// format. Series are created on first use and never removed; lookups
// take a read lock, recording is atomic. A package that records metrics
// declares its families once, with NewCounter/NewGauge/NewHistogram or
// Counters/Gauges, and records through the handles they return.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*metric    // guarded by mu
	kinds  map[string]metricKind // guarded by mu; by family name
	help   map[string]string     // guarded by mu; by family name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: map[string]*metric{}, kinds: map[string]metricKind{}, help: map[string]string{}}
}

// SeriesName formats a full series name from a family name and
// label key/value pairs: SeriesName("x_total", "reason", "keepalive")
// is `x_total{reason="keepalive"}`. Label values are quoted as Go
// quotes strings, which escapes the backslash, the double quote and the
// newline as the Prometheus text format asks.
func SeriesName(family string, labels ...string) string {
	if len(labels) == 0 {
		return family
	}
	return string(appendSeriesName(nil, family, labels))
}

// appendSeriesName appends SeriesName(family, labels...) to b.
func appendSeriesName(b []byte, family string, labels []string) []byte {
	b = append(b, family...)
	if len(labels) == 0 {
		return b
	}
	b = append(b, '{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, labels[i]...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, labels[i+1])
	}
	return append(b, '}')
}

// getOrCreate returns the series family{labels}, creating it with mk if
// needed. A lookup of an existing series allocates nothing: the name is
// built on the stack and only copied out when a series is created. A
// family keeps the kind its first series was created with; asking for
// another kind panics.
func (r *Registry) getOrCreate(family string, labels []string, kind metricKind, mk func() *metric) *metric {
	var buf [128]byte
	key := appendSeriesName(buf[:0], family, labels)
	r.mu.RLock()
	m, ok := r.series[string(key)]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		defer r.mu.Unlock()
		if m, ok = r.series[string(key)]; !ok {
			if k, seen := r.kinds[family]; seen && k != kind {
				panic(fmt.Sprintf("obs: family %q re-registered as a different kind", family))
			}
			r.kinds[family] = kind
			m = mk()
			r.series[string(key)] = m
		}
	}
	if m.kind != kind {
		panic(fmt.Sprintf("obs: series %q re-registered as a different kind", string(key)))
	}
	return m
}

// Counter returns the named counter, creating it if needed. Optional
// labels are key/value pairs folded into the series name.
func (r *Registry) Counter(family string, labels ...string) *Counter {
	return r.getOrCreate(family, labels, kindCounter, func() *metric {
		return &metric{kind: kindCounter, c: &Counter{}}
	}).c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(family string, labels ...string) *Gauge {
	return r.getOrCreate(family, labels, kindGauge, func() *metric {
		return &metric{kind: kindGauge, g: &Gauge{}}
	}).g
}

// Histogram returns the named histogram with the default log-scale
// buckets, creating it if needed.
func (r *Registry) Histogram(family string, labels ...string) *Histogram {
	return r.getOrCreate(family, labels, kindHistogram, func() *metric {
		return &metric{kind: kindHistogram, h: newHistogram(nil)}
	}).h
}

// NewCounter declares a counter family with its help text and returns
// its series for labels (key/value pairs).
func (r *Registry) NewCounter(family, help string, labels ...string) *Counter {
	r.setHelp(family, help)
	return r.Counter(family, labels...)
}

// NewGauge declares a gauge family with its help text and returns its
// series for labels.
func (r *Registry) NewGauge(family, help string, labels ...string) *Gauge {
	r.setHelp(family, help)
	return r.Gauge(family, labels...)
}

// NewHistogram declares a histogram family with its help text and
// returns its series for labels.
func (r *Registry) NewHistogram(family, help string, labels ...string) *Histogram {
	r.setHelp(family, help)
	return r.Histogram(family, labels...)
}

func (r *Registry) setHelp(family, help string) {
	r.mu.Lock()
	r.help[family] = help
	r.mu.Unlock()
}

// Counters declares a counter family with one label whose whole domain
// is values and creates every series now, so recording never creates
// one. It returns the series by value. The empty value is labelled
// "other": it stands for a field its sender left unset.
func Counters[V ~string](r *Registry, family, help, label string, values []V) map[V]*Counter {
	set := make(map[V]*Counter, len(values))
	for _, v := range values {
		set[v] = r.NewCounter(family, help, label, labelValue(string(v)))
	}
	return set
}

// Gauges is Counters for a gauge family.
func Gauges[V ~string](r *Registry, family, help, label string, values []V) map[V]*Gauge {
	set := make(map[V]*Gauge, len(values))
	for _, v := range values {
		set[v] = r.NewGauge(family, help, label, labelValue(string(v)))
	}
	return set
}

func labelValue(v string) string {
	if v == "" {
		return "other"
	}
	return v
}

// SeriesCount returns how many series are registered (histograms count
// once, not per bucket).
func (r *Registry) SeriesCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.series)
}

// family strips the label part off a full series name.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelPart returns the {...} suffix of a series name, or "".
func labelPart(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[i:]
	}
	return ""
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered series in the Prometheus
// text exposition format (version 0.0.4), sorted for determinism.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.series))
	for n := range r.series {
		names = append(names, n)
	}
	snapshot := make(map[string]*metric, len(r.series))
	for n, m := range r.series {
		snapshot[n] = m
	}
	helps := make(map[string]string, len(r.help))
	for k, v := range r.help {
		helps[k] = v
	}
	r.mu.RUnlock()

	// Group by family so # TYPE headers are emitted once per family.
	sort.Slice(names, func(i, j int) bool {
		fi, fj := family(names[i]), family(names[j])
		if fi != fj {
			return fi < fj
		}
		return names[i] < names[j]
	})
	lastFamily := ""
	for _, name := range names {
		m := snapshot[name]
		fam := family(name)
		if fam != lastFamily {
			lastFamily = fam
			if h, ok := helps[fam]; ok {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, h); err != nil {
					return err
				}
			}
			typ := "counter"
			switch m.kind {
			case kindGauge:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, typ); err != nil {
				return err
			}
		}
		switch m.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "%s %d\n", name, m.c.Value()); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(m.g.Value())); err != nil {
				return err
			}
		case kindHistogram:
			if err := writeHistogram(w, fam, labelPart(name), m.h); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one histogram as cumulative buckets plus _sum
// and _count, merging an existing label set with the le label.
func writeHistogram(w io.Writer, fam, labels string, h *Histogram) error {
	withLE := func(le string) string {
		if labels == "" {
			return fmt.Sprintf("%s_bucket{le=%q}", fam, le)
		}
		return fmt.Sprintf("%s_bucket%s,le=%q}", fam, labels[:len(labels)-1], le)
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s %d\n", withLE(formatFloat(bound)), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s %d\n", withLE("+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam, labels, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam, labels, h.Count())
	return err
}
