package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"cwc/internal/core"
	"cwc/internal/expt"
	"cwc/internal/obs"
	"cwc/internal/predict"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
	"cwc/internal/wal"
)

// The micro loops time fixed iteration counts over each layer's public
// API. They run after a traced run's episodes, never beside them.

// micro is one pass over the micro loops: reps samples of each timed loop
// (the metric is their median), results into out.
type micro struct {
	reps int
	out  map[string]float64
	rng  *rand.Rand
}

// timeMedian runs fn reps times and returns the median duration.
func (mc *micro) timeMedian(fn func() error) (time.Duration, error) {
	var ds []time.Duration
	for r := 0; r < mc.reps; r++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return time.Duration(median(seconds(ds)) * float64(time.Second)), nil
}

func mbPerS(bytes int, d time.Duration) float64 {
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// microAll runs every micro loop into out. dir is scratch space.
func microAll(out map[string]float64, seed int64, reps int, dir string) error {
	mc := &micro{reps: reps, out: out, rng: rand.New(rand.NewSource(seed))}
	for _, f := range []func() error{mc.tasks, mc.protocol, mc.core, mc.obs} {
		if err := f(); err != nil {
			return err
		}
	}
	return mc.wal(dir)
}

// sink keeps results alive so the compiler cannot drop a timed call.
var sink any

func (mc *micro) tasks() error {
	out, rng := mc.out, mc.rng
	img, err := tasks.GenImageKB(1024, rng)
	if err != nil {
		return err
	}
	ints := tasks.GenIntegers(1024, 100000, rng)
	kernels := []struct {
		metric string
		task   tasks.Task
		input  []byte
	}{
		{"tasks.primecount_mb_s", tasks.PrimeCount{}, ints},
		{"tasks.wordcount_mb_s", tasks.WordCount{Word: "inventory"}, tasks.GenText(1024, rng)},
		{"tasks.maxint_mb_s", tasks.MaxInt{}, tasks.GenIntegers(1024, 1<<40, rng)},
		{"tasks.blur_mb_s", tasks.Blur{}, img},
	}
	for _, k := range kernels {
		d, err := mc.timeMedian(func() error {
			res, err := k.task.Process(context.Background(), k.input, &tasks.Checkpoint{})
			sink = res
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", k.metric, err)
		}
		out[k.metric] = mbPerS(len(k.input), d)
	}

	const digests = 8
	d, _ := mc.timeMedian(func() error {
		for i := 0; i < digests; i++ {
			sink = tasks.Digest(ints)
		}
		return nil
	})
	out["tasks.digest_mb_s"] = mbPerS(digests*len(ints), d)
	return nil
}

// countingConn counts the bytes written through it.
type countingConn struct {
	net.Conn
	written atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// protocol sends assignment-shaped frames over net.Pipe to an echo
// peer that answers each with a small result frame.
func (mc *micro) protocol() error {
	out, rng := mc.out, mc.rng
	a, b := net.Pipe()
	cc := &countingConn{Conn: a}
	client, server := protocol.NewConn(cc), protocol.NewConn(b)
	defer client.Close()
	done := make(chan error, 1)
	go func() {
		defer server.Close()
		for {
			m, err := server.Recv()
			if err != nil {
				done <- nil // the client closed: the loop is over
				return
			}
			reply := &protocol.Message{Type: protocol.TypeResult, JobID: m.JobID, Epoch: m.Epoch, Result: []byte("1")}
			if m.Type == protocol.TypePing {
				reply = &protocol.Message{Type: protocol.TypePong, Seq: m.Seq}
			}
			if err := server.Send(reply); err != nil {
				done <- err
				return
			}
		}
	}()
	roundTrips := func(m *protocol.Message, n int) error {
		for i := 0; i < n; i++ {
			if err := client.Send(m); err != nil {
				return err
			}
			r, err := client.Recv()
			if err != nil {
				return err
			}
			sink = r
		}
		return nil
	}
	payload := func(n int) []byte {
		p := make([]byte, n)
		rng.Read(p)
		return p
	}

	big := &protocol.Message{Type: protocol.TypeAssign, JobID: 1, Task: "maxint", Input: payload(4 << 20)}
	const bigTrips = 4
	d, err := mc.timeMedian(func() error { return roundTrips(big, bigTrips) })
	if err != nil {
		return err
	}
	out["protocol.roundtrip_4mb_mb_s"] = mbPerS(bigTrips*len(big.Input), d)

	mid := &protocol.Message{Type: protocol.TypeAssign, JobID: 1, Task: "maxint", Input: payload(64 << 10)}
	const midTrips = 64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, wire0 := ms.TotalAlloc, cc.written.Load()
	d, err = mc.timeMedian(func() error { return roundTrips(mid, midTrips) })
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms)
	sent := float64(mc.reps * midTrips * len(mid.Input))
	out["protocol.roundtrip_64kb_mb_s"] = mbPerS(midTrips*len(mid.Input), d)
	out["protocol.alloc_bytes_per_payload_byte"] = float64(ms.TotalAlloc-alloc0) / sent
	out["protocol.wire_bytes_per_payload_byte"] = float64(cc.written.Load()-wire0) / sent

	ping := &protocol.Message{Type: protocol.TypePing, Seq: 7}
	const pings = 2000
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	d, err = mc.timeMedian(func() error { return roundTrips(ping, pings) })
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms)
	// A round trip is two frames, each sent once and received once.
	frames := float64(mc.reps * pings * 2)
	out["protocol.small_frame_us"] = float64(d.Nanoseconds()) / 1e3 / (pings * 2)
	out["protocol.small_frame_allocs"] = float64(ms.Mallocs-mallocs0) / frames
	client.Close()
	return <-done
}

// gridInstance is a seeded phones×jobs scheduling instance in the paper's
// ranges, for packing sizes the testbed does not reach.
func gridInstance(rng *rand.Rand, phones, jobs int) *core.Instance {
	inst := &core.Instance{}
	for i := 0; i < phones; i++ {
		inst.Phones = append(inst.Phones, core.Phone{ID: i, BMsPerKB: 1 + rng.Float64()*69})
	}
	for j := 0; j < jobs; j++ {
		inst.Jobs = append(inst.Jobs, core.Job{
			ID: j, Task: "t", ExecKB: 10, InputKB: 100 + rng.Float64()*2900, Atomic: j%3 == 2,
		})
	}
	inst.C = make([][]float64, phones)
	for i := range inst.C {
		inst.C[i] = make([]float64, jobs)
		for j := range inst.C[i] {
			inst.C[i][j] = 5 + rng.Float64()*115
		}
	}
	return inst
}

func (mc *micro) core() error {
	out, rng := mc.out, mc.rng
	tb, err := expt.NewTestbed(rng)
	if err != nil {
		return err
	}
	paper := tb.Instance(expt.PaperWorkload(rng, 1))
	var makespan float64
	for _, g := range []struct {
		metric string
		inst   *core.Instance
	}{
		{"core.greedy_ms_18x150", paper},
		{"core.greedy_ms_50x500", gridInstance(rng, 50, 500)},
		{"core.greedy_ms_128x512", gridInstance(rng, 128, 512)},
	} {
		d, err := mc.timeMedian(func() error {
			sched, err := core.Greedy(g.inst)
			if err == nil && g.inst == paper {
				makespan = sched.Makespan
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", g.metric, err)
		}
		out[g.metric] = float64(d) / float64(time.Millisecond)
	}
	// The LP takes half a second: one sample.
	t0 := time.Now()
	lb, err := core.RelaxedLowerBound(paper)
	if err != nil {
		return err
	}
	out["core.relaxed_lb_ms_18x150"] = float64(time.Since(t0)) / float64(time.Millisecond)
	out["core.greedy_over_lp_18x150"] = makespan / lb

	est, err := predict.New(806, 1)
	if err != nil {
		return err
	}
	if err := est.SetProfile("wordcount", 0.02); err != nil {
		return err
	}
	const estimates = 200000
	d, err := mc.timeMedian(func() error {
		for i := 0; i < estimates; i++ {
			c, err := est.Estimate("wordcount", i%128, 1200)
			if err != nil {
				return err
			}
			sink = c
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["predict.estimate_ns"] = float64(d.Nanoseconds()) / estimates
	return nil
}

func (mc *micro) obs() error {
	out := mc.out
	reg := obs.NewRegistry()
	ctr := reg.Counter("cwc_bench_counter_total")
	hist := reg.Histogram("cwc_bench_hist_ms")
	tracer := obs.NewTracer(4096)
	const n = 200000
	for _, l := range []struct {
		metric string
		op     func(i int)
	}{
		{"obs.counter_inc_ns", func(int) { ctr.Inc() }},
		{"obs.histogram_observe_ns", func(i int) { hist.Observe(float64(i % 1000)) }},
		{"obs.tracer_record_ns", func(i int) {
			tracer.Record(obs.SpanEvent{Span: "j1", Kind: obs.KindAssign, Job: 1, Partition: i, Phone: 3})
		}},
	} {
		d, _ := mc.timeMedian(func() error {
			for i := 0; i < n; i++ {
				l.op(i)
			}
			return nil
		})
		out[l.metric] = float64(d.Nanoseconds()) / n
	}
	return nil
}

func (mc *micro) wal(dir string) error {
	out := mc.out
	// appendLoop times n appends of size bytes under policy on a fresh log
	// and returns the duration and the log's bytes.
	appendLoop := func(name string, policy wal.SyncPolicy, n, size int) (time.Duration, int64, error) {
		payload := make([]byte, size)
		var logBytes int64
		rep := 0
		d, err := mc.timeMedian(func() error {
			rep++
			sub := filepath.Join(dir, fmt.Sprintf("%s-%d", name, rep))
			defer os.RemoveAll(sub)
			l, err := wal.Open(sub, wal.Options{Sync: policy})
			if err != nil {
				return err
			}
			defer l.Close()
			for i := 0; i < n; i++ {
				if err := l.Append(1, payload); err != nil {
					return err
				}
			}
			logBytes = l.LogBytes()
			return nil
		})
		return d, logBytes, err
	}
	const small, smallN, fsyncN = 256, 4096, 16
	d, logBytes, err := appendLoop("nosync", wal.SyncNone, smallN, small)
	if err != nil {
		return err
	}
	out["wal.append_nosync_ns_256b"] = float64(d.Nanoseconds()) / smallN
	out["wal.framing_bytes_per_payload_byte"] = float64(logBytes-small*smallN) / (small * smallN)
	if d, _, err = appendLoop("fsync", wal.SyncAlways, fsyncN, small); err != nil {
		return err
	}
	out["wal.append_fsync_us_256b"] = float64(d.Nanoseconds()) / 1e3 / fsyncN
	const bigN = 16
	if d, _, err = appendLoop("big", wal.SyncNone, bigN, 1<<20); err != nil {
		return err
	}
	out["wal.append_mb_s_1mb"] = mbPerS(bigN<<20, d)
	return nil
}
