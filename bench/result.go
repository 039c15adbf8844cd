package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// maxProbeErr is the median probed-vs-configured b_i error above which a
// run is marked invalid: the host was too loaded to emulate the links.
const maxProbeErr = 0.10

// result is one run of one workload: what the driver's last line is cut
// from, and what the all-workloads mode and compare read back.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`

	// EndToEnd is, per timing metric, the median over the samples of the
	// run's untraced episodes (one per batch or per deployment) and, per
	// byte-count metric, total bytes over total input;
	// Quartiles holds [q1, q3] of the samples, Samples their count.
	EndToEnd  map[string]float64    `json:"end_to_end"`
	Quartiles map[string][2]float64 `json:"quartiles"`
	Samples   map[string]int        `json:"samples"`
	// PerLayer is filled by traced runs only.
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// SpanSelfMs is, per span name, total duration minus the part child
	// spans cover, over the traced episodes.
	SpanSelfMs map[string]float64 `json:"span_self_ms,omitempty"`
	SpansFile  string             `json:"spans_file,omitempty"`

	Episodes     int     `json:"episodes"`
	InputsSHA256 string  `json:"inputs_sha256"`
	InputMB      float64 `json:"input_mb"`
	Rounds       int     `json:"rounds"`

	// Run-validity guards.
	ProbeErrP50   float64  `json:"probe_err_p50"`
	LatenessMsMax float64  `json:"generator_lateness_ms_max"`
	Stragglers    int      `json:"stragglers"`
	Unplugged     int      `json:"unplugged"`
	Valid         bool     `json:"valid"`
	Notes         []string `json:"notes,omitempty"`
}

// endToEndSamples pools the episodes' end-to-end samples: one per batch
// for the closed loop's numbers, one per deployment for set-up.
func endToEndSamples(eps []*episode) map[string][]float64 {
	out := map[string][]float64{}
	add := func(name string, v float64) { out[name] = append(out[name], v) }
	for _, ep := range eps {
		add("setup_s", ep.setup.Seconds())
		for _, b := range ep.batches {
			in := float64(b.inputBytes)
			ms := float64(b.makespan) / float64(time.Millisecond)
			add("makespan_s", b.makespan.Seconds())
			add("makespan_over_predicted", float64(b.sumWall)/float64(time.Millisecond)/b.sumPredMs)
			add("makespan_over_lp_bound", ms/b.lpBoundMs)
			add("wire_bytes_per_input_byte", float64(b.wireBytes)/in)
			add("wal_bytes_per_input_byte", float64(b.walBytes)/in)
			add("alloc_mb_per_input_mb", float64(b.allocBytes)/in)
		}
	}
	return out
}

// byteRatios is the three per-input-byte metrics over all batches of the
// episodes: total bytes over total input. Allocation per batch is bimodal
// (it depends on whether a collection emptied the encoders' buffer pools
// mid-batch), so a median of batches flips between the modes from run to
// run; the ratio of totals does not.
func byteRatios(eps []*episode) map[string]float64 {
	var in, wire, wal, alloc float64
	for _, ep := range eps {
		for _, b := range ep.batches {
			in += float64(b.inputBytes)
			wire += float64(b.wireBytes)
			wal += float64(b.walBytes)
			alloc += float64(b.allocBytes)
		}
	}
	return map[string]float64{
		"wire_bytes_per_input_byte": wire / in,
		"wal_bytes_per_input_byte":  wal / in,
		"alloc_mb_per_input_mb":     alloc / in,
	}
}

// runWorkload is one run: generate the inputs from the seed, then run
// episodes (fresh deployments) until the measuring time is spent, then
// fold their numbers. A traced run records spans on every second episode,
// keeps the others as its untraced control, and ends with the micro loops
// (microReps samples each; none at 0, for the smoke test).
// scratch is an existing directory the run may fill and must leave empty.
func runWorkload(ctx context.Context, s spec, seed int64, measure time.Duration, traced bool, microReps int, scratch, spansPath string) (*result, error) {
	in, err := generate(s, seed)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: s.name, Seed: seed, Seconds: measure.Seconds(), Traced: traced,
		InputsSHA256: in.sha256,
		EndToEnd:     map[string]float64{}, Quartiles: map[string][2]float64{}, Samples: map[string]int{},
	}
	var rec *recorder
	minEpisodes := 1
	if traced {
		rec = &recorder{}
		minEpisodes = 2 // one traced, one control
	}

	var control, tracedEps []*episode
	var cpu0 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &cpu0) // cannot fail for RUSAGE_SELF
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	start := time.Now()
	next := 0
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		// Start another episode only if at least half of it fits.
		if i >= minEpisodes && elapsed+elapsed/time.Duration(2*i) > measure {
			break
		}
		dir := filepath.Join(scratch, fmt.Sprintf("episode-%d", i))
		epRec := rec
		if i%2 == 1 {
			epRec = nil
		}
		ep, err := runEpisode(ctx, s, in, i, dir, epRec, &next)
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if ep.traced {
			tracedEps = append(tracedEps, ep)
		} else {
			control = append(control, ep)
		}
	}
	var cpu1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &cpu1)
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)

	all := append(append([]*episode(nil), control...), tracedEps...)
	res.Episodes = len(all)
	var probeErr, lateness []float64
	var inputBytes int64
	for _, ep := range all {
		res.Attempted += ep.jobs
		res.Failed += ep.failed
		res.Rounds += ep.rounds
		res.Stragglers += ep.stragglers
		res.Unplugged += ep.unplugged
		inputBytes += ep.inputBytes
		probeErr = append(probeErr, median(ep.probeErr))
		lateness = append(lateness, millis(ep.lateness)...)
	}
	res.InputMB = float64(inputBytes) / (1 << 20)
	res.Correct = res.Failed == 0
	res.ProbeErrP50 = median(probeErr)
	res.LatenessMsMax = quantile(lateness, 1)
	res.Valid = true
	if res.ProbeErrP50 > maxProbeErr {
		res.Valid = false
		res.Notes = append(res.Notes, fmt.Sprintf("median b_i probe error %.1f%% is over %.0f%%: the host was too loaded to emulate the links",
			100*res.ProbeErrP50, 100*maxProbeErr))
	}
	if res.Stragglers > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d assignments blew their deadline and were speculated", res.Stragglers))
	}
	if want := len(s.unplugs) * len(all); res.Unplugged != want {
		res.Valid = false
		res.Notes = append(res.Notes, fmt.Sprintf("%d of %d planned unplugs fired", res.Unplugged, want))
	}

	totals := byteRatios(control)
	for name, vals := range endToEndSamples(control) {
		res.EndToEnd[name] = median(vals)
		if total, ok := totals[name]; ok {
			res.EndToEnd[name] = total
		}
		res.Quartiles[name] = [2]float64{quantile(vals, 0.25), quantile(vals, 0.75)}
		res.Samples[name] = len(vals)
	}
	if !traced {
		return res, nil
	}

	res.PerLayer = layerMetrics(tracedEps, control)
	mb := float64(inputBytes) / (1 << 20)
	res.PerLayer["cluster.cpu_user_s_per_mb"] = (tvSeconds(cpu1.Utime) - tvSeconds(cpu0.Utime)) / mb
	res.PerLayer["cluster.cpu_sys_s_per_mb"] = (tvSeconds(cpu1.Stime) - tvSeconds(cpu0.Stime)) / mb
	res.PerLayer["cluster.max_rss_mb"] = float64(cpu1.Maxrss) / 1024 // Linux reports KB
	res.PerLayer["cluster.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	if microReps > 0 {
		if err := microAll(res.PerLayer, seed, microReps, scratch); err != nil {
			return nil, fmt.Errorf("micro loops: %w", err)
		}
	}
	res.SpanSelfMs = map[string]float64{}
	for name, d := range rec.selfTimes() {
		res.SpanSelfMs[name] = float64(d) / float64(time.Millisecond)
	}
	if spansPath != "" {
		if err := rec.writeJSONL(spansPath); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		res.SpansFile = spansPath
	}
	return res, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// layerMetrics folds the traced episodes' layer numbers: medians over the
// pooled per-call samples, per-episode medians of the per-episode totals.
func layerMetrics(tracedEps, control []*episode) map[string]float64 {
	var submit, plan, dispatch, idle, predErr, lag, probeErr []float64
	var rounds, requeued, partsPerJob, measure, recoverAll, recoverWAL, replay, fold, compact []float64
	var execMs, transferKB, ckpt, recompute, telemetry []float64
	for _, ep := range tracedEps {
		submit = append(submit, millis(ep.submitAck)...)
		plan = append(plan, millis(ep.roundPlan)...)
		dispatch = append(dispatch, millis(ep.roundDispatch)...)
		idle = append(idle, ep.idleFrac...)
		predErr = append(predErr, ep.predErr...)
		lag = append(lag, ep.lag...)
		probeErr = append(probeErr, ep.probeErr...)
		rounds = append(rounds, float64(ep.rounds))
		requeued = append(requeued, float64(ep.requeued))
		partsPerJob = append(partsPerJob, float64(ep.assigns)/float64(ep.jobs))
		measure = append(measure, ep.measure.Seconds())
		recoverAll = append(recoverAll, seconds(ep.recover)...)
		recoverWAL = append(recoverWAL, median(millis(ep.recoverWAL)))
		replay = append(replay, float64(ep.walBytes)/(1<<20)/median(seconds(ep.recoverOpen)))
		fold = append(fold, ep.foldRecPerS)
		compact = append(compact, float64(ep.compactWAL)/float64(time.Millisecond))
		execMs = append(execMs, ep.execMs)
		transferKB = append(transferKB, ep.transferKB)
		ckpt = append(ckpt, float64(ep.ckptFrames))
		recompute = append(recompute, ep.transferKB-float64(ep.inputBytes)/1024)
		telemetry = append(telemetry, float64(ep.telemetry))
	}
	makespan := endToEndSamples(tracedEps)["makespan_s"]
	controlMakespan := endToEndSamples(control)["makespan_s"]
	return map[string]float64{
		"server.submit_ack_ms_p50":       median(submit),
		"server.submit_ack_ms_p90":       quantile(submit, 0.9),
		"server.round_plan_ms_p50":       median(plan),
		"server.round_dispatch_ms_p50":   median(dispatch),
		"server.rounds":                  median(rounds),
		"server.requeued_items":          median(requeued),
		"server.phone_idle_frac":         median(idle),
		"server.partitions_per_job":      median(partsPerJob),
		"server.predicted_err_p50":       median(predErr),
		"server.measure_bandwidths_s":    median(measure),
		"server.b_probe_err_p50":         median(probeErr),
		"server.recover_s":               median(recoverAll),
		"server.recover_wal_ms":          median(recoverWAL),
		"server.walfold_apply_rec_per_s": median(fold),
		"server.compact_wal_ms":          median(compact),
		"wal.open_replay_mb_s":           median(replay),
		"worker.exec_ms_total":           median(execMs),
		"worker.transfer_kb_total":       median(transferKB),
		"worker.ckpt_frames":             median(ckpt),
		"worker.recompute_kb":            median(recompute),
		"replica.ship_lag_records_max":   quantile(lag, 1),
		"replica.ship_lag_records_p50":   median(lag),
		"obs.telemetry_frames":           median(telemetry),
		"obs.trace_overhead_frac":        median(makespan)/median(controlMakespan) - 1,
	}
}
