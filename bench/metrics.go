package main

// metric describes one reported number. BENCHMARK.json lists the same
// names, units, directions and bounds; the smoke test keeps the two equal.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before compare calls it a regression.
	bound float64
	// moves names, for a per-layer metric, the end-to-end metric it should
	// move and on which workload: written down before measuring.
	moves string
}

// endToEnd is what the job submitter and the operator feel. Failed
// operations are not a metric here: every run reports them as its
// attempted/failed counts, and any failure fails compare outright.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "makespan_s", unit: "s", better: "lower", bound: 0.25},
	{name: "makespan_over_predicted", unit: "ratio", better: "lower", bound: 0.25},
	{name: "makespan_over_lp_bound", unit: "ratio", better: "lower", bound: 0.25},
	{name: "wire_bytes_per_input_byte", unit: "ratio", better: "lower", bound: 0.03},
	{name: "wal_bytes_per_input_byte", unit: "ratio", better: "lower", bound: 0.03},
	{name: "alloc_mb_per_input_mb", unit: "ratio", better: "lower", bound: 0.20},
}

// perLayer has one entry per layer (module) number, from the traced
// episodes of a traced run or from the micro loops after it.
var perLayer = []metric{
	{name: "tasks.primecount_mb_s", unit: "MB/s", better: "higher", moves: "cluster.cpu_user_s_per_mb everywhere; makespan_s on paper-mix only a little (delay-bound)"},
	{name: "tasks.wordcount_mb_s", unit: "MB/s", better: "higher", moves: "as tasks.primecount_mb_s; wide-fleet too"},
	{name: "tasks.maxint_mb_s", unit: "MB/s", better: "higher", moves: "cluster.cpu_user_s_per_mb on bulk-bytes"},
	{name: "tasks.blur_mb_s", unit: "MB/s", better: "higher", moves: "as tasks.primecount_mb_s"},
	{name: "tasks.digest_mb_s", unit: "MB/s", better: "higher", moves: "makespan_s on bulk-bytes (every result and checkpoint is digested twice)"},
	{name: "protocol.roundtrip_4mb_mb_s", unit: "MB/s", better: "higher", moves: "makespan_s, alloc_mb_per_input_mb on bulk-bytes and paper-mix; none on wide-fleet"},
	{name: "protocol.roundtrip_64kb_mb_s", unit: "MB/s", better: "higher", moves: "makespan_s on paper-mix; setup_s (the probe is one such frame)"},
	{name: "protocol.alloc_bytes_per_payload_byte", unit: "ratio", better: "lower", moves: "alloc_mb_per_input_mb on bulk-bytes and paper-mix"},
	{name: "protocol.wire_bytes_per_payload_byte", unit: "ratio", better: "lower", moves: "wire_bytes_per_input_byte everywhere, and through it makespan_s on the link-bound workloads"},
	{name: "protocol.small_frame_us", unit: "us", better: "lower", moves: "makespan_s on wide-fleet; none on bulk-bytes"},
	{name: "protocol.small_frame_allocs", unit: "count", better: "lower", moves: "alloc_mb_per_input_mb on wide-fleet"},
	{name: "wal.append_nosync_ns_256b", unit: "ns", better: "lower", moves: "makespan_s on wide-fleet (records per round)"},
	{name: "wal.append_fsync_us_256b", unit: "us", better: "lower", moves: "server.submit_ack_ms_p50, makespan_s on unplug-durable"},
	{name: "wal.append_mb_s_1mb", unit: "MB/s", better: "higher", moves: "makespan_s on bulk-bytes"},
	{name: "wal.framing_bytes_per_payload_byte", unit: "ratio", better: "lower", moves: "wal_bytes_per_input_byte on wide-fleet"},
	{name: "wal.open_replay_mb_s", unit: "MB/s", better: "higher", moves: "server.recover_s everywhere"},
	{name: "core.greedy_ms_18x150", unit: "ms", better: "lower", moves: "server.round_plan_ms_p50 on paper-mix"},
	{name: "core.greedy_ms_50x500", unit: "ms", better: "lower", moves: "the curve between the two fleets"},
	{name: "core.greedy_ms_128x512", unit: "ms", better: "lower", moves: "server.round_plan_ms_p50, makespan_s on wide-fleet; none on bulk-bytes"},
	{name: "core.greedy_over_lp_18x150", unit: "ratio", better: "lower", moves: "makespan_over_lp_bound on paper-mix"},
	{name: "core.relaxed_lb_ms_18x150", unit: "ms", better: "lower", moves: "none: the bound is computed outside every metric"},
	{name: "predict.estimate_ns", unit: "ns", better: "lower", moves: "server.round_plan_ms_p50 on wide-fleet (65k calls a round)"},
	{name: "server.submit_ack_ms_p50", unit: "ms", better: "lower", moves: "makespan_s on unplug-durable (fsync under the master's lock), bulk-bytes (MB encode)"},
	{name: "server.submit_ack_ms_p90", unit: "ms", better: "lower", moves: "as server.submit_ack_ms_p50"},
	{name: "server.round_plan_ms_p50", unit: "ms", better: "lower", moves: "makespan_s on wide-fleet nearly one for one; a tenth of a round on bulk-bytes"},
	{name: "server.round_dispatch_ms_p50", unit: "ms", better: "lower", moves: "makespan_s everywhere"},
	{name: "server.rounds", unit: "count", better: "lower", moves: "makespan_s on unplug-durable"},
	{name: "server.requeued_items", unit: "count", better: "lower", moves: "makespan_s on unplug-durable"},
	{name: "server.phone_idle_frac", unit: "ratio", better: "lower", moves: "makespan_over_lp_bound on paper-mix"},
	{name: "server.partitions_per_job", unit: "ratio", better: "lower", moves: "wire and WAL bytes per input byte through per-partition fixed costs"},
	{name: "server.predicted_err_p50", unit: "ratio", better: "lower", moves: "makespan_over_predicted on paper-mix"},
	{name: "server.measure_bandwidths_s", unit: "s", better: "lower", moves: "setup_s"},
	{name: "server.b_probe_err_p50", unit: "ratio", better: "lower", moves: "makespan_over_predicted on paper-mix"},
	{name: "server.recover_s", unit: "s", better: "lower", moves: "what an operator waits after a crash: wal.Open + server.New + RecoverWAL on the finished log"},
	{name: "server.recover_wal_ms", unit: "ms", better: "lower", moves: "server.recover_s"},
	{name: "server.walfold_apply_rec_per_s", unit: "1/s", better: "higher", moves: "server.recover_s; standby apply rate on unplug-durable"},
	{name: "server.compact_wal_ms", unit: "ms", better: "lower", moves: "server.recover_s (recovery ends with a compaction)"},
	{name: "worker.exec_ms_total", unit: "ms", better: "lower", moves: "cluster.cpu_user_s_per_mb"},
	{name: "worker.transfer_kb_total", unit: "KB", better: "lower", moves: "makespan_s on unplug-durable"},
	{name: "worker.ckpt_frames", unit: "count", better: "lower", moves: "wire_bytes_per_input_byte, wal_bytes_per_input_byte on bulk-bytes and unplug-durable"},
	{name: "worker.recompute_kb", unit: "KB", better: "lower", moves: "makespan_s on unplug-durable: checkpoint cadence acts only through this"},
	{name: "replica.ship_lag_records_max", unit: "count", better: "lower", moves: "server.submit_ack_ms_p50, makespan_s on unplug-durable"},
	{name: "replica.ship_lag_records_p50", unit: "count", better: "lower", moves: "as replica.ship_lag_records_max"},
	{name: "obs.counter_inc_ns", unit: "ns", better: "lower", moves: "obs.trace_overhead_frac"},
	{name: "obs.histogram_observe_ns", unit: "ns", better: "lower", moves: "obs.trace_overhead_frac"},
	{name: "obs.tracer_record_ns", unit: "ns", better: "lower", moves: "obs.trace_overhead_frac"},
	{name: "obs.trace_overhead_frac", unit: "ratio", better: "lower", moves: "the ceiling for ROADMAP's observability-on-a-budget item"},
	{name: "obs.telemetry_frames", unit: "count", better: "lower", moves: "obs.trace_overhead_frac on wide-fleet"},
	{name: "cluster.cpu_user_s_per_mb", unit: "s/MB", better: "lower", moves: "reported, not gated: drifts a quarter between identical runs"},
	{name: "cluster.cpu_sys_s_per_mb", unit: "s/MB", better: "lower", moves: "reported, not gated"},
	{name: "cluster.max_rss_mb", unit: "MB", better: "lower", moves: "reported, not gated"},
	{name: "cluster.gc_cycles", unit: "count", better: "lower", moves: "alloc_mb_per_input_mb"},
}
