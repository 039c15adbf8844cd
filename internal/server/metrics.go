package server

import (
	"cwc/internal/obs"
	"cwc/internal/protocol"
)

// masterMetrics is the master's metric catalog: every family it records,
// declared once per registry, with its help text, by newMasterMetrics.
// A call site records through a field and names no family. A labelled
// family is a map filled here from a small named set (frame types, event
// kinds, offline reasons, verification kinds, SLO names), so all of its
// series exist from startup and recording never creates one.
type masterMetrics struct {
	keepalivePings, keepaliveMisses, connErrors, registered, reconnected *obs.Counter
	phonesAlive, phonesQuarantined, pendingItems, epoch, replicaLag      *obs.Gauge
	offline                                                              map[offlineReason]*obs.Counter

	submissions, jobsCompleted, jobsFailed, rounds, vetoed         *obs.Counter
	results, failures, requeues, deadLetters, recomputeSaved       *obs.Counter
	speculations, stragglers, abandons, assignBytes, handbackBytes *obs.Counter
	ckptFrames, ckptFolds, ckptBytes, drainStarted, drainCompleted *obs.Counter
	steals                                                         *obs.Counter
	predictedMakespan, actualMakespan                              *obs.Gauge
	execMs, roundWallMs                                            *obs.Histogram

	votes, audits, quarantines, tieBreaksLate *obs.Counter
	mismatches                                map[verifyKind]*obs.Counter

	framesReceived, framesFenced, framesUnexpected  map[protocol.Type]*obs.Counter
	telemetryEvents                                 map[protocol.EventKind]*obs.Counter
	telemetryUnknown, telemetryDropped, orphanSpans *obs.Counter

	sloGood, sloBad       map[sloName]*obs.Counter
	sloErrorRate, sloBurn map[sloName]*obs.Gauge
}

func newMasterMetrics(r *obs.Registry) *masterMetrics {
	return &masterMetrics{
		keepalivePings:    r.NewCounter("cwc_keepalive_pings_total", "application-level keepalive pings sent"),
		keepaliveMisses:   r.NewCounter("cwc_keepalive_misses_total", "keepalive periods that elapsed without a pong"),
		connErrors:        r.NewCounter("cwc_conn_errors_total", "phone connections lost to read errors or corrupt frames"),
		registered:        r.NewCounter("cwc_phones_registered_total", "fresh phone registrations"),
		reconnected:       r.NewCounter("cwc_phones_reconnected_total", "phones that rejoined under a prior identity"),
		phonesAlive:       r.NewGauge("cwc_phones_alive", "live registered phones"),
		phonesQuarantined: r.NewGauge("cwc_phones_quarantined", "phones currently excluded from placement for integrity failures"),
		pendingItems:      r.NewGauge("cwc_pending_items", "work items awaiting the next scheduling instant"),
		epoch:             r.NewGauge("cwc_epoch", "current fencing epoch (0: replication never enabled)"),
		replicaLag:        r.NewGauge("cwc_replica_lag_records", "WAL records accepted locally but not yet written to the slowest attached standby"),
		offline:           obs.Counters(r, "cwc_offline_failures_total", "offline-failure events by structured reason", "reason", offlineReasons),

		submissions:       r.NewCounter("cwc_submissions_total", "jobs accepted by Submit"),
		jobsCompleted:     r.NewCounter("cwc_jobs_completed_total", "jobs fully aggregated"),
		jobsFailed:        r.NewCounter("cwc_jobs_failed_total", "jobs that ended in a terminal aggregation failure"),
		rounds:            r.NewCounter("cwc_rounds_total", "scheduling rounds completed"),
		vetoed:            r.NewCounter("cwc_placements_vetoed_total", "distinct (item, phone) placements the winning packing rejected only because completion would cross the phone's predicted-unplug quantile"),
		results:           r.NewCounter("cwc_results_total", "partition results recorded (duplicates excluded)"),
		failures:          r.NewCounter("cwc_failures_total", "partition failure reports recorded"),
		requeues:          r.NewCounter("cwc_requeues_total", "work items re-queued for a later round"),
		deadLetters:       r.NewCounter("cwc_dead_letters_total", "work items dropped after exhausting their retry budget"),
		recomputeSaved:    r.NewCounter("cwc_recompute_saved_bytes_total", "input bytes a requeue resumed past instead of recomputing"),
		speculations:      r.NewCounter("cwc_speculations_total", "speculative copies issued for straggling partitions"),
		stragglers:        r.NewCounter("cwc_stragglers_total", "assignments that blew their deadline"),
		abandons:          r.NewCounter("cwc_abandons_total", "phones abandoned for a round at twice the deadline"),
		assignBytes:       r.NewCounter("cwc_assign_bytes_sent_total", "assignment input bytes shipped to phones"),
		handbackBytes:     r.NewCounter("cwc_prefetch_handback_bytes_total", "input bytes of prefetched assignments handed back unexecuted (drain, unplug, abandon, dead phone)"),
		ckptFrames:        r.NewCounter("cwc_checkpoint_frames_total", "streamed checkpoint frames received"),
		ckptFolds:         r.NewCounter("cwc_checkpoint_folds_total", "streamed checkpoints accepted into resume state"),
		ckptBytes:         r.NewCounter("cwc_checkpoint_bytes_total", "checkpoint state bytes accepted"),
		drainStarted:      r.NewCounter("cwc_drain_started_total", "proactive drains started as predicted charge windows closed"),
		drainCompleted:    r.NewCounter("cwc_drain_completed_total", "proactive drains whose work was handed back before the disconnect"),
		steals:            r.NewCounter("cwc_steals_total", "unshipped assignments a phone whose own queue ran dry took off another phone's queue within the round"),
		predictedMakespan: r.NewGauge("cwc_round_predicted_makespan_ms", "last round's scheduler-predicted makespan"),
		actualMakespan:    r.NewGauge("cwc_round_actual_makespan_ms", "last round's measured wall time"),
		execMs:            r.NewHistogram("cwc_exec_ms", "reported per-partition execution time in milliseconds"),
		roundWallMs:       r.NewHistogram("cwc_round_wall_ms", "scheduling round wall time in milliseconds"),

		votes:         r.NewCounter("cwc_verify_votes_total", "verification ballots cast (result digests entered into a vote group)"),
		audits:        r.NewCounter("cwc_verify_audits_total", "spot-check audit comparisons completed"),
		quarantines:   r.NewCounter("cwc_verify_quarantines_total", "phones quarantined for falling below the reputation threshold"),
		tieBreaksLate: r.NewCounter("cwc_verify_tiebreaks_late_total", "tie-break reports that arrived after their tie expired; dropped"),
		mismatches:    obs.Counters(r, "cwc_verify_mismatches_total", "verification disagreements by kind (digest, vote, audit, checkpoint)", "kind", verifyKinds),

		framesReceived:   obs.Counters(r, "cwc_frames_received_total", "protocol frames received by type", "type", protocol.TypeCodes),
		framesFenced:     obs.Counters(r, "cwc_frames_fenced_total", "report frames rejected for carrying another master regime's epoch", "type", protocol.TypeCodes),
		framesUnexpected: obs.Counters(r, "cwc_frames_unexpected_total", "frames no worker should send, and reports naming no attempt or an attempt nobody knows; dropped", "type", protocol.TypeCodes),
		telemetryEvents:  obs.Counters(r, "cwc_telemetry_events_total", "worker span events folded into the trace ring, by kind", "kind", protocol.EventCodes),
		telemetryUnknown: r.NewCounter("cwc_telemetry_unknown_total", "worker span events of no kind this master knows (from the wire: an event with no kind)"),
		telemetryDropped: r.NewCounter("cwc_telemetry_dropped_total", "span events the workers' bounded telemetry buffers evicted before shipping"),
		orphanSpans:      r.NewCounter("cwc_telemetry_orphan_spans_total", "worker telemetry events naming a span no known job owns"),

		sloGood:      obs.Counters(r, "cwc_slo_good_total", "SLO observations within objective, by SLO name", "slo", masterSLOs),
		sloBad:       obs.Counters(r, "cwc_slo_bad_total", "SLO observations burning error budget, by SLO name", "slo", masterSLOs),
		sloErrorRate: obs.Gauges(r, "cwc_slo_error_rate", "rolling-window bad fraction per SLO", "slo", masterSLOs),
		sloBurn:      obs.Gauges(r, "cwc_slo_burn", "rolling-window burn rate per SLO (error rate over target; 1.0 spends budget exactly on time)", "slo", masterSLOs),
	}
}
