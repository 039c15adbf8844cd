package server

import (
	"strconv"
	"strings"
	"time"

	"cwc/internal/obs"
	"cwc/internal/protocol"
)

// Master SLO names. Each is a rolling-window objective whose burn rate
// (/statusz, cwc_slo_* metrics) tells an operator how fast the error
// budget is being spent.
const (
	// sloMakespan: a round's actual makespan landed within the
	// scheduler's predicted makespan plus tolerance. Burning means the
	// profile/bandwidth model has drifted from the fleet.
	sloMakespan = "round_makespan"
	// sloRequeue: a finished attempt settled (result credited) rather
	// than being requeued. Burning means churn or failures are eating
	// recomputation budget.
	sloRequeue = "requeue"
	// sloVerify: a verification comparison (digest, vote, audit,
	// checkpoint divergence) agreed. Burning means untrusted phones are
	// lying faster than quarantine can contain.
	sloVerify = "verify"
	// sloKeepalive: a keepalive interval passed with a pong rather than
	// a miss. Burning means connectivity is flapping fleet-wide.
	sloKeepalive = "keepalive"
)

// sloMakespanTolerance is the slack applied to the predicted makespan
// before an actual round duration counts against sloMakespan: prediction
// is a packing estimate, not a deadline, so only a 2x blowout burns.
const sloMakespanTolerance = 2.0

// registerMasterSLOs builds the master's SLO catalog. Targets are the
// tolerable bad fraction over a one-minute rolling window; they are
// deliberately loose (this is a burn-rate early-warning system, not an
// alerting contract).
func registerMasterSLOs() *obs.SLOSet {
	s := obs.NewSLOSet()
	s.Register(sloMakespan, 0.25, time.Minute, 12)
	s.Register(sloRequeue, 0.10, time.Minute, 12)
	s.Register(sloVerify, 0.02, time.Minute, 12)
	s.Register(sloKeepalive, 0.05, time.Minute, 12)
	return s
}

// sloObserve feeds one good/bad observation into the named SLO and
// mirrors it onto monotone counters so burn is also derivable from
// scraped /metrics history.
func (m *Master) sloObserve(name string, good bool) {
	m.slos.Observe(name, good)
	if good {
		m.cfg.Metrics.Counter("cwc_slo_good_total", "slo", name).Inc()
	} else {
		m.cfg.Metrics.Counter("cwc_slo_bad_total", "slo", name).Inc()
	}
}

// foldTelemetry merges one worker telemetry frame into the master's
// trace ring, turning each shipped WorkerEvent into a SpanEvent tagged
// Src="worker" so /debug/trace and /debug/timeline interleave both sides
// of every partition's causal history. Events keep the timestamp and
// fencing epoch they were minted under on the phone — a batch buffered
// across a standby promotion lands with its original regime visible.
func (m *Master) foldTelemetry(ps *phoneState, msg *protocol.Message) {
	if msg.Dropped > 0 {
		// Cumulative per-phone drop count; a gauge because the worker
		// reports a running total, not a delta.
		//lint:ignore metrics the phone label is bounded by fleet size, not by traffic
		m.cfg.Metrics.Gauge("cwc_telemetry_dropped", "phone", strconv.Itoa(ps.info.ID)).
			Set(float64(msg.Dropped))
	}
	for _, ev := range msg.Events {
		// Classify the kind once. Span-scoped events anchor to a job's
		// trace span and are orphan-checked; phone-scoped ones (pauses,
		// dials) have no span to anchor. A known kind is its own metric
		// label (spelled as a constant: cwc-vet's metrics analyzer rejects
		// a label read off the wire), anything else is "other", so version
		// skew or a hostile phone cannot grow the registry without bound.
		// cwc-vet's frames analyzer keeps this dispatch exhaustive.
		spanScoped, label := false, "other"
		switch ev.Kind {
		case protocol.EventAssignRecv:
			spanScoped, label = true, string(protocol.EventAssignRecv)
		case protocol.EventExecStart:
			spanScoped, label = true, string(protocol.EventExecStart)
		case protocol.EventExecFinish:
			spanScoped, label = true, string(protocol.EventExecFinish)
		case protocol.EventCkptFlush:
			spanScoped, label = true, string(protocol.EventCkptFlush)
		case protocol.EventCkptAck:
			spanScoped, label = true, string(protocol.EventCkptAck)
		case protocol.EventDrainHandback:
			spanScoped, label = true, string(protocol.EventDrainHandback)
		case protocol.EventThrottlePause:
			label = string(protocol.EventThrottlePause)
		case protocol.EventDial:
			label = string(protocol.EventDial)
		default:
			// A kind from a newer worker: folded for forward
			// compatibility, counted so version skew is visible; the kind
			// itself goes to the log.
			m.cfg.Metrics.Counter("cwc_telemetry_unknown_total").Inc()
			m.cfg.Logger.With("phone", ps.info.ID, "kind", string(ev.Kind)).
				Debugf("telemetry event of unknown kind")
		}
		m.cfg.Metrics.Counter("cwc_telemetry_events_total", "kind", label).Inc()
		if spanScoped && ev.Span != "" && !m.knownSpan(ev.Span) {
			// An orphan span means the worker attributed work to a job
			// this master regime has never heard of — a stitching bug or
			// fencing hole, never expected in a healthy cluster.
			m.cfg.Metrics.Counter("cwc_telemetry_orphan_spans_total").Inc()
			m.cfg.Logger.With("phone", ps.info.ID, "span", ev.Span).
				Warnf("telemetry event for unknown span")
		}
		m.cfg.Tracer.Record(obs.SpanEvent{
			TS: time.UnixMilli(ev.TSMs), Span: ev.Span, Kind: string(ev.Kind),
			Job: ev.Job, Partition: ev.Partition, Phone: ps.info.ID,
			Bytes: ev.Bytes, Ms: ev.Ms, Detail: ev.Detail,
			Src: "worker", Epoch: ev.Epoch,
		})
	}
}

// knownSpan reports whether a trace span names a job this master knows
// (jobs are never deleted, so any span ever minted by this regime — or
// recovered from its WAL — resolves). Spans are only ever minted as
// "j<id>" (jobSpan), so the span is parsed back to its job ID;
// anything not in that canonical form — a sign, leading zeros, trailing
// bytes — names no job.
func (m *Master) knownSpan(span string) bool {
	digits, ok := strings.CutPrefix(span, "j")
	id, err := strconv.Atoi(digits)
	if !ok || err != nil || strconv.Itoa(id) != digits {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id] != nil
}
