package server

import (
	"strconv"
	"strings"
	"time"

	"cwc/internal/obs"
	"cwc/internal/protocol"
)

// sloName names one of the master's SLOs, the label of the cwc_slo_*
// families. Each is a rolling-window objective whose burn rate
// (/statusz, cwc_slo_* metrics) tells an operator how fast the error
// budget is being spent.
type sloName string

// The master's SLOs.
const (
	// sloMakespan: a round's actual makespan landed within the
	// scheduler's predicted makespan plus tolerance. Burning means the
	// profile/bandwidth model has drifted from the fleet.
	sloMakespan sloName = "round_makespan"
	// sloRequeue: a finished attempt settled (result credited) rather
	// than being requeued. Burning means churn or failures are eating
	// recomputation budget.
	sloRequeue sloName = "requeue"
	// sloVerify: a verification comparison (digest, vote, audit,
	// checkpoint divergence) agreed. Burning means untrusted phones are
	// lying faster than quarantine can contain.
	sloVerify sloName = "verify"
	// sloKeepalive: a keepalive interval passed with a pong rather than
	// a miss. Burning means connectivity is flapping fleet-wide.
	sloKeepalive sloName = "keepalive"
)

var masterSLOs = []sloName{sloMakespan, sloRequeue, sloVerify, sloKeepalive}

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
	s.Register(string(sloMakespan), 0.25, time.Minute, 12)
	s.Register(string(sloRequeue), 0.10, time.Minute, 12)
	s.Register(string(sloVerify), 0.02, time.Minute, 12)
	s.Register(string(sloKeepalive), 0.05, time.Minute, 12)
	return s
}

// sloObserve feeds one good/bad observation into the named SLO and
// mirrors it onto monotone counters so burn is also derivable from
// scraped /metrics history.
func (m *Master) sloObserve(name sloName, good bool) {
	m.slos.Observe(string(name), good)
	if good {
		m.mx.sloGood[name].Inc()
	} else {
		m.mx.sloBad[name].Inc()
	}
}

// foldTelemetry merges one worker telemetry frame into the master's
// trace ring, turning each shipped WorkerEvent into a SpanEvent tagged
// Src="worker" so /debug/trace and /debug/timeline interleave both sides
// of every partition's causal history. Events keep the timestamp and
// fencing epoch they were minted under on the phone — a batch buffered
// across a standby promotion lands with its original regime visible.
// Caller holds m.mu.
func (m *Master) foldTelemetry(ps *phoneState, msg *protocol.Message) {
	if msg.Dropped > 0 {
		// The events the phone's buffer evicted since its last shipped
		// frame: a delta, so a worker restart cannot move the sum back.
		m.mx.telemetryDropped.Add(msg.Dropped)
		m.cfg.Logger.With("phone", ps.info.ID, "dropped", msg.Dropped).
			Warnf("worker dropped telemetry events to its buffer bound")
	}
	for _, ev := range msg.Events {
		// Classify the kind once. Span-scoped events anchor to a job's
		// trace span and are orphan-checked; phone-scoped ones (pauses,
		// dials) have no span to anchor. Each kind in protocol.EventCodes
		// has its own series; cwc-vet's frames analyzer keeps this
		// dispatch exhaustive.
		spanScoped, kind := false, ev.Kind
		switch ev.Kind {
		case protocol.EventAssignRecv, protocol.EventExecStart, protocol.EventExecFinish,
			protocol.EventCkptFlush, protocol.EventCkptAck, protocol.EventDrainHandback:
			spanScoped = true
		case protocol.EventThrottlePause, protocol.EventDial:
		default:
			// The decoder refuses a kind outside protocol.EventCodes, so
			// from the wire only an event with no kind lands here. It is
			// folded, counted as unknown and under kind="other", and its
			// kind goes to the log.
			m.mx.telemetryUnknown.Inc()
			m.cfg.Logger.With("phone", ps.info.ID, "kind", string(ev.Kind)).
				Debugf("telemetry event of unknown kind")
			kind = ""
		}
		m.mx.telemetryEvents[kind].Inc()
		if spanScoped && ev.Span != "" && !m.knownSpan(ev.Span) {
			// An orphan span means the worker attributed work to a job
			// this master regime has never heard of — a stitching bug or
			// fencing hole, never expected in a healthy cluster.
			m.mx.orphanSpans.Inc()
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
// bytes — names no job. Caller holds m.mu.
func (m *Master) knownSpan(span string) bool {
	digits, ok := strings.CutPrefix(span, "j")
	id, err := strconv.Atoi(digits)
	if !ok || err != nil || strconv.Itoa(id) != digits {
		return false
	}
	return m.jobs[id] != nil
}
