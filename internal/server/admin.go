package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"cwc/internal/obs"
	"cwc/internal/predict"
)

// This file is the master's admin plane: the HTTP endpoints bound at
// Config.ObsAddr (off by default) that expose what internal/obs records.
//
//	GET /metrics         Prometheus text exposition of Config.Metrics
//	GET /healthz         liveness probe
//	GET /statusz         JSON: fleet, predictions, rounds, SLO burn
//	GET /debug/sched     last round's bin-packing decision vs what happened
//	GET /debug/trace     recent span events (?span=j3 filters, ?n=100 caps)
//	GET /debug/timeline  one job's merged master+worker causal timeline (?job=3)
//	GET /debug/blackbox  the in-memory flight recorder as JSONL
//	GET /debug/pprof/    the Go runtime's profiles (net/http/pprof)
//
// Everything served here is a read-only snapshot; the plane never mutates
// scheduling state, so leaving it unbound is byte-identical to binding it.

// SchedAssignment is one dispatched partition in a SchedSnapshot: the
// packing decision (size, predicted cost) next to what the round actually
// saw for it.
type SchedAssignment struct {
	JobID       int     `json:"job"`
	Partition   int     `json:"partition"`
	Key         int64   `json:"key"`
	SizeKB      float64 `json:"size_kb"`
	PredictedMs float64 `json:"predicted_ms"`
	// ActualMs is assign-to-report latency; -1 when no report arrived
	// within the round.
	ActualMs float64 `json:"actual_ms"`
	// Outcome is the last thing the round saw for the partition:
	// "result", "failure", "straggler", or "pending".
	Outcome string `json:"outcome"`
}

// SchedPhone is one phone's queue in a SchedSnapshot.
type SchedPhone struct {
	PhoneID         int               `json:"phone"`
	PredictedSpanMs float64           `json:"predicted_span_ms"`
	ActualSpanMs    float64           `json:"actual_span_ms"`
	Assignments     []SchedAssignment `json:"assignments"`
}

// SchedSnapshot is one round's bin-packing decision paired with the
// round's actuals — the live counterpart of the paper's Figure 12
// comparison. Served by /debug/sched.
type SchedSnapshot struct {
	Round               int          `json:"round"`
	PredictedMakespanMs float64      `json:"predicted_makespan_ms"`
	ActualMakespanMs    float64      `json:"actual_makespan_ms"`
	Phones              []SchedPhone `json:"phones"`
}

// LastSched returns the most recent round's packing-vs-actuals snapshot,
// or nil before the first completed round.
func (m *Master) LastSched() (cp *SchedSnapshot) {
	m.do(func() {
		if m.lastSched != nil {
			snap := *m.lastSched
			snap.Phones = append([]SchedPhone(nil), m.lastSched.Phones...)
			cp = &snap
		}
	})
	return cp
}

// finishSchedSnapshot folds the assign, result, failure and straggler
// events of a finished round's timeline into the snapshot built at
// dispatch time: per-assignment report latencies and outcomes, per-phone
// busy spans, and the measured makespan. An assignment prefetched behind
// another is measured from its predecessor's report on that phone, not
// from its own assign: the time it sat queued on the phone is the
// predecessor's, not its own.
func finishSchedSnapshot(snap *SchedSnapshot, events []Event, wall time.Duration) {
	snap.ActualMakespanMs = float64(wall) / float64(time.Millisecond)
	type akey struct{ phone, job, part int }
	assigned := map[akey]time.Duration{}
	reported := map[int]time.Duration{} // phone -> its latest report
	for _, e := range events {
		k := akey{e.PhoneID, e.JobID, e.Partition}
		switch e.Kind {
		case "assign":
			assigned[k] = e.At
		case "result", "failure", "straggler":
			from := max(assigned[k], reported[e.PhoneID])
			if e.Kind != "straggler" {
				reported[e.PhoneID] = e.At
			}
			for pi := range snap.Phones {
				sp := &snap.Phones[pi]
				if sp.PhoneID != e.PhoneID {
					continue
				}
				for ai := range sp.Assignments {
					a := &sp.Assignments[ai]
					if a.JobID != e.JobID || a.Partition != e.Partition {
						continue
					}
					a.Outcome = e.Kind
					if e.Kind != "straggler" {
						a.ActualMs = float64(e.At-from) / float64(time.Millisecond)
					}
				}
				if e.Kind != "straggler" {
					if ms := float64(e.At) / float64(time.Millisecond); ms > sp.ActualSpanMs {
						sp.ActualSpanMs = ms
					}
				}
			}
		}
	}
}

// ObsAddr returns the admin plane's bound address ("" when unbound).
func (m *Master) ObsAddr() string {
	if m.obsLn == nil {
		return ""
	}
	return m.obsLn.Addr().String()
}

// serveObs binds the admin plane. The listener dies with Close.
func (m *Master) serveObs(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: admin plane listen %s: %w", addr, err)
	}
	m.obsLn = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", m.handleMetrics)
	mux.HandleFunc("/healthz", m.handleHealthz)
	mux.HandleFunc("/statusz", m.handleStatusz)
	mux.HandleFunc("/debug/sched", m.handleDebugSched)
	mux.HandleFunc("/debug/trace", m.handleDebugTrace)
	mux.HandleFunc("/debug/timeline", m.handleDebugTimeline)
	mux.HandleFunc("/debug/blackbox", m.handleDebugBlackbox)
	// The pprof package's init also registers these on
	// http.DefaultServeMux, which nothing in this repository serves.
	// pprof.Cmdline is left off: it echoes argv, which holds -token, to
	// anyone who can reach this unauthenticated plane; Index answers
	// /debug/pprof/cmdline with 404 "Unknown profile".
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		_ = srv.Serve(ln) // returns once Close closes the listener
	}()
	m.cfg.Logger.Infof("admin plane listening on %s", ln.Addr())
	return nil
}

// refreshGauges recomputes the point-in-time gauges a scrape should see.
func (m *Master) refreshGauges() {
	var alive, pending, quarantined int
	var epoch int64
	m.do(func() {
		alive, pending, quarantined, epoch = m.liveLocked(), len(m.pending), len(m.quarantined), m.epoch
	})
	m.mx.phonesAlive.Set(float64(alive))
	m.mx.pendingItems.Set(float64(pending))
	m.mx.phonesQuarantined.Set(float64(quarantined))
	m.mx.epoch.Set(float64(epoch))
	if m.cfg.ReplicaSink != nil {
		m.mx.replicaLag.Set(float64(m.cfg.ReplicaSink.Lag()))
	}
	for _, st := range m.slos.Statuses() {
		m.mx.sloErrorRate[sloName(st.Name)].Set(st.ErrorRate)
		m.mx.sloBurn[sloName(st.Name)].Set(st.Burn)
	}
}

func (m *Master) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m.refreshGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = m.cfg.Metrics.WritePrometheus(w)
}

func (m *Master) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// statusEstimate is one (phone, task) row of /statusz's prediction view:
// the clock-scaling estimate next to the report-refined one, with the
// relative refinement error (how far clock scaling alone was off).
type statusEstimate struct {
	Task           string   `json:"task"`
	ScaledMsPerKB  float64  `json:"scaled_ms_per_kb"`
	LearnedMsPerKB *float64 `json:"learned_ms_per_kb,omitempty"`
	RefineErr      *float64 `json:"refine_err,omitempty"`
}

type statusPhone struct {
	ID          int              `json:"id"`
	Model       string           `json:"model"`
	CPUMHz      float64          `json:"cpu_mhz"`
	RAMMB       int              `json:"ram_mb"`
	Alive       bool             `json:"alive"`
	BMsPerKB    float64          `json:"b_ms_per_kb"`
	MissedPings int              `json:"missed_pings"`
	Estimates   []statusEstimate `json:"estimates,omitempty"`
	// DrainState is the proactive-drain ledger entry: "started",
	// "completed", or absent when the phone is not draining.
	DrainState string `json:"drain_state,omitempty"`
	// ChargeSessions is how many completed charge sessions the window
	// estimator has observed for this phone.
	ChargeSessions int `json:"charge_sessions,omitempty"`
	// PredictedRemainingMs is the predicted time left in the current
	// charge window at the configured drain quantile; absent when the
	// estimator lacks history (it would never veto).
	PredictedRemainingMs *float64 `json:"predicted_remaining_ms,omitempty"`
	// Reputation is the phone's result-integrity score (EWMA of
	// verification outcomes); absent until the first recorded outcome.
	Reputation *float64 `json:"reputation,omitempty"`
	// Quarantined marks a phone excluded from placement for integrity
	// failures — still connected and visible, never assigned.
	Quarantined bool `json:"quarantined,omitempty"`
}

type statusRound struct {
	Round               int     `json:"round"`
	PredictedMakespanMs float64 `json:"predicted_makespan_ms"`
	ActualMakespanMs    float64 `json:"actual_makespan_ms"`
}

type statusz struct {
	Now time.Time `json:"now"`
	// Role is "primary" (or a promotion path's label); Epoch the fencing
	// epoch; ReplicaLagRecords the slowest attached standby's backlog
	// (absent when replication is off).
	Role              string         `json:"role"`
	Epoch             int64          `json:"epoch"`
	ReplicaLagRecords *int64         `json:"replica_lag_records,omitempty"`
	PhonesAlive       int            `json:"phones_alive"`
	Phones            []statusPhone  `json:"phones"`
	PendingItems      int            `json:"pending_items"`
	Rounds            int            `json:"rounds"`
	LastRound         *statusRound   `json:"last_round,omitempty"`
	JobsSubmitted     int            `json:"jobs_submitted"`
	JobsCompleted     int            `json:"jobs_completed"`
	DeadLetters       []DeadLetter   `json:"dead_letters,omitempty"`
	OfflineFailures   map[string]int `json:"offline_failures,omitempty"`
	CheckpointFolds   int            `json:"checkpoint_folds"`
	TraceEvents       int64          `json:"trace_events"`
	MetricSeries      int            `json:"metric_series"`
	// SLOs is the rolling-window burn view of every registered
	// objective; SLOHealth is the worst verdict among them ("ok",
	// "warn", or "critical").
	SLOs      []obs.SLOStatus `json:"slos"`
	SLOHealth string          `json:"slo_health"`
}

func (m *Master) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	st := statusz{
		Now: time.Now(), Role: m.cfg.Role,
		TraceEvents: m.cfg.Tracer.Total(), MetricSeries: m.cfg.Metrics.SeriesCount(),
		SLOs: m.slos.Statuses(), SLOHealth: m.slos.Health(),
	}
	if m.cfg.ReplicaSink != nil {
		lag := m.cfg.ReplicaSink.Lag()
		st.ReplicaLagRecords = &lag
	}

	var est *predict.Estimator
	tasksSeen := map[string]bool{}
	type phoneRow struct {
		info        PhoneInfo
		missed      int
		alive       bool
		drain       string
		rep         *float64
		quarantined bool
	}
	var rows []phoneRow
	m.do(func() {
		st.Epoch = m.epoch
		est = m.est
		for _, js := range m.jobs {
			st.JobsSubmitted++
			if js.Done {
				st.JobsCompleted++
			}
			tasksSeen[js.Task] = true
		}
		st.PendingItems = len(m.pending)
		st.Rounds = m.rounds
		if m.lastSched != nil {
			st.LastRound = &statusRound{
				Round:               m.lastSched.Round,
				PredictedMakespanMs: m.lastSched.PredictedMakespanMs,
				ActualMakespanMs:    m.lastSched.ActualMakespanMs,
			}
		}
		st.DeadLetters = append(st.DeadLetters, m.dead...)
		if len(m.offline) > 0 {
			st.OfflineFailures = map[string]int{}
			for _, of := range m.offline {
				st.OfflineFailures[of.Reason]++
			}
		}
		st.CheckpointFolds = m.ckptFolds
		rows = make([]phoneRow, 0, len(m.phones))
		for _, ps := range m.phones {
			row := phoneRow{
				info: ps.info, alive: ps.alive(),
				drain:       m.drains[ps.info.ID],
				quarantined: m.quarantined[ps.info.ID],
			}
			if ps.alive() {
				row.missed = ps.missed
			}
			if r, ok := m.reputation[ps.info.ID]; ok {
				rep := r
				row.rep = &rep
			}
			rows = append(rows, row)
		}
	})

	sort.Slice(rows, func(i, j int) bool { return rows[i].info.ID < rows[j].info.ID })
	var tasks []string
	if est != nil {
		tasks = est.Tasks()
		sort.Strings(tasks)
	}
	now := nowMs()
	for _, row := range rows {
		sp := statusPhone{
			ID: row.info.ID, Model: row.info.Model, CPUMHz: row.info.CPUMHz,
			RAMMB: row.info.RAMMB, Alive: row.alive, BMsPerKB: row.info.BMsPerKB,
			MissedPings: row.missed, DrainState: row.drain,
			ChargeSessions: m.windows.Sessions(row.info.ID),
			Reputation:     row.rep, Quarantined: row.quarantined,
		}
		if rem, ok := m.windows.RemainingMs(row.info.ID, now, drainQuantile); ok {
			r := rem
			sp.PredictedRemainingMs = &r
		}
		if row.alive {
			st.PhonesAlive++
		}
		for _, task := range tasks {
			ts, ok := est.Profile(task)
			if !ok || !tasksSeen[task] || row.info.CPUMHz <= 0 {
				continue
			}
			scaled := ts * est.BaseMHz() / row.info.CPUMHz
			e := statusEstimate{Task: task, ScaledMsPerKB: scaled}
			if learned, ok := est.LearnedEstimate(task, row.info.ID); ok && scaled > 0 {
				l := learned
				e.LearnedMsPerKB = &l
				relErr := (learned - scaled) / scaled
				e.RefineErr = &relErr
			}
			sp.Estimates = append(sp.Estimates, e)
		}
		st.Phones = append(st.Phones, sp)
	}
	writeJSON(w, st)
}

func (m *Master) handleDebugSched(w http.ResponseWriter, _ *http.Request) {
	snap := m.LastSched()
	if snap == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintln(w, `{"error":"no round completed yet"}`)
		return
	}
	writeJSON(w, snap)
}

func (m *Master) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	n := 200
	if s := r.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	var evs []obs.SpanEvent
	if span := r.URL.Query().Get("span"); span != "" {
		evs = m.cfg.Tracer.Span(span)
		if len(evs) > n {
			evs = evs[len(evs)-n:]
		}
	} else {
		evs = m.cfg.Tracer.Recent(n)
	}
	if evs == nil {
		evs = []obs.SpanEvent{}
	}
	writeJSON(w, evs)
}

// TimelinePartition is one partition's merged causal timeline: master
// and worker events interleaved in time order.
type TimelinePartition struct {
	Partition int             `json:"partition"`
	Events    []obs.SpanEvent `json:"events"`
}

// Timeline is /debug/timeline's response: one job's span history with
// both process sides stitched together. JobEvents are span-wide
// milestones (submit, round, aggregate, promote); Epochs lists every
// fencing regime the events crossed, so a timeline that survived a
// standby promotion shows the boundary explicitly.
type Timeline struct {
	Job        int                 `json:"job"`
	Span       string              `json:"span"`
	Epochs     []int64             `json:"epochs"`
	JobEvents  []obs.SpanEvent     `json:"job_events,omitempty"`
	Partitions []TimelinePartition `json:"partitions"`
}

// jobTimeline assembles one job's merged timeline from the trace ring.
// Returns nil when the job is unknown to this master.
func (m *Master) jobTimeline(jobID int) *Timeline {
	var known bool
	m.do(func() { known = m.jobs[jobID] != nil })
	if !known {
		return nil
	}
	span := jobSpan(jobID)
	evs := m.cfg.Tracer.Span(span)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS.Before(evs[j].TS) })
	tl := &Timeline{Job: jobID, Span: span, Partitions: []TimelinePartition{}}
	epochs := map[int64]bool{}
	parts := map[int]int{} // partition -> index into tl.Partitions
	for _, ev := range evs {
		epochs[ev.Epoch] = true
		switch ev.Kind {
		case obs.KindSubmit, obs.KindRound, obs.KindAggregate, obs.KindPromote:
			tl.JobEvents = append(tl.JobEvents, ev)
			continue
		}
		pi, ok := parts[ev.Partition]
		if !ok {
			pi = len(tl.Partitions)
			parts[ev.Partition] = pi
			tl.Partitions = append(tl.Partitions, TimelinePartition{Partition: ev.Partition})
		}
		tl.Partitions[pi].Events = append(tl.Partitions[pi].Events, ev)
	}
	sort.Slice(tl.Partitions, func(i, j int) bool {
		return tl.Partitions[i].Partition < tl.Partitions[j].Partition
	})
	for e := range epochs {
		tl.Epochs = append(tl.Epochs, e)
	}
	sort.Slice(tl.Epochs, func(i, j int) bool { return tl.Epochs[i] < tl.Epochs[j] })
	return tl
}

func (m *Master) handleDebugTimeline(w http.ResponseWriter, r *http.Request) {
	jobID, err := strconv.Atoi(r.URL.Query().Get("job"))
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintln(w, `{"error":"missing or malformed ?job="}`)
		return
	}
	tl := m.jobTimeline(jobID)
	if tl == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintln(w, `{"error":"unknown job"}`)
		return
	}
	writeJSON(w, tl)
}

func (m *Master) handleDebugBlackbox(w http.ResponseWriter, _ *http.Request) {
	if m.cfg.Blackbox == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintln(w, `{"error":"no black-box recorder configured"}`)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = m.cfg.Blackbox.WriteJSONL(w)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
