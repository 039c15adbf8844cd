package server

import (
	"time"

	"cwc/internal/protocol"
)

// Proactive drain: the plug-aware half of failure handling. Where the
// windows react to unplugs after the fact, the drain check anticipates
// them — when a phone's learned charge-window distribution says the
// current session is about to close, the master stops placing work there,
// asks the worker to flush a checkpoint and hand back its in-flight
// partition, and re-queues it cleanly while the connection is still
// healthy. The disconnect, when it comes, then loses nothing.
//
// Drain states (per phone, WAL-logged so recovery preserves them):
//
//	started   — drain frame sent; no new assignments; awaiting handback
//	completed — the phone's work was handed back (or it was idle);
//	            still excluded from placement until a new session
//	(cleared) — a new charge session began: the entry is removed and
//	            the phone is placeable again
const (
	drainStarted   = "started"
	drainCompleted = "completed"
	drainCleared   = "cleared"
)

// drainQuantile is the charge-window survival quantile used both to cap
// placements and to trigger drains: 0.25 plans as if this session ends
// where the shortest quarter of its history ended. drainLead is how far
// ahead of the predicted unplug (at drainQuantile) a proactive drain
// starts, and drainCheckPeriod how often the loop checks.
const (
	drainQuantile    = 0.25
	drainLead        = 30 * time.Second
	drainCheckPeriod = time.Second
)

// nowMs is the wall-clock timestamp fed to the (pure) window estimator.
func nowMs() float64 {
	return float64(time.Now().UnixNano()) / float64(time.Millisecond)
}

// SeedChargeWindows imports a known charge trace (completed session
// durations, ms) for a phone, bootstrapping the window estimator the
// way an operator would import history from a prior deployment.
func (m *Master) SeedChargeWindows(phoneID int, durationsMs []float64) {
	m.windows.Seed(phoneID, durationsMs)
}

// DrainState returns the phone's drain state: "started", "completed",
// or "" when the phone is not draining (and so not excluded from
// placement).
func (m *Master) DrainState(phoneID int) (state string) {
	m.do(func() { state = m.drains[phoneID] })
	return state
}

// checkDrainsLocked is the loop's drain check, every drainCheckPeriod
// under Config.PlugAware: start drains whose predicted window is inside
// the lead, and complete drains whose phones' windows hold no attempts
// anymore (the handback arrived, or the phone was idle).
func (m *Master) checkDrainsLocked() {
	now := nowMs()
	lead := float64(drainLead) / float64(time.Millisecond)
	for id, ps := range m.phones {
		if !ps.alive() || m.drains[id] != "" {
			continue
		}
		rem, ok := m.windows.RemainingMs(id, now, drainQuantile)
		if !ok || rem > lead {
			continue
		}
		m.startDrainLocked(ps, rem)
	}
	for id, st := range m.drains {
		if ps := m.phones[id]; st == drainStarted && (ps == nil || len(ps.win) == 0) {
			m.completeDrainLocked(id)
		}
	}
}

// startDrainLocked begins a proactive drain on a phone not yet draining:
// record and WAL-log the state, then queue the drain frame that asks the
// worker to flush and hand its work back. The phone's window hands back
// what it has not started from its next step on.
func (m *Master) startDrainLocked(ps *phoneState, remMs float64) {
	id := ps.info.ID
	m.walAppend(&walDrainRec{PhoneID: id, State: drainStarted})
	m.mx.drainStarted.Inc()
	m.cfg.Logger.With("phone", id).Infof("proactive drain: predicted charge window closes in %.0f ms", remMs)
	m.queueLocked(ps, flight{ctl: &protocol.Message{Type: protocol.TypeDrain}})
}

// completeDrainLocked marks a started drain as completed: the phone's
// in-flight work has been handed back (or it held none). The phone stays
// excluded from placement until a new charge session clears it.
func (m *Master) completeDrainLocked(id int) {
	if m.drains[id] != drainStarted {
		return
	}
	m.walAppend(&walDrainRec{PhoneID: id, State: drainCompleted})
	m.mx.drainCompleted.Inc()
	m.cfg.Logger.With("phone", id).Infof("drain completed: work handed back before disconnect")
}

// clearDrainLocked removes a phone's drain entry (a new charge session
// started); a no-op when none exists.
func (m *Master) clearDrainLocked(id int) {
	if _, ok := m.drains[id]; ok {
		m.walAppend(&walDrainRec{PhoneID: id, State: drainCleared})
		m.cfg.Logger.With("phone", id).Infof("drain cleared: new charge session")
	}
}
