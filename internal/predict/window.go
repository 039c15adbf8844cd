// Charge-window estimation: learning when a phone will unplug.
//
// The paper's feasibility study (Fig 2/3) shows phones charge in long,
// recurring nightly sessions. The scheduler can exploit that: if a
// phone's plug/unplug history says its current charge window is about
// to close, placing an hour of work there only manufactures a failure.
// WindowEstimator learns per-phone session-duration distributions from
// observed plug/unplug events — the same report-driven refinement loop
// Estimator uses for c_ij — and answers quantile queries such as "how
// much longer is this phone likely to stay plugged?".
//
// Like the rest of the package, the estimator is pure: it never reads
// the clock. Callers supply every timestamp, which keeps the math
// deterministic and unit-testable, and lets simulated clusters feed
// compressed time.
package predict

import (
	"fmt"
	"sort"
	"sync"
)

// maxWindowSessions bounds the per-phone session-duration history; the
// oldest observation is evicted first. Nightly charging yields roughly
// one session per day, so 64 covers two months of behaviour.
const maxWindowSessions = 64

// WindowEstimator learns per-phone charge-window durations from
// plug/unplug events and answers quantile queries over the remaining
// plugged time. It is safe for concurrent use.
type WindowEstimator struct {
	mu sync.RWMutex
	// minSessions is the observation count below which queries decline
	// to predict (ok=false): with too little history the only safe
	// answer is "never veto a placement".
	minSessions int
	// flapMergeMs treats a replug within this window of the previous
	// unplug as a continuation of the same charge session — a cable
	// wiggle, not a real morning unplug — undoing the short session
	// the unplug recorded.
	flapMergeMs float64
	// phones holds per-phone session state, keyed by phone ID.
	phones map[int]*phoneWindow
}

// phoneWindow is one phone's plug-session state and history.
type phoneWindow struct {
	// plugged is true between an observed plug and the next unplug.
	plugged bool
	// plugAtMs is the timestamp of the current session's start, valid
	// while plugged.
	plugAtMs float64
	// lastUnplugMs is the timestamp of the most recent unplug, used to
	// detect flapping replugs; valid once a session has ended.
	lastUnplugMs float64
	// prevPlugAtMs is the start of the session the last unplug closed,
	// restored when a flapping replug merges back into it.
	prevPlugAtMs float64
	// lastRecorded is true when the most recent unplug appended a
	// duration to the ring (false when skew discarded the session), so
	// a flap-merge knows whether there is an entry to undo.
	lastRecorded bool
	// durations is the bounded ring of completed session lengths (ms),
	// oldest first.
	durations []float64
}

// NewWindowEstimator returns a charge-window estimator. minSessions is
// the history size below which queries answer ok=false (never veto);
// flapMergeMs is the replug window within which an unplug/plug pair is
// folded back into the interrupted session.
func NewWindowEstimator(minSessions int, flapMergeMs float64) (*WindowEstimator, error) {
	if minSessions < 1 {
		return nil, fmt.Errorf("predict: minSessions %d < 1", minSessions)
	}
	if flapMergeMs < 0 {
		return nil, fmt.Errorf("predict: negative flap-merge window %v", flapMergeMs)
	}
	return &WindowEstimator{
		minSessions: minSessions,
		flapMergeMs: flapMergeMs,
		phones:      map[int]*phoneWindow{},
	}, nil
}

// ObservePlug records that the phone was plugged in at atMs. A plug
// while already plugged is ignored (a duplicate or reordered event); a
// plug within the flap-merge window of the last unplug resumes the
// interrupted session instead of starting a new one.
func (w *WindowEstimator) ObservePlug(phone int, atMs float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	pw := w.phones[phone]
	if pw == nil {
		pw = &phoneWindow{}
		w.phones[phone] = pw
	}
	if pw.plugged {
		return
	}
	if pw.lastRecorded && atMs >= pw.lastUnplugMs && atMs-pw.lastUnplugMs <= w.flapMergeMs {
		// Flapping replug: pop the short session the unplug recorded
		// and carry on as if the cable never left the socket.
		pw.durations = pw.durations[:len(pw.durations)-1]
		pw.plugAtMs = pw.prevPlugAtMs
		pw.plugged = true
		pw.lastRecorded = false
		return
	}
	pw.plugged = true
	pw.plugAtMs = atMs
	pw.lastRecorded = false
}

// ObserveUnplug records that the phone unplugged at atMs, closing the
// current session. An unplug while not plugged is ignored. A session
// whose unplug timestamp precedes its plug timestamp is the product of
// clock skew or event reordering; it is discarded rather than recorded
// as a negative duration.
func (w *WindowEstimator) ObserveUnplug(phone int, atMs float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	pw := w.phones[phone]
	if pw == nil || !pw.plugged {
		return
	}
	pw.plugged = false
	pw.prevPlugAtMs = pw.plugAtMs
	pw.lastUnplugMs = atMs
	if atMs < pw.plugAtMs {
		pw.lastRecorded = false
		return
	}
	pw.durations = append(pw.durations, atMs-pw.plugAtMs)
	if len(pw.durations) > maxWindowSessions {
		pw.durations = pw.durations[1:]
	}
	pw.lastRecorded = true
}

// Seed imports a known charge trace: completed session durations (ms)
// observed elsewhere, e.g. a prior deployment's history. The phone's
// plugged/unplugged state is untouched; only the duration ring grows.
func (w *WindowEstimator) Seed(phone int, durationsMs []float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	pw := w.phones[phone]
	if pw == nil {
		pw = &phoneWindow{}
		w.phones[phone] = pw
	}
	for _, d := range durationsMs {
		if d < 0 {
			continue
		}
		pw.durations = append(pw.durations, d)
	}
	if n := len(pw.durations); n > maxWindowSessions {
		pw.durations = pw.durations[n-maxWindowSessions:]
	}
	pw.lastRecorded = false
}

// Plugged reports whether the estimator believes the phone is currently
// plugged in.
func (w *WindowEstimator) Plugged(phone int) bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	pw := w.phones[phone]
	return pw != nil && pw.plugged
}

// Sessions returns the number of completed charge sessions on record
// for the phone.
func (w *WindowEstimator) Sessions(phone int) int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	pw := w.phones[phone]
	if pw == nil {
		return 0
	}
	return len(pw.durations)
}

// RemainingMs returns the q-quantile of the phone's remaining plugged
// time at nowMs, conditioned on the session having already lasted
// nowMs−plugAt: among recorded sessions longer than the current elapsed
// time, it takes the q-quantile of their extra duration. Small q is
// conservative (the window is likely to last at least this much
// longer). ok is false — never veto — when the phone is not known to be
// plugged, has fewer than minSessions observations, or nowMs precedes
// the session start (skewed caller clock). If the phone has outlived
// every recorded session the conditional distribution is empty and the
// answer is (0, true): the window is overdue to close.
func (w *WindowEstimator) RemainingMs(phone int, nowMs, q float64) (float64, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	pw := w.phones[phone]
	if pw == nil || !pw.plugged || len(pw.durations) < w.minSessions || nowMs < pw.plugAtMs {
		return 0, false
	}
	elapsed := nowMs - pw.plugAtMs
	var extra []float64
	for _, d := range pw.durations {
		if d > elapsed {
			extra = append(extra, d-elapsed)
		}
	}
	if len(extra) == 0 {
		return 0, true
	}
	return quantile(extra, q), true
}

// quantile returns the q-quantile of vals (clamped to [0,1]) with
// linear interpolation between order statistics. vals must be
// non-empty; it is not modified.
func quantile(vals []float64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := make([]float64, len(vals))
	copy(s, vals)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
