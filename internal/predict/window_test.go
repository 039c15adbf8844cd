package predict

import (
	"math"
	"testing"
)

func newWE(t *testing.T, minSessions int, flapMergeMs float64) *WindowEstimator {
	t.Helper()
	w, err := NewWindowEstimator(minSessions, flapMergeMs)
	if err != nil {
		t.Fatalf("NewWindowEstimator: %v", err)
	}
	return w
}

func TestWindowEstimatorValidation(t *testing.T) {
	if _, err := NewWindowEstimator(0, 0); err == nil {
		t.Error("minSessions 0 accepted")
	}
	if _, err := NewWindowEstimator(3, -1); err == nil {
		t.Error("negative flap-merge window accepted")
	}
	if _, err := NewWindowEstimator(1, 0); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// Zero observations must fall back to never-veto: every query answers
// ok=false so the scheduler places work exactly as before.
func TestWindowEstimatorZeroObservations(t *testing.T) {
	w := newWE(t, 1, 0)
	if _, ok := w.RemainingMs(7, 100, 0.25); ok {
		t.Error("RemainingMs predicted with no history")
	}
	// A phone that is plugged but has no *completed* sessions is just
	// as unknown.
	w.ObservePlug(7, 50)
	if _, ok := w.RemainingMs(7, 100, 0.25); ok {
		t.Error("RemainingMs predicted with zero completed sessions")
	}
	if w.Sessions(7) != 0 {
		t.Errorf("Sessions = %d, want 0", w.Sessions(7))
	}
}

// Below minSessions the estimator must stay silent even with some
// history; at minSessions it starts answering.
func TestWindowEstimatorMinSessionsGate(t *testing.T) {
	w := newWE(t, 2, 0)
	w.ObservePlug(1, 0)
	w.ObserveUnplug(1, 1000)
	w.ObservePlug(1, 2000)
	if _, ok := w.RemainingMs(1, 2100, 0.5); ok {
		t.Error("predicted with 1 session under minSessions=2")
	}
	w.ObserveUnplug(1, 3000)
	w.ObservePlug(1, 4000)
	if _, ok := w.RemainingMs(1, 4100, 0.5); !ok {
		t.Error("no prediction with 2 sessions at minSessions=2")
	}
}

// A single observed session (minSessions=1) yields a degenerate but
// well-defined distribution.
func TestWindowEstimatorSingleSession(t *testing.T) {
	w := newWE(t, 1, 0)
	w.ObservePlug(1, 0)
	w.ObserveUnplug(1, 8000) // one 8 s session
	w.ObservePlug(1, 10_000)

	rem, ok := w.RemainingMs(1, 12_000, 0.25)
	if !ok || rem != 6000 {
		t.Errorf("RemainingMs = %v, %v; want 6000, true", rem, ok)
	}
	// Any quantile of a single point is that point.
	if rem, _ := w.RemainingMs(1, 12_000, 0.9); rem != 6000 {
		t.Errorf("q=0.9 RemainingMs = %v, want 6000", rem)
	}
	// Once the session outlives the only observation the conditional
	// distribution is empty: overdue, remaining 0, but still ok=true.
	rem, ok = w.RemainingMs(1, 19_000, 0.25)
	if !ok || rem != 0 {
		t.Errorf("overdue RemainingMs = %v, %v; want 0, true", rem, ok)
	}
}

// Irregular schedules: a phone with wildly varying session lengths
// should produce sane conditional quantiles, and conditioning must
// drop sessions shorter than the elapsed time.
func TestWindowEstimatorIrregularSchedule(t *testing.T) {
	w := newWE(t, 1, 0)
	// Sessions of 1 s, 10 s, 100 s, 1000 s.
	at := 0.0
	for _, d := range []float64{1000, 10_000, 100_000, 1_000_000} {
		w.ObservePlug(1, at)
		w.ObserveUnplug(1, at+d)
		at += d + 5000
	}
	if w.Sessions(1) != 4 {
		t.Fatalf("Sessions = %d, want 4", w.Sessions(1))
	}
	w.ObservePlug(1, at)

	// At 0 elapsed, extras are the full durations; q=0 is the shortest.
	if rem, ok := w.RemainingMs(1, at, 0); !ok || rem != 1000 {
		t.Errorf("q=0 RemainingMs = %v, %v; want 1000, true", rem, ok)
	}
	// 5 s in, the 1 s session is excluded; q=0 over {5k, 95k, 995k}.
	if rem, ok := w.RemainingMs(1, at+5000, 0); !ok || rem != 5000 {
		t.Errorf("conditioned q=0 RemainingMs = %v, %v; want 5000, true", rem, ok)
	}
	// Median of the three surviving extras.
	if rem, _ := w.RemainingMs(1, at+5000, 0.5); rem != 95_000 {
		t.Errorf("conditioned q=0.5 RemainingMs = %v, want 95000", rem)
	}
}

// Clock-skewed event ordering: unplug timestamps that precede their
// plug, duplicate events, and queries behind the session start must
// not corrupt the history or panic.
func TestWindowEstimatorClockSkew(t *testing.T) {
	w := newWE(t, 1, 0)

	// Unplug with no plug at all: ignored.
	w.ObserveUnplug(1, 500)
	if w.Sessions(1) != 0 {
		t.Fatalf("phantom session from orphan unplug: %d", w.Sessions(1))
	}

	// Unplug before plug (negative duration): session discarded.
	w.ObservePlug(1, 10_000)
	w.ObserveUnplug(1, 9000)
	if w.Sessions(1) != 0 {
		t.Errorf("skewed session recorded: %d", w.Sessions(1))
	}
	if w.Plugged(1) {
		t.Error("phone still considered plugged after skewed unplug")
	}

	// Duplicate plug while plugged keeps the original session start.
	w.ObservePlug(1, 20_000)
	w.ObservePlug(1, 25_000)
	w.ObserveUnplug(1, 30_000)
	if got := w.Sessions(1); got != 1 {
		t.Fatalf("Sessions = %d, want 1", got)
	}
	w.ObservePlug(1, 40_000)
	// The single recorded duration must be 10 s (from the first plug),
	// not 5 s.
	if rem, ok := w.RemainingMs(1, 40_000, 0.5); !ok || rem != 10_000 {
		t.Errorf("RemainingMs = %v, %v; want 10000, true", rem, ok)
	}
	// Duplicate unplug while unplugged: ignored.
	w.ObserveUnplug(1, 41_000)
	w.ObserveUnplug(1, 42_000)
	if got := w.Sessions(1); got != 2 {
		t.Errorf("Sessions = %d, want 2", got)
	}
	// Query clock behind the session start: decline rather than invent
	// a negative elapsed time.
	w.ObservePlug(1, 50_000)
	if _, ok := w.RemainingMs(1, 49_000, 0.5); ok {
		t.Error("RemainingMs answered for nowMs before plug")
	}
}

// A replug inside the flap-merge window must undo the short session
// the unplug recorded and resume the original session.
func TestWindowEstimatorFlapMerge(t *testing.T) {
	w := newWE(t, 1, 2000)
	w.ObservePlug(1, 0)
	w.ObserveUnplug(1, 60_000)  // real 60 s session
	w.ObservePlug(1, 100_000)   // new session (40 s gap > merge window)
	w.ObserveUnplug(1, 105_000) // cable wiggle: 5 s "session" recorded...
	w.ObservePlug(1, 105_500)   // ...replug 500 ms later merges it away
	if got := w.Sessions(1); got != 1 {
		t.Fatalf("Sessions after flap = %d, want 1 (short session undone)", got)
	}
	// The resumed session still starts at 100 s: unplugging at 160 s
	// records a 60 s session, not 54.5 s.
	w.ObserveUnplug(1, 160_000)
	if got := w.Sessions(1); got != 2 {
		t.Fatalf("Sessions = %d, want 2", got)
	}
	w.ObservePlug(1, 200_000)
	if rem, ok := w.RemainingMs(1, 200_000, 0.9); !ok || rem != 60_000 {
		t.Errorf("RemainingMs = %v, %v; want 60000, true (both sessions 60 s)", rem, ok)
	}

	// A flap after a skew-discarded session has nothing to undo and
	// must not pop an unrelated duration.
	w2 := newWE(t, 1, 2000)
	w2.ObservePlug(2, 0)
	w2.ObserveUnplug(2, 30_000) // real session
	w2.ObservePlug(2, 50_000)
	w2.ObserveUnplug(2, 49_000) // skewed: discarded
	w2.ObservePlug(2, 49_500)   // within merge window of the discard
	if got := w2.Sessions(2); got != 1 {
		t.Errorf("Sessions = %d, want 1 (real session must survive)", got)
	}
}

func TestWindowEstimatorSeedAndRing(t *testing.T) {
	w := newWE(t, 3, 0)
	w.Seed(1, []float64{1000, 2000, 3000, -50}) // negative entries dropped
	if got := w.Sessions(1); got != 3 {
		t.Fatalf("Sessions after seed = %d, want 3", got)
	}
	// Seeded history alone satisfies minSessions once the phone plugs.
	w.ObservePlug(1, 0)
	if rem, ok := w.RemainingMs(1, 0, 0); !ok || rem != 1000 {
		t.Errorf("RemainingMs = %v, %v; want 1000, true", rem, ok)
	}

	// The ring stays bounded and keeps the newest observations.
	var big []float64
	for i := 0; i < maxWindowSessions+10; i++ {
		big = append(big, float64(i+1)*100)
	}
	w.Seed(2, big)
	if got := w.Sessions(2); got != maxWindowSessions {
		t.Errorf("Sessions = %d, want %d", got, maxWindowSessions)
	}
	w.ObservePlug(2, 0)
	// The oldest 10 entries (100..1000 ms) were evicted, so the
	// shortest surviving session is 1100 ms.
	if rem, ok := w.RemainingMs(2, 0, 0); !ok || rem != 1100 {
		t.Errorf("RemainingMs = %v, %v; want 1100, true", rem, ok)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	vals := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1. / 3, 20}, {-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := quantile(vals, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be reordered in place.
	shuffled := []float64{30, 10, 40, 20}
	quantile(shuffled, 0.5)
	if shuffled[0] != 30 {
		t.Error("quantile sorted its input in place")
	}
}
