// Package predict implements CWC's task execution-time prediction
// (paper §4.1, Figure 6).
//
// Profiling every (phone, task) pair is too expensive, so CWC runs each
// task once on 1 KB of input on the slowest phone (clock S MHz, taking T_s
// ms) and predicts that a phone with an A MHz clock completes the same
// work in T_s · S/A ms. Phones report actual execution times with every
// completed task, and the predictor folds those observations back in, so
// phones that outperform their clock ratio (the paper's phones 2 and 9)
// converge to accurate estimates after their first report.
package predict

import (
	"fmt"
	"sync"
)

// Estimator predicts c_ij — the time in milliseconds for phone i to
// execute task j on 1 KB of input. It is safe for concurrent use.
type Estimator struct {
	mu sync.RWMutex
	// baseMHz is S, the clock of the profiling (slowest) phone.
	baseMHz float64
	// profile is T_s per task: ms/KB measured on the profiling phone.
	profile map[string]float64
	// learned holds refined per-(phone, task) estimates from reports.
	learned map[learnKey]float64
	// alpha is the EWMA weight given to a new observation.
	alpha float64
}

type learnKey struct {
	phone int
	task  string
}

// New returns an estimator anchored at the profiling phone's clock (MHz).
// alpha is the exponential weight for folding in reported execution times;
// the paper replaces the prediction with the report, which is alpha = 1.
func New(baseMHz, alpha float64) (*Estimator, error) {
	if baseMHz <= 0 {
		return nil, fmt.Errorf("predict: non-positive base clock %v", baseMHz)
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("predict: alpha %v out of (0,1]", alpha)
	}
	return &Estimator{
		baseMHz: baseMHz,
		profile: map[string]float64{},
		learned: map[learnKey]float64{},
		alpha:   alpha,
	}, nil
}

// BaseMHz returns the profiling phone's clock.
func (e *Estimator) BaseMHz() float64 { return e.baseMHz }

// SetProfile records T_s for a task: the measured ms/KB on the profiling
// phone. This is the single profiling run the scaling technique needs.
func (e *Estimator) SetProfile(task string, msPerKB float64) error {
	if msPerKB <= 0 {
		return fmt.Errorf("predict: non-positive profile %v for task %q", msPerKB, task)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.profile[task] = msPerKB
	return nil
}

// Profiled reports whether the task has a base profile.
func (e *Estimator) Profiled(task string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, ok := e.profile[task]
	return ok
}

// PredictedSpeedup returns the clock-scaling speedup A/S the model expects
// for a phone with the given clock, relative to the profiling phone —
// the x-axis of the paper's Figure 6.
func (e *Estimator) PredictedSpeedup(phoneMHz float64) float64 {
	return phoneMHz / e.baseMHz
}

// Estimate returns c_ij in ms/KB for the given phone. A refined estimate
// from prior reports takes precedence; otherwise the clock-scaling
// prediction T_s · S/A is used. It fails if the task was never profiled
// or the clock is non-positive.
func (e *Estimator) Estimate(task string, phoneID int, phoneMHz float64) (float64, error) {
	if phoneMHz <= 0 {
		return 0, fmt.Errorf("predict: non-positive clock %v for phone %d", phoneMHz, phoneID)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if c, ok := e.learned[learnKey{phoneID, task}]; ok {
		return c, nil
	}
	ts, ok := e.profile[task]
	if !ok {
		return 0, fmt.Errorf("predict: task %q has no base profile", task)
	}
	return ts * e.baseMHz / phoneMHz, nil
}

// Report folds an observed execution time (ms/KB of input actually
// processed) into the estimate for (phone, task). Subsequent Estimate
// calls for the pair use the refined value, matching the paper's
// "scheduler then updates its prediction for each phone (and task) based
// on the reported execution times".
func (e *Estimator) Report(task string, phoneID int, observedMsPerKB float64) error {
	if observedMsPerKB <= 0 {
		return fmt.Errorf("predict: non-positive observation %v", observedMsPerKB)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	k := learnKey{phoneID, task}
	if prev, ok := e.learned[k]; ok {
		e.learned[k] = prev + e.alpha*(observedMsPerKB-prev)
	} else {
		e.learned[k] = observedMsPerKB
	}
	return nil
}

// Profile returns T_s (ms/KB on the profiling phone) for a task, with ok
// reporting whether the task was ever profiled.
func (e *Estimator) Profile(task string) (float64, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ts, ok := e.profile[task]
	return ts, ok
}

// LearnedEstimate returns the report-refined c_ij for (phone, task), with
// ok false when no report has been folded in yet (Estimate would fall
// back to clock scaling).
func (e *Estimator) LearnedEstimate(task string, phoneID int) (float64, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	c, ok := e.learned[learnKey{phoneID, task}]
	return c, ok
}

// Tasks lists every profiled task (order unspecified). Introspection for
// the master's /statusz view of prediction refinement.
func (e *Estimator) Tasks() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.profile))
	for t := range e.profile {
		out = append(out, t)
	}
	return out
}
