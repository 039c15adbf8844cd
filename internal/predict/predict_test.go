package predict

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func newEst(t *testing.T) *Estimator {
	t.Helper()
	e, err := New(806, 1) // HTC G2 anchor, paper-style replacement updates
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0.5); err == nil {
		t.Error("zero base clock should error")
	}
	if _, err := New(-100, 0.5); err == nil {
		t.Error("negative base clock should error")
	}
	if _, err := New(806, 0); err == nil {
		t.Error("alpha 0 should error")
	}
	if _, err := New(806, 1.5); err == nil {
		t.Error("alpha > 1 should error")
	}
}

func TestClockScaling(t *testing.T) {
	e := newEst(t)
	if err := e.SetProfile("primes", 10); err != nil {
		t.Fatal(err)
	}
	// A phone twice as fast should take half the time.
	got, err := e.Estimate("primes", 1, 1612)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-5) > 1e-9 {
		t.Errorf("estimate = %v ms/KB, want 5", got)
	}
	// The profiling phone itself: T_s unchanged.
	got, err = e.Estimate("primes", 0, 806)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("anchor estimate = %v, want 10", got)
	}
}

func TestPredictedSpeedup(t *testing.T) {
	e := newEst(t)
	// Paper: a phone with X MHz has expected speedup X/806 vs the HTC G2.
	if got := e.PredictedSpeedup(1188); math.Abs(got-1188.0/806) > 1e-12 {
		t.Errorf("speedup = %v", got)
	}
	if e.BaseMHz() != 806 {
		t.Errorf("BaseMHz = %v", e.BaseMHz())
	}
}

func TestEstimateErrors(t *testing.T) {
	e := newEst(t)
	if _, err := e.Estimate("unprofiled", 1, 1000); err == nil {
		t.Error("unprofiled task should error")
	}
	if err := e.SetProfile("primes", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate("primes", 1, 0); err == nil {
		t.Error("zero clock should error")
	}
}

func TestSetProfileValidation(t *testing.T) {
	e := newEst(t)
	if err := e.SetProfile("p", 0); err == nil {
		t.Error("zero profile should error")
	}
	if err := e.SetProfile("p", -1); err == nil {
		t.Error("negative profile should error")
	}
	if e.Profiled("p") {
		t.Error("failed SetProfile must not register the task")
	}
	if err := e.SetProfile("p", 3); err != nil {
		t.Fatal(err)
	}
	if !e.Profiled("p") {
		t.Error("Profiled should be true after SetProfile")
	}
}

func TestReportOverridesScaling(t *testing.T) {
	e := newEst(t)
	if err := e.SetProfile("wordcount", 8); err != nil {
		t.Fatal(err)
	}
	// Phone 2 (a paper fast phone) reports running faster than its clock
	// ratio implies.
	if err := e.Report("wordcount", 2, 3.0); err != nil {
		t.Fatal(err)
	}
	got, err := e.Estimate("wordcount", 2, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.0 {
		t.Errorf("estimate after report = %v, want 3.0 (alpha=1 replaces)", got)
	}
	// Other phones are unaffected.
	other, err := e.Estimate("wordcount", 5, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(other-8.0*806/1200) > 1e-9 {
		t.Errorf("unreported phone estimate = %v", other)
	}
}

func TestReportEWMA(t *testing.T) {
	e, err := New(806, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetProfile("blur", 20); err != nil {
		t.Fatal(err)
	}
	if err := e.Report("blur", 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := e.Report("blur", 1, 20); err != nil {
		t.Fatal(err)
	}
	got, err := e.Estimate("blur", 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// First report seeds 10; second update: 10 + 0.5*(20-10) = 15.
	if math.Abs(got-15) > 1e-9 {
		t.Errorf("EWMA estimate = %v, want 15", got)
	}
}

func TestReportValidation(t *testing.T) {
	e := newEst(t)
	if err := e.Report("t", 1, 0); err == nil {
		t.Error("zero observation should error")
	}
}

func TestConcurrentUse(t *testing.T) {
	e := newEst(t)
	if err := e.SetProfile("primes", 10); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := e.Report("primes", id, float64(i%7+1)); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.Estimate("primes", id, 1000); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Property: clock scaling is exact — estimate * phoneMHz == T_s * baseMHz
// for any positive clocks, before any reports.
func TestScalingInvariantProperty(t *testing.T) {
	f := func(tsRaw, clockRaw uint16) bool {
		ts := float64(tsRaw)/100 + 0.01
		clock := float64(clockRaw) + 1
		e, err := New(806, 1)
		if err != nil {
			return false
		}
		if err := e.SetProfile("t", ts); err != nil {
			return false
		}
		got, err := e.Estimate("t", 1, clock)
		if err != nil {
			return false
		}
		return math.Abs(got*clock-ts*806) < 1e-6*ts*806
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: with alpha in (0,1], the learned estimate always stays within
// the convex hull of the observations.
func TestEWMABoundedProperty(t *testing.T) {
	f := func(obsRaw []uint8, alphaRaw uint8) bool {
		if len(obsRaw) == 0 {
			return true
		}
		alpha := (float64(alphaRaw%100) + 1) / 100
		e, err := New(806, alpha)
		if err != nil {
			return false
		}
		if err := e.SetProfile("t", 1); err != nil {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, o := range obsRaw {
			v := float64(o) + 1
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			if err := e.Report("t", 1, v); err != nil {
				return false
			}
		}
		got, err := e.Estimate("t", 1, 806)
		if err != nil {
			return false
		}
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
