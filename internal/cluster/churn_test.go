package cluster

// The churn-storm acceptance scenario for plug-aware predictive
// placement: the "morning unplug wave", where half the fleet leaves the
// chargers inside a narrow band and flaps back on shortly after. The
// same storm (same seeded faults.Wave schedule) is driven against two
// otherwise-identical clusters — one with plug-aware placement and
// proactive drain, one with prediction disabled — and the /metrics
// deltas must show the prediction paying for itself: fewer requeued
// attempts and fewer assignment bytes re-shipped, with byte-identical
// final aggregates.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cwc/internal/faults"
	"cwc/internal/obs"
	"cwc/internal/tasks"
	"cwc/internal/worker"
)

// counterValue parses one counter from a /metrics exposition body
// (missing counters read as zero, e.g. drain counters on a
// prediction-disabled master).
func counterValue(text, name string) int64 {
	var v int64
	fmt.Sscanf(findLine(text, name+" "), name+" %d", &v)
	return v
}

func TestChurnStormPlugAwareSavesRecompute(t *testing.T) {
	if testing.Short() {
		t.Skip("churn storm skipped in -short mode")
	}
	phones := DefaultPhones()

	// The storm, straight from the faults DSL: 50% of the fleet unplugs
	// between t=300ms and t=500ms after dispatch begins, each phone
	// flapping back onto the charger 400ms later. Both runs replay the
	// identical seeded schedule.
	plan, err := faults.ParseScenario(`
		seed: 7
		wave: frac=0.5 start=300ms spread=200ms replug-after=400ms
	`)
	if err != nil {
		t.Fatal(err)
	}
	acts := plan.Schedule(len(phones))
	if len(acts) != len(phones)/2 {
		t.Fatalf("storm schedules %d phones, want %d", len(acts), len(phones)/2)
	}
	doomed := map[int]bool{}
	for _, a := range acts {
		doomed[a.Phone] = true
	}

	rng := rand.New(rand.NewSource(77))
	input := tasks.GenIntegers(256, 100000, rng)
	var ck tasks.Checkpoint
	want, err := (tasks.PrimeCount{}).Process(context.Background(), input, &ck)
	if err != nil {
		t.Fatal(err)
	}

	// run drives one cluster through the storm and returns the final
	// aggregate plus the /metrics exposition scraped after completion.
	run := func(t *testing.T, plugAware bool) ([]byte, string) {
		t.Helper()
		opts := Options{Phones: phones, DelayPerKB: 10 * time.Millisecond}
		opts.Server.Metrics = obs.NewRegistry()
		opts.Server.ObsAddr = "127.0.0.1:0"
		opts.Server.KeepalivePeriod = 100 * time.Millisecond
		opts.Server.KeepaliveTolerance = 3
		if plugAware {
			opts.Server.PlugAware = true
		}
		c := startCluster(t, opts)
		base := "http://" + c.Master.ObsAddr()

		if plugAware {
			// Seed each phone's learned charge-window history: the doomed
			// phones have a short-window past (their windows are about to
			// close), the rest charge for hours. In a deployment this history
			// accrues from observed plug/unplug events; seeding stands in for
			// the fleet's prior weeks on the chargers.
			modelToID := map[string]int{}
			for _, p := range c.Master.Phones() {
				modelToID[p.Model] = p.ID
			}
			short := []float64{900, 900, 900, 900}
			long := []float64{3.6e6, 3.6e6, 3.6e6, 3.6e6}
			var doomedIDs []int
			for i, ph := range phones {
				id, ok := modelToID[ph.Spec.Model]
				if !ok {
					t.Fatalf("phone %s not registered", ph.Spec.Model)
				}
				if doomed[i] {
					c.Master.SeedChargeWindows(id, short)
					doomedIDs = append(doomedIDs, id)
				} else {
					c.Master.SeedChargeWindows(id, long)
				}
			}
			// The drain monitor should move on the doomed phones before any
			// work is placed: their predicted remaining window is under the
			// drain lead.
			deadline := time.Now().Add(10 * time.Second)
			for {
				draining := 0
				for _, id := range doomedIDs {
					if c.Master.DrainState(id) != "" {
						draining++
					}
				}
				if draining == len(doomedIDs) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d doomed phones draining", draining, len(doomedIDs))
				}
				time.Sleep(5 * time.Millisecond)
			}
			// The drain state and window prediction are live on /statusz.
			body, code := httpGet(t, base+"/statusz")
			if code != http.StatusOK {
				t.Fatalf("/statusz status %d", code)
			}
			if !strings.Contains(string(body), `"drain_state"`) ||
				!strings.Contains(string(body), `"predicted_remaining_ms"`) {
				t.Errorf("/statusz missing drain/prediction fields:\n%s", body)
			}
		}

		id, err := c.Master.Submit(tasks.PrimeCount{}, input, false)
		if err != nil {
			t.Fatal(err)
		}

		// Drive the storm against the live workers.
		replugCtx, cancelReplugs := context.WithCancel(context.Background())
		t.Cleanup(cancelReplugs)
		var storm sync.WaitGroup
		storm.Add(1)
		go func() {
			defer storm.Done()
			t0 := time.Now()
			for _, act := range acts {
				time.Sleep(time.Until(t0.Add(act.UnplugAt)))
				w := c.Workers[act.Phone]
				w.Unplug()
				if act.ReplugAt > 0 {
					storm.Add(1)
					go func(w *worker.Phone, at time.Duration) {
						defer storm.Done()
						time.Sleep(time.Until(t0.Add(at)))
						select {
						case <-replugCtx.Done():
							return
						default:
						}
						w.ReplugRejoin()
						_ = w.Run(replugCtx)
					}(w, act.ReplugAt)
				}
			}
		}()

		results := runToCompletion(t, c, []int{id}, 120*time.Second)
		body, code := httpGet(t, base+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics status %d", code)
		}
		cancelReplugs()
		storm.Wait()
		return results[id], string(body)
	}

	var awareRes, baseRes []byte
	var awareM, baseM string
	t.Run("plug-aware", func(t *testing.T) { awareRes, awareM = run(t, true) })
	t.Run("baseline", func(t *testing.T) { baseRes, baseM = run(t, false) })
	if awareRes == nil || baseRes == nil {
		t.Fatal("a run did not complete")
	}

	// Both storms end in the exact fault-free answer.
	if string(awareRes) != string(want) {
		t.Errorf("plug-aware aggregate %s != local %s", awareRes, want)
	}
	if string(baseRes) != string(want) {
		t.Errorf("baseline aggregate %s != local %s", baseRes, want)
	}

	// The prediction must pay for itself: the doomed phones were fenced
	// off (or drained cleanly) before the wave hit, so the plug-aware run
	// requeues fewer attempts and re-ships fewer assignment bytes.
	awareReq := counterValue(awareM, "cwc_requeues_total")
	baseReq := counterValue(baseM, "cwc_requeues_total")
	awareBytes := counterValue(awareM, "cwc_assign_bytes_sent_total")
	baseBytes := counterValue(baseM, "cwc_assign_bytes_sent_total")
	if baseReq == 0 {
		t.Error("baseline storm caused no requeues: the wave missed the in-flight work")
	}
	if awareReq >= baseReq {
		t.Errorf("plug-aware requeues %d >= baseline %d", awareReq, baseReq)
	}
	if awareBytes >= baseBytes {
		t.Errorf("plug-aware assign bytes %d >= baseline %d (no recompute saved)", awareBytes, baseBytes)
	}
	if drains := counterValue(awareM, "cwc_drain_started_total"); drains == 0 {
		t.Error("plug-aware run started no proactive drains")
	}
	if drains := counterValue(baseM, "cwc_drain_started_total"); drains != 0 {
		t.Errorf("prediction-disabled run started %d drains", drains)
	}
	t.Logf("requeues aware=%d base=%d, assign bytes aware=%d base=%d, saved=%d",
		awareReq, baseReq, awareBytes, baseBytes, baseBytes-awareBytes)
}
