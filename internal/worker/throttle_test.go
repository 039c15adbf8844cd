package worker

import (
	"context"
	"testing"
	"time"

	"cwc/internal/device"
	"cwc/internal/protocol"
)

func TestThrottleRunnerPausesExecution(t *testing.T) {
	// Huge time scale: the battery charges ~2400 battery-seconds per wall
	// second, so δ measurement (~60 battery-seconds) and several duty
	// cycles pass within the test.
	r := newThrottleRunner(&Charging{
		Battery:      device.HTCSensation.Battery,
		StartPercent: 10,
		TimeScale:    2400,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Drive the pacer like a task would for a while.
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		r.Pause(ctx)
	}
	if r.Pauses() == 0 {
		t.Error("throttler never paused execution (no sleep phases hit)")
	}
	if r.Percent() <= 10 {
		t.Errorf("battery did not charge: %.1f%%", r.Percent())
	}
}

func TestThrottleRunnerFullBatteryRunsFree(t *testing.T) {
	r := newThrottleRunner(&Charging{
		Battery:      device.HTCSensation.Battery,
		StartPercent: 100,
		TimeScale:    1000,
	})
	ctx := context.Background()
	time.Sleep(5 * time.Millisecond)
	start := time.Now()
	for i := 0; i < 100; i++ {
		r.Pause(ctx)
	}
	// A full battery never throttles (the paper: no penalty once fully
	// charged), so 100 Pause calls are nearly instantaneous.
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("full-battery pauses took %v", elapsed)
	}
	if r.Pauses() != 0 {
		t.Errorf("full battery recorded %d pauses", r.Pauses())
	}
}

func TestThrottleRunnerCanceledContext(t *testing.T) {
	r := newThrottleRunner(&Charging{
		Battery:      device.HTCSensation.Battery,
		StartPercent: 10,
		TimeScale:    2400,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			r.Pause(ctx)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Pause did not respect context cancellation")
	}
}

func TestWorkerWithChargingEmulationCompletesTasks(t *testing.T) {
	w, fs, _ := startWorker(t, Config{
		Charging: &Charging{
			Battery:      device.HTCSensation.Battery,
			StartPercent: 20,
			TimeScale:    2400,
		},
	})
	fs.welcome(1)
	// A large line-based input so the task crosses many pacer
	// checkpoints (every 256 lines).
	input := make([]byte, 0, 512*1024)
	for len(input) < 500*1024 {
		input = append(input, []byte("104729\n")...)
	}
	fs.send(&protocol.Message{Type: protocol.TypeAssign, JobID: 1,
		Task: "primecount", Input: input})
	res := fs.recv()
	if res.Type != protocol.TypeResult {
		t.Fatalf("got %s: %s", res.Type, res.Error)
	}
	if w.BatteryPercent() <= 20 {
		t.Errorf("battery at %.1f%%, should have charged during execution",
			w.BatteryPercent())
	}
	// The throttler should have held the task back at least once while
	// the battery was below full.
	if w.Stats().ThrottlePauses == 0 {
		t.Error("task ran with no throttling pauses")
	}
}

func TestWorkerWithoutChargingReportsDefaults(t *testing.T) {
	w, err := New(Config{ServerAddr: "x", CPUMHz: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if w.BatteryPercent() != -1 {
		t.Errorf("BatteryPercent = %v without emulation", w.BatteryPercent())
	}
	if n := w.Stats().ThrottlePauses; n != 0 {
		t.Errorf("ThrottlePauses = %d without emulation", n)
	}
}

// The headline §4.3 property, live in the runtime: with throttling the
// battery charges essentially as fast as an idle phone, while the task
// still makes progress.
func TestWorkerThrottlingPreservesChargeRate(t *testing.T) {
	const scale = 3600 // one wall second = one battery hour
	run := func(withTask bool) (ratePctPerSec float64, taskDone bool) {
		w, fs, _ := startWorker(t, Config{
			Charging: &Charging{
				Battery:      device.HTCSensation.Battery,
				StartPercent: 30,
				TimeScale:    scale,
			},
		})
		fs.welcome(1)
		start := w.BatteryPercent()
		t0 := time.Now()
		if withTask {
			input := make([]byte, 0, 256*1024)
			for len(input) < 250*1024 {
				input = append(input, []byte("999983\n")...)
			}
			fs.send(&protocol.Message{Type: protocol.TypeAssign, JobID: 1,
				Task: "primecount", Input: input})
			res := fs.recv()
			taskDone = res.Type == protocol.TypeResult
		} else {
			time.Sleep(300 * time.Millisecond)
		}
		gain := w.BatteryPercent() - start
		return gain / time.Since(t0).Seconds(), taskDone
	}
	idleRate, _ := run(false)
	busyRate, done := run(true)
	if !done {
		t.Fatal("throttled task did not complete")
	}
	if idleRate <= 0 || busyRate <= 0 {
		t.Fatalf("rates: idle %.2f, busy %.2f %%/s", idleRate, busyRate)
	}
	// The throttled run charges at (nearly) the idle rate — the §4.3
	// property; without throttling it would charge ~26% slower. Allow
	// generous slack for wall-clock noise.
	if busyRate < idleRate*0.65 {
		t.Errorf("throttled charge rate %.2f %%/s fell badly behind idle %.2f %%/s",
			busyRate, idleRate)
	}
}
