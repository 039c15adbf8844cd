// Command cwc-worker runs one CWC phone worker: it connects to the
// central server, registers its (emulated) device personality, and
// executes whatever the scheduler assigns. -unplug-after emulates the
// owner detaching the charger; -vanish-after emulates a silent
// connectivity loss the server must detect via keepalives.
//
// Usage:
//
//	cwc-worker -server 127.0.0.1:9128 -model "HTC G2"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cwc/internal/device"
	"cwc/internal/obs"
	"cwc/internal/worker"
)

func main() {
	var (
		addr     = flag.String("server", "127.0.0.1:9128", "central server address, or a comma-separated failover list (primary,standby)")
		model    = flag.String("model", "Nexus S", "device model from the catalog (or free-form with -mhz)")
		mhz      = flag.Float64("mhz", 0, "CPU clock override in MHz (0: from catalog model)")
		ram      = flag.Int("ram", 0, "RAM override in MB (0: from catalog model)")
		delay    = flag.Duration("delay-per-kb", 0, "emulated extra execution delay per input KB")
		unplugIn = flag.Duration("unplug-after", 0, "emulate an unplug (online failure) after this duration")
		vanishIn = flag.Duration("vanish-after", 0, "emulate a silent death (offline failure) after this duration")
		charge   = flag.Float64("charge-scale", 0, "emulate the battery + MIMD task throttling, accelerating battery time by this factor (0: off)")
		chargePc = flag.Float64("charge-start", 30, "initial battery percent for -charge-scale")
		token    = flag.String("token", "", "enrolment token when the server requires one")
		replugIn = flag.Duration("replug-after", 0, "after -unplug-after or -vanish-after, rejoin the pool this long after leaving (0: stay out)")
		ckptKB   = flag.Int("ckpt-kb", 0, "checkpoint-streaming interval override in KB of input processed (0: follow the server's announced policy; negative: disable)")
		ckptMs   = flag.Duration("ckpt-every", 0, "wall-time checkpoint-streaming trigger override (0: follow the server; negative: disable)")

		reconnect   = flag.Bool("reconnect", true, "reconnect with backoff when the server connection is lost")
		reconnBase  = flag.Duration("reconnect-base", 100*time.Millisecond, "initial reconnect backoff delay")
		reconnMax   = flag.Duration("reconnect-max", 5*time.Second, "backoff delay cap")
		reconnTries = flag.Int("reconnect-attempts", 10, "consecutive failed reconnects before giving up (negative: never)")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
		bboxFile    = flag.String("blackbox-file", "", "dump the in-memory flight recorder (recent log lines + span events) to this JSONL file on panic or SIGQUIT (empty: recorder off)")
	)
	flag.Parse()
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cwc-worker:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level).With("app", "cwc-worker")
	fatalf := func(format string, args ...any) {
		logger.Errorf(format, args...)
		os.Exit(1)
	}
	// Worker-side flight recorder: records this phone's own span events
	// and log tail regardless of whether the master asked for telemetry
	// (a black box must already be recording when the crash happens).
	var blackbox *obs.Tracer
	if *bboxFile != "" {
		blackbox = obs.NewTracer(1024)
		logger.SetTap(blackbox.Log)
		dump := func(why string) {
			if err := blackbox.DumpFile(*bboxFile); err != nil {
				logger.Errorf("black-box dump (%s): %v", why, err)
				return
			}
			logger.Infof("black-box dumped to %s (%s)", *bboxFile, why)
		}
		defer func() {
			if r := recover(); r != nil {
				dump("panic")
				panic(r)
			}
		}()
		qc := make(chan os.Signal, 1)
		signal.Notify(qc, syscall.SIGQUIT)
		go func() {
			<-qc
			dump("SIGQUIT")
			os.Exit(131)
		}()
	}

	cpuMHz, ramMB := *mhz, *ram
	for _, spec := range device.Catalog() {
		if spec.Model == *model {
			if cpuMHz == 0 {
				cpuMHz = spec.CPU.ClockMHz
			}
			if ramMB == 0 {
				ramMB = spec.RAMMB
			}
		}
	}
	if cpuMHz == 0 {
		fatalf("unknown model %q and no -mhz given; catalog models: %v",
			*model, catalogModels())
	}
	if ramMB == 0 {
		ramMB = 512
	}

	var charging *worker.Charging
	if *charge > 0 {
		spec := device.NexusS.Battery
		for _, s := range device.Catalog() {
			if s.Model == *model {
				spec = s.Battery
			}
		}
		charging = &worker.Charging{
			Battery:      spec,
			StartPercent: *chargePc,
			TimeScale:    *charge,
		}
	}
	w, werr := worker.New(worker.Config{
		ServerAddr: *addr,
		Model:      *model,
		CPUMHz:     cpuMHz,
		RAMMB:      ramMB,
		DelayPerKB: *delay,
		Charging:   charging,
		AuthToken:  *token,
		Blackbox:   blackbox,

		CheckpointEveryKB: *ckptKB,
		CheckpointEvery:   *ckptMs,
		Reconnect: worker.ReconnectPolicy{
			Disabled:    !*reconnect,
			BaseDelay:   *reconnBase,
			MaxDelay:    *reconnMax,
			MaxAttempts: *reconnTries,
		},
	})
	if werr != nil {
		fatalf("%v", werr)
	}
	if *unplugIn > 0 {
		time.AfterFunc(*unplugIn, func() {
			logger.Warnf("unplugging (online failure)")
			w.Unplug()
		})
	}
	if *vanishIn > 0 {
		time.AfterFunc(*vanishIn, func() {
			logger.Warnf("vanishing (offline failure)")
			w.Vanish()
		})
	}
	logger.Infof("connecting to %s as %s (%.0f MHz, %d MB)", *addr, *model, cpuMHz, ramMB)
	for {
		if err := w.Run(context.Background()); err != nil {
			fatalf("%v", err)
		}
		if *replugIn <= 0 {
			break
		}
		// The paper's phones re-enter the pool after short absences.
		logger.Infof("left the pool; replugging in %v", *replugIn)
		time.Sleep(*replugIn)
		w.Replug()
	}
	logger.Infof("exited cleanly")
}

func catalogModels() []string {
	var out []string
	for _, spec := range device.Catalog() {
		out = append(out, spec.Model)
	}
	return out
}
