// Package cluster is the batteries-included harness that stands up a
// complete CWC deployment in one process: a master on a loopback TCP
// port plus a fleet of workers with device-catalog personalities. The
// examples and integration tests use it; it is also the shortest path for
// a library user to try CWC ("quickstart" in the README).
package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"cwc/internal/device"
	"cwc/internal/faults"
	"cwc/internal/server"
	"cwc/internal/worker"
)

// Options configure a cluster.
type Options struct {
	// Phones to emulate; defaults to six phones from the device catalog.
	Phones []device.Phone
	// DelayPerKB adds emulated per-KB execution delay to every worker,
	// scaled inversely by each phone's effective clock so faster phones
	// finish sooner (zero: full host speed).
	DelayPerKB time.Duration
	// ChargingTimeScale, when positive, gives every worker an emulated
	// battery (from its device spec) charging at the given acceleration
	// and the live MIMD task throttler (§4.3). Phones start at
	// ChargingStartPct percent.
	ChargingTimeScale float64
	ChargingStartPct  float64
	// Faults, when set, injects the plan's deterministic faults into every
	// link: worker i dials through Faults.Dialer(i, ...) and the master's
	// listener is wrapped with Faults.WrapListener. The phones its
	// byzantine directives afflict rewrite their results at that dial.
	// Pair it with a Reconnect policy so workers ride out the injected
	// failures.
	Faults *faults.Plan
	// Reconnect is every worker's reconnection policy (zero values take
	// the worker defaults). A nonzero Seed is offset per worker so the
	// fleet's backoff jitter does not move in lockstep.
	Reconnect worker.ReconnectPolicy
	// Server overrides; Addr is always forced to loopback.
	Server server.Config
}

// Cluster is a running in-process deployment.
type Cluster struct {
	Master  *server.Master
	Workers []*worker.Phone

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// DefaultPhones returns a small heterogeneous fleet for examples.
func DefaultPhones() []device.Phone {
	cat := device.Catalog()
	phones := make([]device.Phone, 6)
	for i := range phones {
		phones[i] = device.Phone{ID: i, Spec: cat[i%len(cat)], House: i/2 + 1, Radio: device.WiFiG}
	}
	return phones
}

// Start launches the master and workers and waits until every worker has
// registered.
func Start(ctx context.Context, opts Options) (*Cluster, error) {
	if len(opts.Phones) == 0 {
		opts.Phones = DefaultPhones()
	}
	cfg := opts.Server
	cfg.Addr = "127.0.0.1:0"
	if opts.Faults != nil {
		ln := cfg.Listener
		if ln == nil {
			var err error
			if ln, err = net.Listen("tcp", cfg.Addr); err != nil {
				return nil, fmt.Errorf("cluster: %w", err)
			}
		}
		cfg.Listener = opts.Faults.WrapListener(ln)
	}
	m := server.New(cfg)
	if err := m.Start(); err != nil {
		return nil, err
	}

	runCtx, cancel := context.WithCancel(context.Background())
	c := &Cluster{Master: m, cancel: cancel}

	var byz map[int]faults.ByzantineSpec
	if opts.Faults != nil {
		byz = opts.Faults.ByzantineFor(len(opts.Phones))
	}
	for i, ph := range opts.Phones {
		delay := opts.DelayPerKB
		if delay > 0 {
			// Faster phones get proportionally less emulated delay.
			delay = time.Duration(float64(delay) * 1000 / ph.Spec.CPU.EffectiveMHz())
		}
		var charging *worker.Charging
		if opts.ChargingTimeScale > 0 {
			charging = &worker.Charging{
				Battery:      ph.Spec.Battery,
				StartPercent: opts.ChargingStartPct,
				TimeScale:    opts.ChargingTimeScale,
			}
		}
		var dial func(ctx context.Context) (net.Conn, error)
		if opts.Faults != nil {
			addr := m.Addr()
			dial = opts.Faults.Dialer(i, func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "tcp", addr)
			})
			if s, ok := byz[i]; ok {
				dial = byzantineDial(s, dial)
			}
		}
		rc := opts.Reconnect
		if rc.Seed != 0 {
			rc.Seed += int64(i)
		}
		w, err := worker.New(worker.Config{
			ServerAddr: m.Addr(),
			Model:      ph.Spec.Model,
			CPUMHz:     ph.Spec.CPU.ClockMHz,
			RAMMB:      ph.Spec.RAMMB,
			DelayPerKB: delay,
			Dial:       dial,
			Charging:   charging,
			Reconnect:  rc,
		})
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("cluster: creating worker %s: %w", ph.Name(), err)
		}
		c.Workers = append(c.Workers, w)
		c.wg.Add(1)
		go func(w *worker.Phone) {
			defer c.wg.Done()
			_ = w.Run(runCtx)
		}(w)
	}

	if err := m.WaitForPhones(ctx, len(opts.Phones)); err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

// Stop tears the whole deployment down.
func (c *Cluster) Stop() {
	c.Master.Close()
	c.cancel()
	c.wg.Wait()
}
