package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cwc/internal/obs"
	"cwc/internal/replica"
	"cwc/internal/server"
	"cwc/internal/wal"
	"cwc/internal/worker"
)

// deployment is one master with its fleet, WAL and (optionally) standby,
// assembled the way internal/cluster does but with a link per worker.
type deployment struct {
	fleet   []phoneSpec
	master  *server.Master
	log     *wal.Log
	walDir  string
	reg     *obs.Registry
	workers []*worker.Phone
	links   []*link
	shipper *replica.Shipper

	cancel      context.CancelFunc
	wg          sync.WaitGroup
	stopStandby func()

	// setup is wal.Open through MeasureBandwidths: what an operator waits
	// before the first Submit. measure is the MeasureBandwidths share.
	setup, measure time.Duration
	// probeErr is, per phone, |probe time − probe wire bytes at the
	// configured rate| over the latter: how well the host emulated b_i.
	probeErr []float64
}

// fsyncLatency is what one WAL sync costs on the emulated disk.
const fsyncLatency = 200 * time.Microsecond

// emuDisk stands between a WAL and its segment file: writes pass through to
// the page cache, a sync costs fsyncLatency and never reaches the device.
// The disk is emulated for the same reason the links are. The sandbox's
// block device sits behind a token-bucket rate limiter: an fsync costs
// 0.2 ms while the bucket lasts and 5–14 ms once a few runs have drained it,
// so with real syncs the makespan of an fsync-per-record workload is the
// bucket's state, not the program's work. The master still holds its lock
// across every sync, so what group commit would save still shows. The wait
// spins: a timer cannot sleep for less than about a millisecond.
type emuDisk struct{ io.Writer }

func (emuDisk) Sync() error {
	for start := time.Now(); time.Since(start) < fsyncLatency; {
	}
	return nil
}

// walOptions is the log configuration of every WAL the benchmark opens.
// Compaction stays off so LogBytes growth is everything logged.
func walOptions(policy wal.SyncPolicy, reg *obs.Registry) wal.Options {
	return wal.Options{
		Sync:       policy,
		Metrics:    reg,
		WriterHook: func(w io.Writer) io.Writer { return emuDisk{w} },
	}
}

// deploy brings a fleet up in dir and measures its set-up. obsPlane binds
// the master's admin plane, which also turns worker telemetry on.
func deploy(ctx context.Context, s spec, dir string, obsPlane bool) (*deployment, error) {
	d := &deployment{fleet: s.fleet(), walDir: filepath.Join(dir, "wal"), reg: obs.NewRegistry()}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()

	start := time.Now()
	var err error
	d.log, err = wal.Open(d.walDir, walOptions(s.sync, d.reg))
	if err != nil {
		return nil, err
	}
	cfg := server.Config{Addr: "127.0.0.1:0", WAL: d.log, Metrics: d.reg, ProbeKB: s.probeKB}
	if obsPlane {
		cfg.ObsAddr = "127.0.0.1:0"
	}
	var rln net.Listener
	if s.standby {
		d.shipper = replica.NewShipper(replica.ShipperOptions{})
		cfg.ReplicaSink = d.shipper
		if rln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	d.master = server.New(cfg)
	if d.shipper != nil {
		d.shipper.BindMaster(d.master)
		d.shipper.Serve(rln)
	}
	if err := d.master.Start(); err != nil {
		return nil, err
	}
	if s.standby {
		if err := d.attachStandby(ctx, rln.Addr().String(), filepath.Join(dir, "standby-wal")); err != nil {
			return nil, err
		}
	}

	runCtx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	addr := d.master.Addr()
	for _, ph := range d.fleet {
		l := &link{kbps: ph.kbps}
		w, err := worker.New(worker.Config{
			ServerAddr: addr,
			Model:      ph.dev.Spec.Model,
			CPUMHz:     ph.dev.Spec.CPU.ClockMHz,
			RAMMB:      ph.dev.Spec.RAMMB,
			DelayPerKB: ph.delay,
			Dial: func(ctx context.Context) (net.Conn, error) {
				var nd net.Dialer
				c, err := nd.DialContext(ctx, "tcp", addr)
				if err != nil {
					return nil, err
				}
				return l.wrap(c), nil
			},
		})
		if err != nil {
			return nil, fmt.Errorf("worker %s: %w", ph.dev.Name(), err)
		}
		d.links = append(d.links, l)
		d.workers = append(d.workers, w)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			_ = w.Run(runCtx) // ends with the deployment; failures surface as failed jobs
		}()
	}
	if err := d.master.WaitForPhones(ctx, len(d.fleet)); err != nil {
		return nil, err
	}
	for _, w := range d.workers {
		if err := w.WaitRegistered(ctx); err != nil {
			return nil, err
		}
	}

	before := make([]int64, len(d.links))
	for i, l := range d.links {
		before[i] = l.bytes()
	}
	probeStart := time.Now()
	if err := d.master.MeasureBandwidths(ctx); err != nil {
		return nil, err
	}
	d.measure = time.Since(probeStart)
	d.setup = time.Since(start)

	probed := map[int]float64{}
	for _, pi := range d.master.Phones() {
		probed[pi.ID] = pi.BMsPerKB
	}
	for i, l := range d.links {
		gotMs := probed[d.workers[i].ID()] * float64(s.probeKB)
		wantMs := float64(l.bytes()-before[i]) / (l.kbps * 1024) * 1000
		d.probeErr = append(d.probeErr, math.Abs(gotMs-wantMs)/wantMs)
	}
	ok = true
	return d, nil
}

// attachStandby starts a standby following the shipper and returns once it
// holds the snapshot cut, so every later record is shipped to it. Its lease
// never runs out: promotion is the failover gate's business, not this one's.
func (d *deployment) attachStandby(ctx context.Context, primary, walDir string) error {
	attached := make(chan struct{})
	var once sync.Once
	st := replica.New(replica.StandbyOptions{
		WALDir:     walDir,
		WALOptions: walOptions(wal.SyncInterval, nil),
		Lease:      time.Hour,
		Dial: func(ctx context.Context) (net.Conn, error) {
			var nd net.Dialer
			c, err := nd.DialContext(ctx, "tcp", primary)
			if err != nil {
				return nil, err
			}
			return &notifyConn{Conn: c, first: func() { once.Do(func() { close(attached) }) }}, nil
		},
	})
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- st.Run(sctx) }()
	d.stopStandby = func() {
		cancel()
		<-done
	}
	select {
	case <-attached:
		return nil
	case err := <-done:
		done <- err
		return fmt.Errorf("standby ended before attaching: %v", err)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// notifyConn calls first after the first successful read: for a standby
// that is the snapshot frame, written right after the shipper subscribed it.
type notifyConn struct {
	net.Conn
	first func()
}

func (c *notifyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.first()
	}
	return n, err
}

// wireBytes is the bytes carried by every link so far, both directions.
func (d *deployment) wireBytes() int64 {
	var n int64
	for _, l := range d.links {
		n += l.bytes()
	}
	return n
}

// close stops everything the deployment started and waits for it. The WAL
// directory stays for recovery measurements.
func (d *deployment) close() {
	if d.master != nil {
		d.master.Close()
	}
	if d.cancel != nil {
		d.cancel()
	}
	d.wg.Wait()
	if d.shipper != nil {
		d.shipper.Close()
	}
	if d.stopStandby != nil {
		d.stopStandby()
	}
	if d.log != nil {
		d.log.Close()
	}
}

// cloneDir hard-links (or, failing that, copies) every file of src into
// dst. Recovery compacts the log it opens — it writes a snapshot and
// unlinks the segments, never rewrites them — so links are safe copies.
func cloneDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if os.Link(from, to) == nil {
			continue
		}
		b, err := os.ReadFile(from)
		if err != nil {
			return err
		}
		if err := os.WriteFile(to, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
