// Command cwc-server runs the CWC central server: it listens for phone
// workers, waits for a quorum, measures bandwidths, and then runs
// scheduling rounds over a demonstration workload (or just idles as a
// registration target with -wait 0).
//
// Usage:
//
//	cwc-server -listen :9128 -phones 3
//
// Pair it with cwc-worker processes pointed at the same address.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cwc/internal/faults"
	"cwc/internal/obs"
	"cwc/internal/replica"
	"cwc/internal/server"
	"cwc/internal/tasks"
	"cwc/internal/wal"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:9128", "listen address")
		phones    = flag.Int("phones", 2, "phones to wait for before scheduling")
		waitSec   = flag.Int("wait", 60, "seconds to wait for phones (0: register-only mode, run forever)")
		keepalive = flag.Duration("keepalive", 30*time.Second, "application keepalive period")
		seed      = flag.Int64("seed", 1, "workload seed")
		inputKB   = flag.Int("input-kb", 256, "per-job input size for the demo workload")
		faultSpec = flag.String("faults", "", "fault-injection scenario: a file path or an inline DSL string (see internal/faults)")
		walDir    = flag.String("wal-dir", "", "write-ahead-log directory: replayed at start, appended during operation; survives SIGKILL at any instant")
		walSync   = flag.String("wal-sync", "always", "WAL fsync policy: always|interval|none")
		walKB     = flag.Int("wal-compact-kb", 4096, "compact the WAL into a snapshot once its segments exceed this many KB")
		ckptKB    = flag.Int("ckpt-kb", 256, "checkpoint-streaming interval announced to workers, in KB of input processed (negative: disable streaming)")
		ckptEvery = flag.Duration("ckpt-every", 0, "additional wall-time checkpoint-streaming trigger announced to workers (0: byte trigger only)")
		verifyK   = flag.Int("verify-replicas", 1, "replicated-voting factor k: execute every partition on k disjoint phones and quorum-vote the result digests (1: voting off)")
		auditRate = flag.Float64("audit-rate", 0, "spot-check fraction of partitions silently re-executed on a second phone when voting is off (0: audits off)")
		plugAware = flag.Bool("plug-aware", false, "plug-aware predictive placement: learn per-phone charge windows, veto placements that would cross the predicted unplug, and proactively drain closing windows")
		replicaLn = flag.String("replica-listen", "", "replication-stream listen address for hot standbys (requires -wal-dir; empty: replication off)")
		standbyOf = flag.String("standby-of", "", "run as a hot standby following this primary replication address; promotes to serving master when the lease expires (requires -wal-dir)")
		leaseMs   = flag.Int("lease-ms", 2000, "standby lease in milliseconds: replication silence longer than this triggers promotion")
		obsAddr   = flag.String("obs-addr", "", "admin-plane listen address for /metrics, /statusz, /debug/sched (empty: disabled)")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
		traceFile = flag.String("trace-file", "", "append task-lifecycle trace events to this JSONL file (empty: ring buffer only)")
		bboxFile  = flag.String("blackbox-file", "", "dump the in-memory flight recorder (recent log lines + trace events) to this JSONL file on panic or SIGQUIT (empty: /debug/blackbox only)")
		token     = flag.String("token", "", "enrolment token every phone must present (cwc-worker -token); empty: admit any phone")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cwc-server:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level).With("app", "cwc-server")
	fatalf := func(format string, args ...any) {
		logger.Errorf(format, args...)
		os.Exit(1)
	}
	metrics := obs.NewRegistry()
	tracer := obs.NewTracer(4096)
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatalf("opening trace file: %v", err)
		}
		defer f.Close()
		tracer.SetSink(f)
	}
	// The flight recorder shadows the log and trace streams into a
	// bounded ring so the last moments before a crash are always
	// recoverable — from /debug/blackbox while alive, and as a JSONL
	// dump on panic/SIGQUIT when -blackbox-file is set.
	blackbox := obs.NewTracer(2048)
	logger.SetTap(blackbox.Log)
	tracer.SetTee(blackbox.Record)
	dumpBlackbox := func(why string) {
		if *bboxFile == "" {
			return
		}
		if err := blackbox.DumpFile(*bboxFile); err != nil {
			logger.Errorf("black-box dump (%s): %v", why, err)
			return
		}
		logger.Infof("black-box dumped to %s (%s)", *bboxFile, why)
	}
	defer func() {
		if r := recover(); r != nil {
			dumpBlackbox("panic")
			panic(r)
		}
	}()
	if *bboxFile != "" {
		qc := make(chan os.Signal, 1)
		signal.Notify(qc, syscall.SIGQUIT)
		go func() {
			<-qc
			dumpBlackbox("SIGQUIT")
			os.Exit(131)
		}()
	}
	cfg := server.Config{
		Addr:              *listen,
		KeepalivePeriod:   *keepalive,
		CheckpointEveryKB: *ckptKB,
		CheckpointEvery:   *ckptEvery,
		VerifyReplicas:    *verifyK,
		AuditRate:         *auditRate,
		PlugAware:         *plugAware,
		Logger:            logger,
		Metrics:           metrics,
		Tracer:            tracer,
		ObsAddr:           *obsAddr,
		Blackbox:          blackbox,
		AuthToken:         *token,
	}
	var plan *faults.Plan
	if *faultSpec != "" {
		src := *faultSpec
		if b, err := os.ReadFile(*faultSpec); err == nil {
			src = string(b)
		}
		var err error
		plan, err = faults.ParseScenario(src)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.ListenerHook = func(ln net.Listener) net.Listener { return plan.WrapListener(ln) }
		logger.Infof("fault injection active on the listener (accept-side faults use the 'phone *' profile)")
	}
	// One set of WAL options for whichever role opens the log: the
	// standby (which owns its WAL until promotion) or the primary.
	var walOpts wal.Options
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			fatalf("%v", err)
		}
		walOpts = wal.Options{
			Sync:         policy,
			CompactBytes: int64(*walKB) * 1024,
			Logger:       logger.With("sub", "wal"),
			Metrics:      metrics,
		}
	}

	// Hot-standby mode: follow the primary's replication stream and, on
	// promotion, serve scheduling rounds until interrupted. The standby
	// owns its WAL (every shipped record is persisted before promotion
	// trusts it), so the normal wal.Open path below is skipped.
	if *standbyOf != "" {
		if *walDir == "" {
			fatalf("-standby-of requires -wal-dir")
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fatalf("binding takeover listener: %v", err)
		}
		cfg.Listener = ln
		st := replica.New(replica.StandbyOptions{
			PrimaryAddr:  *standbyOf,
			WALDir:       *walDir,
			WALOptions:   walOpts,
			Lease:        time.Duration(*leaseMs) * time.Millisecond,
			MasterConfig: cfg,
			Logger:       logger.With("sub", "standby"),
			Metrics:      metrics,
		})
		logger.Infof("standby: following %s (lease %dms), takeover listener on %s", *standbyOf, *leaseMs, ln.Addr())
		if err := st.Run(context.Background()); err != nil {
			fatalf("standby: %v", err)
		}
		m := st.Master()
		defer st.Log().Close()
		defer m.Close()
		logger.Infof("promoted: serving on %s until interrupted", m.Addr())
		if err := m.RunLoop(context.Background(), 250*time.Millisecond, nil); err != nil && err != context.Canceled {
			fatalf("%v", err)
		}
		return
	}

	var wlog *wal.Log
	if *walDir != "" {
		wlog, err = wal.Open(*walDir, walOpts)
		if err != nil {
			fatalf("opening WAL %s: %v", *walDir, err)
		}
		cfg.WAL = wlog
	}
	var ship *replica.Shipper
	if *replicaLn != "" {
		if wlog == nil {
			fatalf("-replica-listen requires -wal-dir (replication ships WAL records)")
		}
		ship = replica.NewShipper(replica.ShipperOptions{Logger: logger.With("sub", "replica")})
		cfg.ReplicaSink = ship
	}
	m := server.New(cfg)
	if ship != nil {
		ship.BindMaster(m)
	}
	// The master must stop before the shipper, and the shipper before the
	// WAL closes, so no append races a close; deferred calls run
	// last-in-first-out.
	if wlog != nil {
		defer wlog.Close()
	}
	if wlog != nil {
		if err := m.RecoverWAL(); err != nil {
			fatalf("replaying WAL %s: %v", *walDir, err)
		}
		if len(wlog.Recovered()) > 0 {
			logger.Infof("recovered state from WAL %s (%d pending items)", *walDir, m.PendingItems())
		}
	}
	if ship != nil {
		// First entry into the replicated regime: epoch 0 → 1. A plain
		// restart of the same primary keeps its persisted epoch.
		if m.Epoch() == 0 {
			if _, err := m.BumpEpoch(); err != nil {
				fatalf("recording initial epoch: %v", err)
			}
		}
		rln, err := net.Listen("tcp", *replicaLn)
		if err != nil {
			fatalf("binding replication listener: %v", err)
		}
		ship.Serve(rln)
		defer ship.Close()
		logger.Infof("replication stream on %s (epoch %d)", rln.Addr(), m.Epoch())
	}
	if err := m.Start(); err != nil {
		fatalf("%v", err)
	}
	defer m.Close()
	logger.Infof("listening on %s", m.Addr())
	if *obsAddr != "" {
		logger.Infof("admin plane on http://%s (/metrics /statusz /debug/sched /debug/trace /debug/timeline /debug/blackbox /debug/pprof/)", m.ObsAddr())
	}
	if *waitSec == 0 {
		logger.Infof("register-only mode; ctrl-c to exit")
		select {}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*waitSec)*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, *phones); err != nil {
		fatalf("%v", err)
	}
	logger.Infof("%d phones registered", *phones)
	if err := m.MeasureBandwidths(ctx); err != nil {
		fatalf("%v", err)
	}
	for _, p := range m.Phones() {
		logger.Infof("phone %d: %s %.0f MHz, b=%.3f ms/KB", p.ID, p.Model, p.CPUMHz, p.BMsPerKB)
	}

	// Demo workload: prime counting, word counting and a photo blur.
	rng := rand.New(rand.NewSource(*seed))
	jobIDs := map[int]string{}
	submit := func(task tasks.Task, input []byte, atomic bool, label string) {
		id, err := m.Submit(task, input, atomic)
		if err != nil {
			fatalf("%v", err)
		}
		jobIDs[id] = label
	}
	submit(tasks.PrimeCount{}, tasks.GenIntegers(float64(*inputKB), 1e6, rng), false, "primes")
	submit(tasks.WordCount{Word: "inventory"}, tasks.GenText(float64(*inputKB), rng), false, "wordcount")
	img, err := tasks.GenImageKB(float64(*inputKB)/4, rng)
	if err != nil {
		fatalf("%v", err)
	}
	submit(tasks.Blur{}, img, true, "blur")

	// Drive rounds through the scheduling loop (the paper's periodic
	// scheduling instants) until every submission has a result.
	runCtx, runCancel := context.WithCancel(context.Background())
	defer runCancel()
	go func() {
		round := 0
		err := m.RunLoop(runCtx, 250*time.Millisecond, func(report *server.RoundReport) {
			round++
			logger.Infof("round %d: %d items, predicted %.0f ms, wall %v, completed %v, requeued %d",
				round, report.Items, report.PredictedMakespanMs, report.Wall,
				report.CompletedJobs, report.Requeued)
		})
		if err != nil && err != context.Canceled {
			logger.Errorf("%v", err)
		}
	}()
	deadline := time.Now().Add(10 * time.Minute)
	for time.Now().Before(deadline) {
		done := 0
		for id := range jobIDs {
			if _, ok := m.Result(id); ok {
				done++
			}
		}
		if done == len(jobIDs) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	runCancel()
	for id, label := range jobIDs {
		if res, ok := m.Result(id); ok {
			preview := string(res)
			if len(preview) > 40 {
				preview = preview[:40] + "..."
			}
			//lint:ignore obslog job results are the command's stdout payload, not operational logging
			fmt.Printf("%s (job %d): %s\n", label, id, preview)
		}
	}
	for _, dl := range m.DeadLetters() {
		logger.Infof("dead letter: job %d (%s, %d bytes) after %d retries: %s",
			dl.JobID, dl.Task, dl.Bytes, dl.Retries, dl.Reason)
	}
	if offline := m.OfflineFailures(); len(offline) > 0 {
		byReason := map[string]int{}
		for _, of := range offline {
			byReason[of.Reason]++
		}
		logger.Infof("offline-failure events: %v", byReason)
	}
	if plan != nil {
		byKind := map[faults.EventKind]int{}
		for _, e := range plan.Recorder().Events() {
			byKind[e.Kind]++
		}
		logger.Infof("injected faults: %v", byKind)
	}
}
