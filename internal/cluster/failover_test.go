package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"cwc/internal/faults"
	"cwc/internal/obs"
	"cwc/internal/protocol"
	"cwc/internal/replica"
	"cwc/internal/server"
	"cwc/internal/tasks"
	"cwc/internal/wal"
	"cwc/internal/worker"
)

// heardConn notes in at when a read last delivered bytes.
type heardConn struct {
	net.Conn
	at *atomic.Int64
}

func (c *heardConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.at.Store(time.Now().UnixNano())
	}
	return n, err
}

// driveToCompletion drives scheduling rounds on a bare master until every
// listed job has a result, tolerating transient round errors.
func driveToCompletion(t *testing.T, m *server.Master, ids []int, budget time.Duration) map[int][]byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	deadline := time.Now().Add(budget)
	results := map[int][]byte{}
	for len(results) < len(ids) && time.Now().Before(deadline) {
		if _, err := m.RunRound(ctx); err != nil {
			time.Sleep(50 * time.Millisecond)
		}
		for _, id := range ids {
			if _, ok := results[id]; ok {
				continue
			}
			if got, ok := m.Result(id); ok {
				results[id] = got
			}
		}
	}
	if len(results) < len(ids) {
		t.Fatalf("only %d of %d jobs completed (dead letters: %+v, offline: %+v)",
			len(results), len(ids), m.DeadLetters(), m.OfflineFailures())
	}
	return results
}

// rawPhone registers a bare protocol client with a master and returns
// the framed conn plus the welcome, for sending hand-built frames.
func rawPhone(t *testing.T, addr string) (*protocol.Conn, *protocol.Message) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := protocol.NewConn(raw)
	if err := conn.Send(&protocol.Message{
		Type: protocol.TypeHello, Model: "probe", CPUMHz: 1000, RAMMB: 512,
	}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	welcome, err := conn.Recv()
	if err != nil || welcome.Type != protocol.TypeWelcome {
		t.Fatalf("welcome: %+v, %v", welcome, err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	return conn, welcome
}

// waitCounter polls a labeled counter until it reaches min or the budget
// runs out.
func waitCounter(t *testing.T, reg *obs.Registry, min int64, budget time.Duration, fam string, labels ...string) int64 {
	t.Helper()
	deadline := time.Now().Add(budget)
	for {
		v := reg.Counter(fam, labels...).Value()
		if v >= min || time.Now().After(deadline) {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// The tentpole acceptance scenario: a primary master streaming its WAL
// to a hot standby is killed abruptly mid-round (no bye frames, no WAL
// shutdown). The standby promotes itself within its lease, the workers
// rotate to the takeover address on their own, the workload finishes
// with aggregates byte-identical to a local computation, and the old
// primary — resurrected from its own WAL — is provably fenced: frames
// across regimes are rejected in both directions and no result is
// double-accepted.
func TestFailoverPrimaryKillMidRound(t *testing.T) {
	if testing.Short() {
		t.Skip("failover e2e skipped in -short mode")
	}
	// The failure script comes through the faults DSL like any other
	// scenario; the harness (this test) interprets the directives.
	plan, err := faults.ParseScenario("kill-primary: at=400ms resurrect=0s")
	if err != nil {
		t.Fatal(err)
	}
	killAt := plan.PrimaryKills[0].At
	const lease = 500 * time.Millisecond

	primaryDir := filepath.Join(t.TempDir(), "primary-wal")
	standbyDir := filepath.Join(t.TempDir(), "standby-wal")

	// Primary with replication enabled.
	pwl, err := wal.Open(primaryDir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	ship := replica.NewShipper(replica.ShipperOptions{})
	preg := obs.NewRegistry()
	ptracer := obs.NewTracer(4096)
	m1 := server.New(server.Config{
		Addr: "127.0.0.1:0", WAL: pwl, ReplicaSink: ship,
		Role: "primary", Metrics: preg, Tracer: ptracer,
	})
	ship.BindMaster(m1)
	if err := m1.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ship.Serve(rln)
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}

	// Standby with a pre-bound takeover listener, its own metrics, and a
	// trace ring + admin plane so the promoted master's view of the
	// spans can be asserted after the takeover.
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sreg := obs.NewRegistry()
	stracer := obs.NewTracer(4096)
	// The standby counts its lease from the last frame it heard, up to a
	// heartbeat before the kill. heard is when its connection last
	// delivered bytes: no later than that frame was read, so a lag
	// measured from it is never shorter than the standby's own.
	var heard atomic.Int64 // unix nanoseconds
	var dialer net.Dialer
	st := replica.New(replica.StandbyOptions{
		PrimaryAddr: rln.Addr().String(),
		Dial: func(ctx context.Context) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, "tcp", rln.Addr().String())
			if err != nil {
				return nil, err
			}
			return &heardConn{Conn: c, at: &heard}, nil
		},
		WALDir:     standbyDir,
		WALOptions: wal.Options{Sync: wal.SyncNone},
		Lease:      lease,
		MasterConfig: server.Config{
			Listener: tln, Addr: tln.Addr().String(), Metrics: sreg,
			Tracer: stracer, ObsAddr: "127.0.0.1:0",
		},
		Metrics: sreg,
	})
	stCtx, stCancel := context.WithCancel(context.Background())
	defer stCancel()
	stDone := make(chan error, 1)
	go func() { stDone <- st.Run(stCtx) }()

	// Workers dial the failover list: primary first, takeover second.
	failoverAddrs := m1.Addr() + "," + tln.Addr().String()
	runCtx, runCancel := context.WithCancel(context.Background())
	defer runCancel()
	const fleet = 3
	workers := make([]*worker.Phone, fleet)
	for i := range workers {
		w, err := worker.New(worker.Config{
			ServerAddr: failoverAddrs,
			Model:      fmt.Sprintf("phone-%d", i),
			CPUMHz:     800 + 100*float64(i),
			RAMMB:      512,
			// Slow enough that no partition can finish before the
			// scripted 400ms kill: the whole workload must complete
			// under the promoted master, so the post-promotion trace
			// assertions below are deterministic.
			DelayPerKB: 20 * time.Millisecond,
			Reconnect: worker.ReconnectPolicy{
				BaseDelay:   20 * time.Millisecond,
				MaxDelay:    150 * time.Millisecond,
				MaxAttempts: -1,
				Seed:        int64(41 + i),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		go func() { _ = w.Run(runCtx) }()
	}
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if err := m1.WaitForPhones(waitCtx, fleet); err != nil {
		t.Fatal(err)
	}

	// The workload, with locally computed ground truth.
	rng := rand.New(rand.NewSource(17))
	primeIn := tasks.GenIntegers(96, 100000, rng)
	wordIn := tasks.GenText(64, rng)
	var ck1, ck2 tasks.Checkpoint
	wantPrimes, err := (tasks.PrimeCount{}).Process(context.Background(), primeIn, &ck1)
	if err != nil {
		t.Fatal(err)
	}
	wc := tasks.WordCount{Word: "inventory"}
	wantWords, err := wc.Process(context.Background(), wordIn, &ck2)
	if err != nil {
		t.Fatal(err)
	}
	idPrimes, err := m1.Submit(tasks.PrimeCount{}, primeIn, false)
	if err != nil {
		t.Fatal(err)
	}
	idWords, err := m1.Submit(wc, wordIn, false)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{idPrimes, idWords}

	// Drive rounds on the primary until the scripted kill.
	killed := make(chan struct{})
	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for {
			select {
			case <-killed:
				return
			default:
			}
			if _, err := m1.RunRound(ctx); err != nil {
				select {
				case <-killed:
					return
				case <-time.After(20 * time.Millisecond):
				}
			}
		}
	}()
	time.Sleep(killAt)
	m1.Kill() // the abrupt death: no bye frames, WAL left as-is
	close(killed)
	<-driverDone
	ship.Close()
	if err := pwl.Close(); err != nil {
		t.Fatal(err)
	}

	// The standby must promote itself within a small multiple of the
	// lease (silence detection + redial pacing + recovery), and never
	// before the lease has actually run out since it last heard its
	// primary.
	select {
	case <-st.Promoted():
	case err := <-stDone:
		t.Fatalf("standby exited instead of promoting: %v", err)
	case <-time.After(10 * lease):
		t.Fatalf("standby did not promote within %v of the kill", 10*lease)
	}
	promoteLag := time.Since(time.Unix(0, heard.Load()))
	if promoteLag < lease {
		t.Errorf("promoted %v after it last heard its primary, before the %v lease ran out", promoteLag, lease)
	}
	m2 := st.Master()
	defer func() {
		m2.Close()
		st.Log().Close()
	}()
	if got := m2.Epoch(); got != 2 {
		t.Fatalf("promoted master epoch %d, want 2", got)
	}

	// The promoted master finishes the workload and the aggregates are
	// byte-identical to the local ground truth: nothing the failover
	// dropped, duplicated, or mis-paired changed a single result byte.
	results := driveToCompletion(t, m2, ids, 60*time.Second)
	if string(results[idPrimes]) != string(wantPrimes) {
		t.Errorf("primes after failover = %s, want %s", results[idPrimes], wantPrimes)
	}
	if string(results[idWords]) != string(wantWords) {
		t.Errorf("words after failover = %s, want %s", results[idWords], wantWords)
	}

	// The trace survives the promotion. Spans are deterministic in the
	// job ID, so the dead regime's ring and the promoted master's ring
	// hold the *same* span — the two histories stitch — and the new
	// regime's events carry the bumped epoch, with the promotion itself
	// annotated in the ring.
	span := fmt.Sprintf("j%d", idPrimes)
	if evs := ptracer.Span(span); len(evs) == 0 {
		t.Errorf("dead primary's ring has no events for span %s", span)
	}
	sevs := stracer.Span(span)
	if len(sevs) == 0 {
		t.Fatalf("promoted master's ring has no events for span %s", span)
	}
	epoch2 := false
	for _, ev := range sevs {
		if ev.Epoch == 2 {
			epoch2 = true
		}
	}
	if !epoch2 {
		t.Errorf("no post-promotion event in span %s carries epoch 2: %+v", span, sevs)
	}
	promoted := false
	for _, ev := range stracer.Recent(100000) {
		if ev.Kind == obs.KindPromote && ev.Epoch == 2 {
			promoted = true
		}
	}
	if !promoted {
		t.Error("promoted master's ring has no epoch-2 promote annotation")
	}
	// And /debug/trace on the promoted master serves the stitched span.
	if m2.ObsAddr() == "" {
		t.Fatal("promoted master did not bind its admin plane")
	}
	body, code := httpGet(t, "http://"+m2.ObsAddr()+"/debug/trace?span="+span)
	if code != 200 {
		t.Fatalf("/debug/trace status %d after promotion", code)
	}
	var served []obs.SpanEvent
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatalf("/debug/trace after promotion is not JSON: %v\n%s", err, body)
	}
	if len(served) == 0 {
		t.Errorf("/debug/trace serves no events for span %s after promotion", span)
	}

	// Fencing, direction 1: a frame stamped with the dead regime's epoch
	// is rejected by the promoted master and accepted nowhere.
	staleConn, w2 := rawPhone(t, tln.Addr().String())
	defer staleConn.Close()
	if w2.Epoch != 2 {
		t.Fatalf("promoted welcome epoch %d, want 2", w2.Epoch)
	}
	if err := staleConn.Send(&protocol.Message{
		Type: protocol.TypeResult, JobID: idPrimes, Partition: 0,
		Attempt: 999999, Epoch: 1, Result: []byte("forged"),
	}); err != nil {
		t.Fatal(err)
	}
	if got := waitCounter(t, sreg, 1, 5*time.Second, "cwc_frames_fenced_total", "type", "result"); got < 1 {
		t.Errorf("promoted master fenced %d stale-epoch results, want >= 1", got)
	}
	if got, _ := m2.Result(idPrimes); string(got) != string(wantPrimes) {
		t.Errorf("stale-epoch frame changed an accepted result: %s", got)
	}

	// Fencing, direction 2: the old primary rises from its own WAL. Its
	// epoch recovered from record type 11 is still 1, and frames from the
	// new regime are rejected with the "superseded" fence — split-brain
	// cannot double-accept.
	pwl2, err := wal.Open(primaryDir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer pwl2.Close()
	zreg := obs.NewRegistry()
	m3 := server.New(server.Config{
		Addr: "127.0.0.1:0", WAL: pwl2, Role: "resurrected-primary", Metrics: zreg,
	})
	if err := m3.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if got := m3.Epoch(); got != 1 {
		t.Fatalf("resurrected primary epoch %d, want 1 from its WAL", got)
	}
	if err := m3.Start(); err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	freshConn, w3 := rawPhone(t, m3.Addr())
	defer freshConn.Close()
	if w3.Epoch != 1 {
		t.Fatalf("resurrected welcome epoch %d, want 1", w3.Epoch)
	}
	if err := freshConn.Send(&protocol.Message{
		Type: protocol.TypeResult, JobID: idWords, Partition: 0,
		Attempt: 999998, Epoch: 2, Result: []byte("from-the-new-regime"),
	}); err != nil {
		t.Fatal(err)
	}
	if got := waitCounter(t, zreg, 1, 5*time.Second, "cwc_frames_fenced_total", "type", "result"); got < 1 {
		t.Errorf("resurrected primary fenced %d newer-epoch results, want >= 1", got)
	}
}

// The asymmetric-partition scenario: replication is severed while the
// primary is alive and still serving workers. The standby's lease runs
// out and it promotes — a genuine split brain, with two live masters —
// and epoch fencing is what keeps it safe: each side rejects the other
// regime's frames.
func TestFailoverSplitBrainPartitionFencing(t *testing.T) {
	if testing.Short() {
		t.Skip("failover e2e skipped in -short mode")
	}
	plan, err := faults.ParseScenario("partition: start=200ms target=replica")
	if err != nil {
		t.Fatal(err)
	}
	part := plan.Partitions[0]
	const lease = 400 * time.Millisecond

	pwl, err := wal.Open(filepath.Join(t.TempDir(), "primary-wal"), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer pwl.Close()
	ship := replica.NewShipper(replica.ShipperOptions{})
	preg := obs.NewRegistry()
	m1 := server.New(server.Config{
		Addr: "127.0.0.1:0", WAL: pwl, ReplicaSink: ship,
		Role: "primary", Metrics: preg,
	})
	ship.BindMaster(m1)
	if err := m1.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ship.Serve(rln)
	defer ship.Close()
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}
	defer m1.Close()

	// The partition: the standby's dialer works until the scripted start,
	// then every dial fails — replication severed, primary untouched.
	severed := make(chan struct{})
	primaryAddr := rln.Addr().String()
	dial := func(ctx context.Context) (net.Conn, error) {
		select {
		case <-severed:
			return nil, fmt.Errorf("partition: replication link severed (injected)")
		default:
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", primaryAddr)
	}

	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sreg := obs.NewRegistry()
	st := replica.New(replica.StandbyOptions{
		PrimaryAddr: primaryAddr,
		Dial:        dial,
		WALDir:      filepath.Join(t.TempDir(), "standby-wal"),
		WALOptions:  wal.Options{Sync: wal.SyncNone},
		Lease:       lease,
		MasterConfig: server.Config{
			Listener: tln, Addr: tln.Addr().String(), Metrics: sreg,
		},
		Metrics: sreg,
	})
	stCtx, stCancel := context.WithCancel(context.Background())
	defer stCancel()
	stDone := make(chan error, 1)
	go func() { stDone <- st.Run(stCtx) }()

	// Let replication sync, then cut it per the script. The standby must
	// kill its live stream connection too: sever by closing the shipper's
	// side via the faults-style trick of closing standby-side dials only
	// works for redials, so drop the live subscribers as a real
	// router-level cut would.
	time.Sleep(part.Start)
	close(severed)
	ship.DropAll()

	select {
	case <-st.Promoted():
	case err := <-stDone:
		t.Fatalf("standby exited instead of promoting: %v", err)
	case <-time.After(10 * lease):
		t.Fatal("standby did not promote after the partition")
	}
	m2 := st.Master()
	defer func() {
		m2.Close()
		st.Log().Close()
	}()
	if m1.Epoch() != 1 || m2.Epoch() != 2 {
		t.Fatalf("split-brain epochs: primary %d (want 1), promoted %d (want 2)", m1.Epoch(), m2.Epoch())
	}

	// Both masters are alive. Prove bidirectional fencing.
	c1, w1 := rawPhone(t, m1.Addr())
	defer c1.Close()
	if w1.Epoch != 1 {
		t.Fatalf("primary welcome epoch %d, want 1", w1.Epoch)
	}
	if err := c1.Send(&protocol.Message{
		Type: protocol.TypeResult, JobID: 1, Attempt: 999997, Epoch: 2, Result: []byte("x"),
	}); err != nil {
		t.Fatal(err)
	}
	if got := waitCounter(t, preg, 1, 5*time.Second, "cwc_frames_fenced_total", "type", "result"); got < 1 {
		t.Errorf("old primary fenced %d newer-epoch frames, want >= 1", got)
	}

	c2, w2 := rawPhone(t, tln.Addr().String())
	defer c2.Close()
	if w2.Epoch != 2 {
		t.Fatalf("promoted welcome epoch %d, want 2", w2.Epoch)
	}
	if err := c2.Send(&protocol.Message{
		Type: protocol.TypeFailure, JobID: 1, Attempt: 999996, Epoch: 1, Error: "stale",
	}); err != nil {
		t.Fatal(err)
	}
	if got := waitCounter(t, sreg, 1, 5*time.Second, "cwc_frames_fenced_total", "type", "failure"); got < 1 {
		t.Errorf("promoted master fenced %d stale-epoch frames, want >= 1", got)
	}
}
