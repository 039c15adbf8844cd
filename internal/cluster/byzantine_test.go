package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cwc/internal/faults"
	"cwc/internal/obs"
	"cwc/internal/protocol"
	"cwc/internal/server"
	"cwc/internal/tasks"
	"cwc/internal/wal"
	"cwc/internal/wire"
	"cwc/internal/worker"
)

// The result-integrity acceptance scenario: a fleet seeded with liars
// (20% via the faults DSL) runs a workload under replicated voting
// (k=2). Every liar must end up reputation-quarantined, no honest phone
// may be harmed, and the aggregates must be byte-identical to a local
// fault-free computation — the lies never reach a job result. Midway the
// master is killed abruptly; the recovered master must show the liars
// still quarantined *before* it serves a single frame (record 13
// replayed from the WAL), the rejoining liars must keep their identity
// (and quarantine) rather than being reissued fresh IDs, and the
// workload must still finish correctly.
func TestByzantineLiarFleetQuarantinedAcrossRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("byzantine e2e skipped in -short mode")
	}
	plan, err := faults.ParseScenario("seed: 42\nliar: frac=0.2")
	if err != nil {
		t.Fatal(err)
	}
	const fleet = 10
	byz := plan.ByzantineFor(fleet)
	liarIdx := plan.ByzantinePhones(fleet)
	if len(liarIdx) != 2 {
		t.Fatalf("liar cast = %v, want 2 of %d phones", liarIdx, fleet)
	}

	walDir := filepath.Join(t.TempDir(), "wal")
	wl, err := wal.Open(walDir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m1 := server.New(server.Config{
		Addr: "127.0.0.1:0", WAL: wl, Role: "primary", Metrics: reg,
		VerifyReplicas: 2,
	})
	if err := m1.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}

	// The takeover listener is bound now so the workers' failover list
	// is complete before any of them dials.
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	failoverAddrs := m1.Addr() + "," + tln.Addr().String()

	runCtx, runCancel := context.WithCancel(context.Background())
	defer runCancel()
	for i := 0; i < fleet; i++ {
		model := fmt.Sprintf("honest-%d", i)
		var dial faults.DialFunc
		if s, ok := byz[i]; ok {
			// A dialer of its own turns the worker's failover rotation
			// off, so this one walks the list as the worker would, from
			// where the worker's seeded rotation would start.
			model = fmt.Sprintf("liar-%d", i)
			addrs := strings.Split(failoverAddrs, ",")
			next := rand.New(rand.NewSource(int64(61 + i))).Intn(len(addrs))
			dial = byzantineDial(s, func(ctx context.Context) (net.Conn, error) {
				addr := addrs[next%len(addrs)]
				next++
				var d net.Dialer
				return d.DialContext(ctx, "tcp", addr)
			})
		}
		w, err := worker.New(worker.Config{
			ServerAddr: failoverAddrs,
			Model:      model,
			CPUMHz:     800 + 100*float64(i),
			RAMMB:      512,
			DelayPerKB: 2 * time.Millisecond,
			Dial:       dial,
			Reconnect: worker.ReconnectPolicy{
				BaseDelay:   20 * time.Millisecond,
				MaxDelay:    150 * time.Millisecond,
				MaxAttempts: -1,
				// Short handshake budget: workers whose rotation starts
				// at the (not yet serving) takeover listener must fail
				// fast and move on to the live primary.
				HandshakeTimeout: 500 * time.Millisecond,
				Seed:             int64(61 + i),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = w.Run(runCtx) }()
	}
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if err := m1.WaitForPhones(waitCtx, fleet); err != nil {
		t.Fatal(err)
	}

	// Master-side IDs of the liars, identified by model name.
	var liarIDs []int
	for _, ph := range m1.Phones() {
		if strings.HasPrefix(ph.Model, "liar-") {
			liarIDs = append(liarIDs, ph.ID)
		}
	}
	if len(liarIDs) != len(liarIdx) {
		t.Fatalf("master registered %d liars, want %d", len(liarIDs), len(liarIdx))
	}

	// The workload, with locally computed fault-free ground truth.
	rng := rand.New(rand.NewSource(23))
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
	wants := map[int][]byte{idPrimes: wantPrimes, idWords: wantWords}

	// Drive rounds until the voting has quarantined every liar — a liar
	// loses one vote per tie-broken partition, and the EWMA needs three
	// losses to cross the threshold, so keep feeding small jobs as the
	// earlier ones finish. Then kill the master abruptly mid-workload:
	// no bye frames, no WAL shutdown record.
	driveCtx, driveCancel := context.WithTimeout(context.Background(), 90*time.Second)
	deadline := time.Now().Add(90 * time.Second)
	for reg.Counter("cwc_verify_quarantines_total").Value() < int64(len(liarIDs)) &&
		time.Now().Before(deadline) {
		if _, err := m1.RunRound(driveCtx); err != nil {
			if m1.PendingItems() == 0 {
				in := tasks.GenIntegers(16, 100000, rng)
				var ck tasks.Checkpoint
				want, perr := (tasks.PrimeCount{}).Process(context.Background(), in, &ck)
				if perr != nil {
					t.Fatal(perr)
				}
				id, serr := m1.Submit(tasks.PrimeCount{}, in, false)
				if serr != nil {
					t.Fatal(serr)
				}
				ids = append(ids, id)
				wants[id] = want
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	driveCancel()
	if got := reg.Counter("cwc_verify_quarantines_total").Value(); got < int64(len(liarIDs)) {
		t.Fatalf("quarantined %d phones before the kill, want %d", got, len(liarIDs))
	}
	if got := m1.QuarantinedPhones(); !reflect.DeepEqual(got, liarIDs) {
		t.Fatalf("quarantined set = %v, want exactly the liars %v", got, liarIDs)
	}
	if got := reg.Counter("cwc_verify_votes_total").Value(); got == 0 {
		t.Error("no votes were cast under VerifyReplicas=2")
	}
	m1.Kill()
	if err := wl.Close(); err != nil {
		t.Fatal(err)
	}

	// The recovered master replays the WAL. The liars must be
	// quarantined (and their reputation below threshold) before Start —
	// record 13 is the only possible source.
	wl2, err := wal.Open(walDir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer wl2.Close()
	reg2 := obs.NewRegistry()
	m2 := server.New(server.Config{
		Listener: tln, Addr: tln.Addr().String(), WAL: wl2,
		Role: "recovered-primary", Metrics: reg2,
		VerifyReplicas: 2,
	})
	if err := m2.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	for _, id := range liarIDs {
		if !m2.Quarantined(id) {
			t.Errorf("liar %d not quarantined after WAL recovery, before Start", id)
		}
		if rep := m2.Reputation(id); rep >= 0.3 {
			t.Errorf("liar %d reputation %.3f after recovery, want < 0.3", id, rep)
		}
	}
	if err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	waitCtx2, waitCancel2 := context.WithTimeout(context.Background(), 20*time.Second)
	defer waitCancel2()
	if err := m2.WaitForPhones(waitCtx2, fleet); err != nil {
		t.Fatal(err)
	}
	// The rejoined liars kept their WAL-vouched identity, so the
	// quarantine still binds to them — it did not evaporate with a
	// freshly issued phone ID.
	for _, id := range liarIDs {
		if !m2.Quarantined(id) {
			t.Errorf("liar %d lost its quarantine across the rejoin", id)
		}
	}

	// A job submitted after recovery proves the revived master keeps
	// verifying with the persisted reputation state.
	extraIn := tasks.GenIntegers(32, 100000, rng)
	var ck3 tasks.Checkpoint
	wantExtra, err := (tasks.PrimeCount{}).Process(context.Background(), extraIn, &ck3)
	if err != nil {
		t.Fatal(err)
	}
	idExtra, err := m2.Submit(tasks.PrimeCount{}, extraIn, false)
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, idExtra)
	wants[idExtra] = wantExtra

	// Every job — finished before the kill, in flight across it, or
	// submitted after recovery — must aggregate byte-identically to the
	// fault-free local computation: the lies never reached a result.
	results := driveToCompletion(t, m2, ids, 90*time.Second)
	for _, id := range ids {
		if string(results[id]) != string(wants[id]) {
			t.Errorf("job %d = %s, want %s", id, results[id], wants[id])
		}
	}

	// No honest phone was ever quarantined, on either master regime.
	if got := m2.QuarantinedPhones(); !reflect.DeepEqual(got, liarIDs) {
		t.Errorf("final quarantined set = %v, want exactly the liars %v", got, liarIDs)
	}
}

// The byzantine directives flow end-to-end through the cluster harness:
// a corrupt-result worker (claimed digest no longer matches the payload)
// is caught by the master's digest check alone — no voting configured —
// the damaged results are requeued, and the aggregate stays correct.
func TestClusterCorruptResultCaughtByDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("byzantine e2e skipped in -short mode")
	}
	plan, err := faults.ParseScenario("seed: 5\ncorrupt-result: frac=0.3 prob=0.4")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := Start(ctx, Options{
		Faults: plan,
		Reconnect: worker.ReconnectPolicy{
			BaseDelay: 20 * time.Millisecond, MaxDelay: 150 * time.Millisecond,
			MaxAttempts: -1, Seed: 7,
		},
		Server: server.Config{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Per-result corruption is probabilistic (prob=0.4), so run jobs
	// until at least one corrupted frame has been caught — every job
	// must still aggregate byte-identically to the local ground truth.
	rng := rand.New(rand.NewSource(29))
	deadline := time.Now().Add(60 * time.Second)
	for {
		input := tasks.GenIntegers(48, 100000, rng)
		var ck tasks.Checkpoint
		want, err := (tasks.PrimeCount{}).Process(context.Background(), input, &ck)
		if err != nil {
			t.Fatal(err)
		}
		id, err := c.Master.Submit(tasks.PrimeCount{}, input, false)
		if err != nil {
			t.Fatal(err)
		}
		results := driveToCompletion(t, c.Master, []int{id}, 60*time.Second)
		if string(results[id]) != string(want) {
			t.Fatalf("primes = %s, want %s", results[id], want)
		}
		if reg.Counter("cwc_verify_mismatches_total", "kind", "digest").Value() > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no claimed-digest mismatches recorded despite corrupt-result workers")
		}
	}
}

// frameRecorder is a connection that keeps a copy of every write.
type frameRecorder struct {
	net.Conn
	frames [][]byte
}

func (r *frameRecorder) Write(b []byte) (int, error) {
	r.frames = append(r.frames, append([]byte(nil), b...))
	return len(b), nil
}

// sendThrough writes m on a connection byzantineDial made over a
// recorder and returns the frame the recorder got, decoded, and its bytes.
func sendThrough(t *testing.T, spec faults.ByzantineSpec, m *protocol.Message) (*protocol.Message, []byte) {
	t.Helper()
	rec := &frameRecorder{}
	c, err := byzantineDial(spec, func(context.Context) (net.Conn, error) { return rec, nil })(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.NewConn(c).Send(m); err != nil {
		t.Fatal(err)
	}
	if len(rec.frames) != 1 {
		t.Fatalf("%d writes for one frame, want 1", len(rec.frames))
	}
	var got protocol.Message
	if err := wire.Decode(rec.frames[0][4:], &got); err != nil {
		t.Fatal(err)
	}
	return &got, rec.frames[0]
}

// The harness's byzantine connection rewrites result frames only, each as
// its spec says: a liar's digest matches its wrong payload, a corrupt
// payload's does not, a lazy phone reports "0" in no time, and every
// other frame reaches the wire byte for byte as the phone wrote it.
func TestByzantineDialRewritesResultsOnly(t *testing.T) {
	always := faults.ByzantineSpec{LiarProb: 1, LazyProb: 1, CorruptProb: 1, Seed: 3}
	honest := []byte("367 primes\n")
	result := func() *protocol.Message {
		return &protocol.Message{Type: protocol.TypeResult, JobID: 4, Partition: 1, Attempt: 7,
			Result: honest, Digest: tasks.Digest(honest), ExecMs: 12.5, ProcessedKB: 3}
	}

	for _, m := range []*protocol.Message{
		{Type: protocol.TypeHello, Model: "Nexus S", CPUMHz: 1000, RAMMB: 512},
		{Type: protocol.TypeFailure, JobID: 4, Partition: 1, Attempt: 7, Error: "unplugged",
			Checkpoint: &tasks.Checkpoint{Offset: 64, State: []byte(`{"count":3}`)}},
		{Type: protocol.TypeCheckpoint, JobID: 4, Partition: 1, Seq: 2,
			Checkpoint: &tasks.Checkpoint{Offset: 128, State: []byte(`{"count":5}`)}},
		{Type: protocol.TypePong, Seq: 9},
	} {
		rec := &frameRecorder{}
		if err := protocol.NewConn(rec).Send(m); err != nil {
			t.Fatal(err)
		}
		if _, got := sendThrough(t, always, m); !bytes.Equal(got, rec.frames[0]) {
			t.Errorf("%s frame rewritten: % x, want % x", m.Type, got, rec.frames[0])
		}
	}

	if got, _ := sendThrough(t, faults.ByzantineSpec{Seed: 3}, result()); !bytes.Equal(got.Result, honest) || got.Digest != tasks.Digest(honest) {
		t.Errorf("honest spec changed the result: %q", got.Result)
	}
	got, _ := sendThrough(t, faults.ByzantineSpec{LiarProb: 1, Seed: 3}, result())
	if bytes.Equal(got.Result, honest) || got.Digest != tasks.Digest(got.Result) {
		t.Errorf("liar sent %q, want a wrong result that its digest matches", got.Result)
	}
	got, _ = sendThrough(t, faults.ByzantineSpec{CorruptProb: 1, Seed: 3}, result())
	if bytes.Equal(got.Result, honest) || got.Digest == tasks.Digest(got.Result) || got.Digest != tasks.Digest(honest) {
		t.Errorf("corrupt sent %q, want the honest result's digest over a changed payload", got.Result)
	}
	got, _ = sendThrough(t, faults.ByzantineSpec{LazyProb: 1, Seed: 3}, result())
	if string(got.Result) != "0" || got.ExecMs != 0 || got.Digest != tasks.Digest([]byte("0")) {
		t.Errorf("lazy sent %q in %v ms, want \"0\" in 0 ms with its digest", got.Result, got.ExecMs)
	}
	if got.JobID != 4 || got.Partition != 1 || got.Attempt != 7 || got.ProcessedKB != 3 {
		t.Errorf("lazy result lost its identity: %+v", got)
	}
}
