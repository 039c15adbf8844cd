package server

import (
	"context"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"cwc/internal/protocol"
	"cwc/internal/tasks"
)

// The keepalive detector keeps the paper's 30 s / 3-miss defaults but
// spreads each wait over ±10% so a burst-registered fleet does not ping
// in lockstep forever.
func TestKeepaliveJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	period := 30 * time.Second
	lo := time.Duration(float64(period) * 0.9)
	hi := time.Duration(float64(period) * 1.1)
	distinct := map[time.Duration]bool{}
	for i := 0; i < 1000; i++ {
		d := keepaliveJitter(period, rng)
		if d < lo || d > hi {
			t.Fatalf("jitter draw %v outside [%v, %v]", d, lo, hi)
		}
		distinct[d] = true
	}
	if len(distinct) < 2 {
		t.Error("keepalive jitter never varies")
	}
}

// A phone that sends a structurally corrupt frame mid-round is declared
// an offline failure with its own structured reason, and its in-flight
// partition re-enters the pending pool for the next scheduling instant.
func TestCorruptFrameMidRoundRequeuesPartition(t *testing.T) {
	m := startMaster(t, Config{})
	f1 := dialFake(t, m, "HTC G2", 806)
	id, err := m.Submit(tasks.PrimeCount{}, []byte("2\n3\n5\n"), true)
	if err != nil {
		t.Fatal(err)
	}

	round1 := make(chan *RoundReport, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		r, err := m.RunRound(ctx)
		if err != nil {
			t.Error(err)
		}
		round1 <- r
	}()
	prof := f1.recv()
	if prof.Type != protocol.TypeAssign || prof.Partition != -1 {
		t.Fatalf("expected profiling assign, got %+v", prof)
	}
	f1.send(&protocol.Message{Type: protocol.TypeResult, JobID: 0, Partition: -1, Attempt: prof.Attempt,
		Result: []byte("x"), Digest: tasks.Digest([]byte("x")), ExecMs: 1, ProcessedKB: 0.01})
	asg := f1.recv()
	if asg.Type != protocol.TypeAssign || asg.JobID != id {
		t.Fatalf("expected real assign, got %+v", asg)
	}
	// A plausible length prefix followed by bytes that cannot decode: the
	// framing is lost on an otherwise-open connection.
	if _, err := f1.raw.Write([]byte{0, 0, 0, 5, 0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	report := <-round1
	if report == nil {
		t.Fatal("no round report")
	}
	if got := m.PendingItems(); got != 1 {
		t.Fatalf("pending after corrupt frame = %d, want the partition back", got)
	}
	found := false
	for _, of := range m.OfflineFailures() {
		if of.PhoneID == 0 && of.Reason == "corrupt-frame" {
			found = true
		}
	}
	if !found {
		t.Errorf("no structured corrupt-frame event; got %+v", m.OfflineFailures())
	}

	// The survivor fleet finishes the job next round.
	f2 := dialFake(t, m, "Nexus S", 1000)
	go func() {
		asg2 := f2.recv()
		f2.send(&protocol.Message{Type: protocol.TypeResult, JobID: asg2.JobID,
			Partition: asg2.Partition, Attempt: asg2.Attempt,
			Result: []byte("3"), Digest: tasks.Digest([]byte("3")), ExecMs: 1, ProcessedKB: 0.01})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Result(id); !ok || string(got) != "3" {
		t.Fatalf("result after corrupt-frame recovery = %q %v", got, ok)
	}
}

// A phone that blows its assignment deadline is marked a straggler and
// its partition speculatively re-dispatched; the first result to arrive
// for the byte range wins and the duplicate is dropped.
func TestStragglerSpeculationFirstResultWins(t *testing.T) {
	m := startMaster(t, Config{DeadlineFloor: 200 * time.Millisecond})
	var realAssigns int32
	respond := func(f *fakePhone) {
		go func() {
			for {
				if err := f.conn.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
					return
				}
				msg, err := f.conn.Recv()
				if err != nil {
					return
				}
				switch msg.Type {
				case protocol.TypePing:
					_ = f.conn.Send(&protocol.Message{Type: protocol.TypePong, Seq: msg.Seq})
				case protocol.TypeAssign:
					if msg.Partition == -1 {
						_ = f.conn.Send(&protocol.Message{Type: protocol.TypeResult,
							JobID: 0, Partition: -1, Attempt: msg.Attempt, Result: []byte("x"), Digest: tasks.Digest([]byte("x")),
							ExecMs: 1, ProcessedKB: 0.01})
						continue
					}
					if atomic.AddInt32(&realAssigns, 1) == 1 {
						continue // straggle: never answer the first dispatch
					}
					_ = f.conn.Send(&protocol.Message{Type: protocol.TypeResult,
						JobID: msg.JobID, Partition: msg.Partition, Attempt: msg.Attempt,
						Result: []byte("2"), Digest: tasks.Digest([]byte("2")), ExecMs: 1, ProcessedKB: 0.01})
				}
			}
		}()
	}
	respond(dialFake(t, m, "HTC G2", 806))
	respond(dialFake(t, m, "Nexus S", 1000))

	id, err := m.Submit(tasks.PrimeCount{}, []byte("2\n3\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	report1, err := m.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(report1.Stragglers) == 0 {
		t.Fatalf("no stragglers reported: %+v", report1)
	}
	if m.PendingItems() != 1 {
		t.Fatalf("pending = %d, want the speculative copy", m.PendingItems())
	}
	if _, ok := m.Result(id); ok {
		t.Fatal("job completed without any result")
	}

	report2, err := m.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Result(id); !ok || string(got) != "2" {
		t.Fatalf("result after speculation = %q %v (round 2: %+v)", got, ok, report2)
	}
	// First-result-wins: exactly one partial credited for the byte range,
	// so the accumulator holds its count once.
	var acc string
	var covered, total int64
	m.do(func() {
		acc = string(m.jobs[id].Result.Bytes)
		covered, total = m.jobs[id].Covered, m.jobs[id].TotalBytes
	})
	if acc != "2" {
		t.Errorf("accumulator = %q for one byte range counting 2 primes (a double credit doubles it)", acc)
	}
	if covered != total {
		t.Errorf("covered %d bytes of %d (duplicate or lost coverage)", covered, total)
	}
}

// A work item whose every dispatch fails is re-queued only until its
// retry budget runs out, then surfaced as a dead letter instead of
// poisoning every future round.
func TestDeadLetterAfterRetryBudget(t *testing.T) {
	lowRetryBudget(t)
	m := startMaster(t, Config{})
	failEverything := func(f *fakePhone) {
		go func() {
			for {
				if err := f.conn.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
					return
				}
				msg, err := f.conn.Recv()
				if err != nil {
					return
				}
				if msg.Type != protocol.TypeAssign {
					continue
				}
				if msg.Partition == -1 {
					_ = f.conn.Send(&protocol.Message{Type: protocol.TypeResult,
						JobID: 0, Partition: -1, Attempt: msg.Attempt, Result: []byte("x"), Digest: tasks.Digest([]byte("x")),
						ExecMs: 1, ProcessedKB: 0.01})
					continue
				}
				_ = f.conn.Send(&protocol.Message{Type: protocol.TypeFailure,
					JobID: msg.JobID, Partition: msg.Partition, Attempt: msg.Attempt,
					Error: "persistent crash"})
			}
		}()
	}
	failEverything(dialFake(t, m, "HTC G2", 806))
	id, err := m.Submit(tasks.PrimeCount{}, []byte("2\n3\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	kinds := func(rep *RoundReport) map[string]int {
		n := map[string]int{}
		for _, e := range rep.Events {
			n[e.Kind]++
		}
		return n
	}
	rep, err := m.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The requeue happened on the failure-report path, not in the
	// dispatcher's hand-back; the round's timeline has it all the same.
	if k := kinds(rep); k["failure"] != 1 || k["requeue"] != 1 || rep.DeadLettered != 0 {
		t.Errorf("first round: kinds %v, DeadLettered %d; want one failure, one requeue, no dead letter", k, rep.DeadLettered)
	}
	if got := len(m.DeadLetters()); got != 0 {
		t.Fatalf("dead-lettered after first failure (budget 1): %+v", m.DeadLetters())
	}
	if m.PendingItems() != 1 {
		t.Fatalf("pending = %d, want 1 re-queued item", m.PendingItems())
	}

	// The failure report killed the first phone; a fresh one fails again
	// and the item's budget is spent.
	failEverything(dialFake(t, m, "Nexus S", 1000))
	if rep, err = m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	if k := kinds(rep); rep.DeadLettered != 1 || k["deadletter"] != 1 || k["requeue"] != 0 {
		t.Errorf("second round: kinds %v, DeadLettered %d; want one dead letter counted once", k, rep.DeadLettered)
	}
	dls := m.DeadLetters()
	if len(dls) != 1 {
		t.Fatalf("dead letters = %+v, want exactly one", dls)
	}
	if dls[0].JobID != id || dls[0].Task != "primecount" || dls[0].Retries != 1 {
		t.Errorf("dead letter = %+v", dls[0])
	}
	if m.PendingItems() != 0 {
		t.Errorf("pending = %d after dead-lettering", m.PendingItems())
	}
	if _, ok := m.Result(id); ok {
		t.Error("dead-lettered job should not have completed")
	}
}

// A reconnecting phone presenting its prior identity takes it over: same
// ID, old connection retired, no ghost entry left behind. An unknown
// prior identity falls back to a fresh registration.
func TestRejoinTakeoverReusesIdentity(t *testing.T) {
	m := startMaster(t, Config{})
	f1 := dialFake(t, m, "HTC G2", 806)

	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := protocol.NewConn(raw)
	defer c.Close()
	if err := c.Send(&protocol.Message{Type: protocol.TypeHello, Model: "HTC G2",
		CPUMHz: 806, RAMMB: 512, Rejoin: true, PhoneID: 0}); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	w, err := c.Recv()
	if err != nil || w.Type != protocol.TypeWelcome {
		t.Fatalf("rejoin welcome = %+v, %v", w, err)
	}
	if w.PhoneID != 0 {
		t.Fatalf("rejoin assigned ID %d, want the prior identity 0", w.PhoneID)
	}
	phones := m.Phones()
	if len(phones) != 1 || phones[0].ID != 0 || !phones[0].Alive {
		t.Fatalf("fleet after rejoin = %+v", phones)
	}
	found := false
	for _, of := range m.OfflineFailures() {
		if of.PhoneID == 0 && of.Reason == "rejoined" {
			found = true
		}
	}
	if !found {
		t.Errorf("no rejoined event; got %+v", m.OfflineFailures())
	}
	// The superseded connection was closed by the server.
	_ = f1.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := f1.conn.Recv(); err == nil {
		t.Error("old connection still open after takeover")
	}

	// Unknown prior identity: fresh registration.
	raw2, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c2 := protocol.NewConn(raw2)
	defer c2.Close()
	if err := c2.Send(&protocol.Message{Type: protocol.TypeHello, Model: "Nexus S",
		CPUMHz: 1000, RAMMB: 512, Rejoin: true, PhoneID: 99}); err != nil {
		t.Fatal(err)
	}
	_ = c2.SetReadDeadline(time.Now().Add(10 * time.Second))
	w2, err := c2.Recv()
	if err != nil || w2.Type != protocol.TypeWelcome {
		t.Fatalf("fallback welcome = %+v, %v", w2, err)
	}
	if w2.PhoneID == 99 {
		t.Error("unknown prior identity should not be honoured")
	}
}
