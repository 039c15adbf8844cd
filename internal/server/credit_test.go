package server

import (
	"bytes"
	"context"
	"testing"
	"time"

	"cwc/internal/obs"
	"cwc/internal/predict"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
)

// neighbours are the attempt numbers a phone can guess from its own:
// attempts are issued sequentially, so the attempt another phone holds in
// the same round is one of them.
func neighbours(own int64) []int64 { return []int64{own - 2, own - 1, own + 1, own + 2} }

// forgedResult is a well-formed result frame (its digest matches its
// bytes) for an attempt of the sender's choosing.
func forgedResult(attempt int64) *protocol.Message {
	lie := []byte("999")
	return &protocol.Message{Type: protocol.TypeResult, Attempt: attempt,
		Result: lie, Digest: tasks.Digest(lie), ExecMs: 1, ProcessedKB: 1}
}

// twoPhonesOneSilent registers two equal phones. The victim serves
// profiling and then sits on its real assignment; attack runs on the other
// phone's connection once the victim's attempt is live, with that phone's
// own assignment.
func twoPhonesOneSilent(t *testing.T, m *Master, attack func(f *fakePhone, own *protocol.Message)) {
	t.Helper()
	victim := dialFake(t, m, "Nexus S", 1000)
	attacker := dialFake(t, m, "Nexus S", 1000)
	held := make(chan struct{}, 1)
	go scriptedPhone(victim, func(*fakePhone, *protocol.Message) { held <- struct{}{} })
	go scriptedPhone(attacker, func(f *fakePhone, own *protocol.Message) {
		select {
		case <-held:
			attack(f, own)
		case <-time.After(10 * time.Second):
			t.Error("the victim never held an assignment; the scenario no longer covers a forged report")
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 2); err != nil {
		t.Fatal(err)
	}
}

// A report is credited only to an attempt issued to the phone that sent
// it: a phone that names its neighbour's attempt number must not finish
// the neighbour's job with bytes of its choosing.
func TestReportNamingAnotherPhonesAttemptIsRefused(t *testing.T) {
	reg := obs.NewRegistry()
	m := startMaster(t, Config{Metrics: reg, DeadlineFloor: 100 * time.Millisecond, DeadlineFactor: 0.001})
	attackerJob := make(chan int, 1)
	twoPhonesOneSilent(t, m, func(f *fakePhone, own *protocol.Message) {
		for _, n := range neighbours(own.Attempt) {
			_ = f.conn.Send(forgedResult(n))
		}
		replyResult(f, own)
		attackerJob <- own.JobID
	})
	inputs := [][]byte{numberLines(1001, 1300), numberLines(2001, 2300)}
	var ids []int
	for _, in := range inputs {
		id, err := m.Submit(tasks.PrimeCount{}, in, true)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	mine := <-attackerJob
	for i, id := range ids {
		got, ok := m.Result(id)
		if id != mine {
			if ok {
				t.Errorf("the victim's job %d finished though its phone never answered: Result = %q", id, got)
			}
			continue
		}
		if want := groundTruth(t, tasks.PrimeCount{}, inputs[i]); !ok || !bytes.Equal(got, want) {
			t.Errorf("the attacker's own honest result: job %d = %q (%v), want %q", id, got, ok, want)
		}
	}
	if v := reg.Counter("cwc_frames_unexpected_total", "type", "result").Value(); v != 4 {
		t.Errorf("cwc_frames_unexpected_total{type=result} = %d, want the 4 forgeries", v)
	}
}

// Under replicated voting a phone casts its own ballot and nobody else's:
// naming the other replica's attempt must not bring its lie to quorum.
func TestVotingRefusesABallotCastForAnotherPhone(t *testing.T) {
	reg := obs.NewRegistry()
	m := startMaster(t, Config{Metrics: reg, VerifyReplicas: 2, DeadlineFloor: 100 * time.Millisecond, DeadlineFactor: 0.001})
	twoPhonesOneSilent(t, m, func(f *fakePhone, own *protocol.Message) {
		for _, n := range neighbours(own.Attempt) {
			_ = f.conn.Send(forgedResult(n))
		}
		_ = f.conn.Send(forgedResult(own.Attempt))
	})
	id, err := m.Submit(tasks.PrimeCount{}, numberLines(1001, 1300), true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Result(id); ok {
		t.Errorf("job %d finalized on one phone's digest: Result = %q", id, got)
	}
	if v := reg.Counter("cwc_verify_votes_total").Value(); v != 1 {
		t.Errorf("cwc_verify_votes_total = %d, want 1: the liar's own ballot", v)
	}
	for _, p := range m.Phones() {
		if m.Quarantined(p.ID) {
			t.Errorf("phone %d quarantined by a vote that never resolved", p.ID)
		}
	}
}

// A streamed checkpoint naming another phone's attempt is acknowledged
// (the ack is flow control) and never becomes that phone's resume state.
func TestForgedCheckpointIsAckedNotFolded(t *testing.T) {
	m := startMaster(t, Config{DeadlineFloor: 100 * time.Millisecond, DeadlineFactor: 0.001})
	twoPhonesOneSilent(t, m, func(f *fakePhone, own *protocol.Message) {
		ck := checkpointAt(own)
		for i, n := range neighbours(own.Attempt) {
			seq := uint64(i + 1)
			_ = f.conn.Send(&protocol.Message{Type: protocol.TypeCheckpoint, Attempt: n, Seq: seq,
				Checkpoint: ck, Digest: ck.Digest()})
			for {
				ack, err := f.conn.Recv()
				if err != nil {
					t.Errorf("forged checkpoint %d was never acknowledged: %v", seq, err)
					return
				}
				if ack.Type == protocol.TypeCheckpointAck && ack.Seq == seq {
					break
				}
			}
		}
		if n := m.StreamedCheckpoints(); n != 0 {
			t.Errorf("StreamedCheckpoints() = %d after four forged frames, want 0", n)
		}
		replyResult(f, own)
	})
	// Equal-length inputs: the checkpoint cut from one fits the other.
	for _, in := range [][]byte{numberLines(1001, 1300), numberLines(2001, 2300)} {
		if _, err := m.Submit(tasks.PrimeCount{}, in, true); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
}

// Liveness: refused reports must not back up behind a channel nobody
// drains. A phone with no work of its own that sends five result frames
// naming another phone's live attempt still has its pongs read and, next
// round, its own honest result credited.
func TestForgedReportsDoNotParkTheSendersReadLoop(t *testing.T) {
	reg := obs.NewRegistry()
	m := startMaster(t, Config{Metrics: reg, KeepalivePeriod: 50 * time.Millisecond})
	type phone struct {
		f       *fakePhone
		assigns chan *protocol.Message // real assignments, for the test to answer
		pongs   chan struct{}          // one per ping answered
		gone    chan struct{}          // closed when the master drops the connection
	}
	serve := func(f *fakePhone) *phone {
		p := &phone{f: f, assigns: make(chan *protocol.Message, 8),
			pongs: make(chan struct{}, 1024), gone: make(chan struct{})}
		go func() {
			defer close(p.gone)
			for {
				msg, err := f.conn.Recv()
				if err != nil {
					return
				}
				switch {
				case msg.Type == protocol.TypePing:
					_ = f.conn.Send(&protocol.Message{Type: protocol.TypePong, Seq: msg.Seq})
					select {
					case p.pongs <- struct{}{}:
					default:
					}
				case msg.Type == protocol.TypeAssign && msg.JobID == 0:
					_ = f.conn.Send(&protocol.Message{Type: protocol.TypeResult, Attempt: msg.Attempt,
						Result: []byte("0"), Digest: tasks.Digest([]byte("0")), ExecMs: 1, ProcessedKB: 1})
				case msg.Type == protocol.TypeAssign:
					p.assigns <- msg
				}
			}
		}()
		return p
	}
	a := serve(dialFake(t, m, "Nexus S", 1000))
	b := serve(dialFake(t, m, "Nexus S", 1000))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 2); err != nil {
		t.Fatal(err)
	}
	round := make(chan error, 1)
	runRound := func() {
		_, err := m.RunRound(ctx)
		round <- err
	}

	// Round one: one job, so one phone works and the other has nothing.
	input := numberLines(1001, 1300)
	id, err := m.Submit(tasks.PrimeCount{}, input, true)
	if err != nil {
		t.Fatal(err)
	}
	go runRound()
	var worker, chatter *phone
	var held *protocol.Message
	select {
	case held = <-a.assigns:
		worker, chatter = a, b
	case held = <-b.assigns:
		worker, chatter = b, a
	case <-ctx.Done():
		t.Fatal("no phone was assigned the job")
	}
	for i := 0; i < 5; i++ {
		chatter.f.send(forgedResult(held.Attempt))
	}
	// Twice the keepalive tolerance and then some: a read loop parked on
	// the fifth frame stops reading pongs and the phone is declared dead.
	for len(chatter.pongs) > 0 {
		<-chatter.pongs
	}
	for i := 0; i < 8; i++ {
		select {
		case <-chatter.pongs:
		case <-chatter.gone:
			t.Fatalf("the master dropped phone %d after %d pongs though it answered every ping: %+v",
				chatter.f.id, i, m.OfflineFailures())
		case <-ctx.Done():
			t.Fatal("the master stopped pinging")
		}
	}
	replyResult(worker.f, held)
	if err := <-round; err != nil {
		t.Fatal(err)
	}
	if got, want := waitResult(t, m, id, time.Second), groundTruth(t, tasks.PrimeCount{}, input); !bytes.Equal(got, want) {
		t.Errorf("job %d = %q, want %q", id, got, want)
	}
	if v := reg.Counter("cwc_frames_unexpected_total", "type", "result").Value(); v != 5 {
		t.Errorf("cwc_frames_unexpected_total{type=result} = %d, want the 5 forgeries", v)
	}

	// Round two: enough jobs that both phones work; the chatterer is honest.
	inputs := map[int][]byte{}
	for j := 2; j < 6; j++ {
		in := numberLines(1000*j+1, 1000*j+300)
		id, err := m.Submit(tasks.PrimeCount{}, in, true)
		if err != nil {
			t.Fatal(err)
		}
		inputs[id] = in
	}
	go runRound()
	served := map[*phone]int{}
	for done := false; !done; {
		select {
		case msg := <-a.assigns:
			replyResult(a.f, msg)
			served[a]++
		case msg := <-b.assigns:
			replyResult(b.f, msg)
			served[b]++
		case err := <-round:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		}
	}
	if served[chatter] == 0 {
		t.Fatalf("phone %d was given no work in round two (served: %d by the other); the scenario no longer covers it",
			chatter.f.id, served[worker])
	}
	for id, in := range inputs {
		got, ok := m.Result(id)
		if want := groundTruth(t, tasks.PrimeCount{}, in); !ok || !bytes.Equal(got, want) {
			t.Errorf("job %d = %q (%v), want %q", id, got, ok, want)
		}
	}
}

// A range a failure report has already queued gets no speculative copy
// on top: no second copy.
func TestSpeculateSkipsARangeAlreadyQueued(t *testing.T) {
	m := startMaster(t, Config{})
	a := openTestRange(t, m, tasks.PrimeCount{}, numberLines(1, 50), true, 0)
	var speculated bool
	m.do(func() {
		m.recordFailureLocked(a, &protocol.Message{Type: protocol.TypeFailure, Error: "unplugged"})
		speculated = m.speculateLocked(a)
	})
	if speculated {
		t.Error("speculated on a range a failure report had already queued")
	}
	if n := m.PendingItems(); n != 1 {
		t.Errorf("%d items pending, want the one queued copy", n)
	}
}

// A profile comes from its own attempt's report: a result the same phone
// sends meanwhile for an attempt it holds detached (a straggler abandoned
// in an earlier round) is credited as the late result it is and must never
// become the task's base profile.
func TestProfilingIgnoresAStaleNotice(t *testing.T) {
	m := startMaster(t, Config{DeadlineFloor: 100 * time.Millisecond, DeadlineFactor: 0.001})
	f := dialFake(t, m, "HTC G2", 806)
	held := make(chan *protocol.Message, 8) // real assignments, never answered
	go func() {
		for {
			msg, err := f.conn.Recv()
			if err != nil {
				return
			}
			switch {
			case msg.Type != protocol.TypeAssign:
			case msg.JobID != 0:
				held <- msg
			default:
				if msg.Task == "wordcount" {
					// While this profile is outstanding, the abandoned
					// straggler delivers — slowly.
					old := <-held
					res := groundTruth(t, tasks.PrimeCount{}, old.Input)
					_ = f.conn.Send(&protocol.Message{Type: protocol.TypeResult, Attempt: old.Attempt,
						Result: res, Digest: tasks.Digest(res), ExecMs: 5000, ProcessedKB: 1})
				}
				_ = f.conn.Send(&protocol.Message{Type: protocol.TypeResult, Attempt: msg.Attempt,
					Result: []byte("0"), Digest: tasks.Digest([]byte("0")), ExecMs: 1, ProcessedKB: 1})
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	straggler, err := m.Submit(tasks.PrimeCount{}, numberLines(1, 2000), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := m.RunRound(ctx); err != nil || len(rep.Stragglers) != 1 {
		t.Fatalf("first round: %v, %+v; want the phone abandoned as a straggler", err, rep)
	}
	if _, err := m.Submit(tasks.WordCount{}, bytes.Repeat([]byte("lorem ipsum dolor\n"), 400), false); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Result(straggler); !ok {
		t.Error("the abandoned straggler's late result was not credited; the scenario no longer covers it")
	}
	var est *predict.Estimator
	m.do(func() { est = m.est })
	if ms, ok := est.Profile("wordcount"); !ok || ms >= 10 {
		t.Errorf("wordcount profile = %.2f ms/KB (ok %v); the phone answered the profiling run in 1 ms", ms, ok)
	}
}
