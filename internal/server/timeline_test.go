package server

import (
	"context"
	"sort"
	"testing"
	"time"

	"cwc/internal/obs"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
)

// The round timeline is a view, not a second record: RoundReport.Events
// must be exactly the projection of the master-side span events the
// tracer holds for the round — same multiset of (kind, phone, job,
// partition) — for a round that has a bit of everything: two phones, a
// straggler that is speculated on and abandoned, hand-backs, and a late
// result.
func TestRoundEventsAreAViewOfTheTraceRing(t *testing.T) {
	tracer := obs.NewTracer(4096)
	m := startMaster(t, Config{Tracer: tracer,
		DeadlineFloor: 150 * time.Millisecond, DeadlineFactor: 0.001})
	slow := dialFake(t, m, "HTC G2", 806) // serves profiling, never answers real work
	fast := dialFake(t, m, "Nexus S", 1000)
	go scriptedPhone(slow, func(*fakePhone, *protocol.Message) {})
	late := make(chan *protocol.Message, 1)
	go scriptedPhone(fast, func(f *fakePhone, msg *protocol.Message) {
		select {
		case fr := <-late:
			f.send(fr)
		default:
		}
		replyResult(f, msg)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 2); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 6; j++ {
		if _, err := m.Submit(tasks.PrimeCount{}, numberLines(1000*j+1, 1000*j+300), true); err != nil {
			t.Fatal(err)
		}
	}
	// The late result: one more job whose range an earlier dispatcher on
	// the fast phone shipped and let go; the phone delivers the detached
	// attempt's report while this round runs.
	lateInput := numberLines(7001, 7300)
	detached := openTestRange(t, m, tasks.PrimeCount{}, lateInput, true, 3)
	lateJob := detached.item.jobID
	var lateAttempt int64
	m.do(func() {
		m.nextAttempt++
		lateAttempt = m.nextAttempt
		m.attempts[lateAttempt] = &attemptRec{ps: m.phones[fast.id], a: detached}
	})
	res := groundTruth(t, tasks.PrimeCount{}, lateInput)
	late <- &protocol.Message{Type: protocol.TypeResult, Attempt: lateAttempt,
		Result: res, Digest: tasks.Digest(res), ExecMs: 1, ProcessedKB: 1}

	t0 := time.Now()
	rep, err := m.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}

	type row struct {
		kind             string
		phone, job, part int
	}
	count := func(rows []row) map[row]int {
		n := map[row]int{}
		for _, r := range rows {
			n[r]++
		}
		return n
	}
	var view, stream []row
	kinds := map[string]int{}
	for _, e := range rep.Events {
		view = append(view, row{e.Kind, e.PhoneID, e.JobID, e.Partition})
		kinds[e.Kind]++
	}
	for _, ev := range tracer.Recent(4096) {
		// Aggregation follows the round: it is the job's event, not the
		// round's.
		if ev.Src != "" || ev.TS.Before(t0) || ev.Kind == obs.KindAggregate {
			continue
		}
		kind := ev.Kind
		if kind == obs.KindResult && ev.Detail != "" {
			kind = ev.Detail + "-result"
		}
		stream = append(stream, row{kind, ev.Phone, ev.Job, ev.Partition})
	}
	got, want := count(view), count(stream)
	for r, n := range want {
		if got[r] != n {
			t.Errorf("%+v: %d in RoundReport.Events, %d in the trace ring", r, got[r], n)
		}
	}
	for r, n := range got {
		if want[r] == 0 {
			t.Errorf("%+v: %d in RoundReport.Events, none in the trace ring", r, n)
		}
	}
	for _, k := range []string{"assign", "result", "straggler", "speculate", "requeue", "late-result"} {
		if kinds[k] == 0 {
			t.Errorf("the round produced no %q event (kinds: %v); the scenario no longer covers it", k, kinds)
		}
	}
	if !sort.SliceIsSorted(rep.Events, func(i, j int) bool { return rep.Events[i].At < rep.Events[j].At }) {
		t.Error("RoundReport.Events is not ordered by At")
	}
	if len(rep.Stragglers) != kinds["straggler"] || rep.DeadLettered != kinds["deadletter"] {
		t.Errorf("Stragglers %v, DeadLettered %d disagree with the timeline's kinds %v", rep.Stragglers, rep.DeadLettered, kinds)
	}
	if got, ok := m.Result(lateJob); !ok || string(got) != string(res) {
		t.Errorf("late result not credited: job %d = %q (%v), want %q", lateJob, got, ok, res)
	}
}
