package server

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"cwc/internal/protocol"
	"cwc/internal/tasks"
	"cwc/internal/wal"
	"cwc/internal/wire"
)

// openTestRange submits input as a job of task and opens it whole as one
// keyed range the way production does — a submit record, then a round
// record naming the item — and returns the assignment a dispatcher would
// hold for it. The item leaves the queue, as it does when a round takes it.
func openTestRange(t testing.TB, m *Master, task tasks.Task, input []byte, atomic bool, partition int) assignment {
	t.Helper()
	if _, err := m.Submit(task, input, atomic); err != nil {
		t.Fatal(err)
	}
	var a assignment
	var err error
	m.do(func() {
		it := m.pending[len(m.pending)-1]
		m.pending = m.pending[:len(m.pending)-1]
		key := m.nextKey + 1
		if err = m.walAppendErr(&walRound{Items: []walRoundItem{
			{Key: key, FromSeq: it.seq, Len: int64(len(input)), Partition: partition},
		}}); err == nil {
			a = assignment{item: it, partition: partition, input: input, key: key, rng: m.open[key]}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// liveWALRecords is one record of every type, each built the way its live
// call site builds it (a pointer to the struct, every field that site
// sets), valid against primedReducer's state.
func liveWALRecords() map[string]walRecord {
	ck := &tasks.Checkpoint{Offset: 3, State: []byte(`{"count":1}`)}
	return map[string]walRecord{
		"submit": &walSubmit{JobID: 2, Seq: 2, Task: "wordcount", Params: tasks.WordCount{Word: "sale"}.Params(),
			Input: wire.Held{Bytes: []byte("sale\n")}, Atomic: true},
		"round": &walRound{Items: []walRoundItem{
			{Key: 2, FromSeq: 1, Len: 4, Partition: 0}, {Key: 3, FromSeq: 1, Off: 4, Len: 4, Partition: 1},
			{Key: 1, Retries: 1, Partition: 7}}},
		"report":        &walReport{JobID: 1, Key: 1, Bytes: 6, Partial: wire.Held{Bytes: []byte("2")}},
		"partial":       &walPartialRec{JobID: 1, Key: 1, Offset: 3, Partial: wire.Held{Bytes: []byte("1")}, RemainderSeq: 2, Retries: 1},
		"migrate":       &walMigrate{JobID: 1, Key: 1, Resume: ck, Retries: 1, Partition: 7},
		"migrate/whole": &walMigrate{JobID: 1, Key: 1, Retries: 2},
		// A streamed checkpoint: the range's retries and partition unchanged.
		"migrate/streamed": &walMigrate{JobID: 1, Key: 1, Resume: ck},
		// A checkpoint at offset zero with no state is still a checkpoint.
		"migrate/empty":  &walMigrate{JobID: 1, Key: 1, Resume: &tasks.Checkpoint{}},
		"deadletter":     &walDeadLetterRec{JobID: 1, Key: 1, Task: "primecount", Bytes: 6, Retries: 1, Reason: "phone lost mid-round"},
		"deadletter/new": &walDeadLetterRec{JobID: 1, Task: "primecount", Bytes: 3, Retries: 1, Reason: "failure remainder: unplugged"},
		"drain":          &walDrainRec{PhoneID: 3, State: drainStarted},
		"epoch":          &walEpochRec{Epoch: 2},
		"register":       &walRegisterRec{PhoneID: 5, Model: "Nexus S"},
		"reputation":     &walReputationRec{PhoneID: 5, Score: 0.216, Quarantined: true},
		// A cut's records, as cut builds them: a partial is a keyless report.
		"head": &walCutHead{NextJobID: 5, NextSeq: 4, NextKey: 6, NextPhoneID: 9},
		"job": &walCutJob{ID: 2, Task: "wordcount", Params: tasks.WordCount{Word: "sale"}.Params(),
			TotalBytes: 10, Covered: 5},
		// A job whose aggregation failed holds its failure, not its partials.
		"job/failed": &walCutJob{ID: 2, Task: "primecount", TotalBytes: 10, Covered: 10,
			Failure: "server: job 2: tasks: partial 1 is not a count"},
		"item/fresh":     &walCutItem{Seq: 2, JobID: 1, Input: wire.Held{Bytes: []byte("17\n")}, Retries: 1},
		"item/open":      &walCutItem{Key: 2, JobID: 1, Input: wire.Held{Bytes: []byte("19\n23\n")}, Atomic: true, Retries: 2, Partition: 4},
		"report/partial": &walReport{JobID: 1, Partial: wire.Held{Bytes: []byte("3")}},
	}
}

// rawItem is it holding input raw and whole, as the live master holds an
// item it was just given.
func rawItem(it walItemRec, input string) *walItemRec {
	it.src, it.Len = &wire.Held{Bytes: []byte(input)}, int64(len(input))
	return &it
}

// retiredWALTypes are the numbers the constant block keeps unnamed: no
// record logs itself under one, and a record of one from an older log is
// refused as unknown rather than decoded as something else.
var retiredWALTypes = map[uint8]string{3: "dispatch", 8: "finish", 9: "checkpoint"}

// primedReducer is a state that gives every record something to refer to:
// a job, a fresh item of it and an open range of it.
func primedReducer() *walReducer {
	r := newWALReducer()
	r.jobs[1] = &walJobRec{ID: 1, Task: "primecount", TotalBytes: 14}
	r.fresh[1] = rawItem(walItemRec{Seq: 1, JobID: 1}, "2\n3\n5\n7\n")
	r.open[1] = rawItem(walItemRec{Key: 1, JobID: 1, Atomic: true}, "11\n13\n")
	r.nextJobID, r.nextSeq, r.nextKey = 2, 1, 1
	return r
}

// TestWALFoldLiveEqualsDecoded holds the one seam the single reducer has:
// the live master folds the struct it built, replay and the standby fold
// what decodeWAL made of the struct's encoding. For every record type the
// two must leave identically primed states byte-identical — so fold reads
// no field the payload does not carry — and decodeWAL must hand back the
// struct that named the type. "Every" is every value below walRecEnd, so a
// type added to the constant block fails here until the table above holds
// a live record of it: this test, not a static check, is what keeps the
// log replayable as record types are added. Only the retired numbers are
// skipped, and those must stay unknown to decodeWAL.
func TestWALFoldLiveEqualsDecoded(t *testing.T) {
	seen := map[uint8]bool{}
	for name, rec := range liveWALRecords() {
		seen[rec.typ()] = true
		if rec.typ() >= walRecEnd {
			t.Errorf("%s: a %T logs itself as type %d, past walRecEnd: declare its type inside the constant block", name, rec, rec.typ())
		}
		live, replayed := primedReducer(), primedReducer()
		if err := live.fold(rec); err != nil {
			t.Errorf("%s: live fold: %v", name, err)
			continue
		}
		logged := wal.Record{Type: rec.typ(), Payload: encodeWAL(t, rec)}
		decoded, err := decodeWAL(logged)
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if reflect.TypeOf(decoded) != reflect.TypeOf(rec) {
			t.Errorf("%s: a %T logs itself as type %d, which decodes as a %T", name, rec, rec.typ(), decoded)
		}
		if err := replayed.apply(logged); err != nil {
			t.Errorf("%s: replayed fold: %v", name, err)
			continue
		}
		var a, b, before bytes.Buffer
		if err := live.snapshot(&a); err != nil {
			t.Fatal(err)
		}
		if err := replayed.snapshot(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: folding the struct and folding its encoding differ\n live:     %s replayed: %s", name, a.Bytes(), b.Bytes())
		}
		if err := primedReducer().snapshot(&before); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.Bytes(), before.Bytes()) {
			t.Errorf("%s: the record changed nothing; the comparison is vacuous", name)
		}
	}
	for typ := walRecSubmit; typ < walRecEnd; typ++ {
		if name, retired := retiredWALTypes[typ]; retired {
			_, err := decodeWAL(wal.Record{Type: typ, Payload: encodeWAL(t, &walDrainRec{PhoneID: 1, State: drainStarted})})
			if seen[typ] || err == nil || !strings.Contains(err.Error(), "unknown record type") {
				t.Errorf("retired type %d (%s) is in use: a live record logs it %v, decodeWAL says %v", typ, name, seen[typ], err)
			}
			continue
		}
		if !seen[typ] {
			t.Errorf("no live record of type %d in the table", typ)
		}
	}
	if _, err := decodeWAL(wal.Record{Type: walRecEnd}); err == nil {
		t.Error("decodeWAL accepts walRecEnd: a record type was declared outside the constant block")
	}
}

// TestCutRecordsNoLargerThanLogged: a cut carries the state logged
// records built and no record of it is larger than the largest of them —
// an open range's bytes ride in its item record and its resume state in
// a migrate record, never both in one — so a cut of any state frames
// within wal.MaxRecordBytes wherever its log did. Its fold is the state.
func TestCutRecordsNoLargerThanLogged(t *testing.T) {
	input := bytes.Repeat([]byte("7\n"), 4096)
	state := bytes.Repeat([]byte("s"), 4096) // a checkpoint half the size of its input
	r := newWALReducer()
	largest := 0
	for _, rec := range []walRecord{
		&walSubmit{JobID: 1, Seq: 1, Task: "blur", Input: wire.Held{Bytes: input}, Atomic: true},
		&walRound{Items: []walRoundItem{{Key: 1, FromSeq: 1, Len: int64(len(input)), Partition: 3}}},
		&walMigrate{JobID: 1, Key: 1, Resume: &tasks.Checkpoint{Offset: 4096, State: state}, Retries: 1, Partition: 3},
	} {
		if err := r.fold(rec); err != nil {
			t.Fatal(err)
		}
		largest = max(largest, len(encodeWAL(t, rec)))
	}
	replayed := newWALReducer()
	recs, err := r.cut()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		b := encodeWAL(t, rec)
		if len(b) > largest {
			t.Errorf("a %d-byte %T in the cut; the largest logged record is %d bytes", len(b), rec, largest)
		}
		if err := replayed.apply(wal.Record{Type: rec.typ(), Payload: b}); err != nil {
			t.Fatal(err)
		}
	}
	var a, b bytes.Buffer
	if err := r.snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := replayed.snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if got := replayed.open[1]; got == nil || got.Resume == nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("the cut replayed to open range %+v, not to the state it was cut from", got)
	}
}

// TestCutHoldsOneResultPerJob: a job is its accumulator. N jobs of k
// partials each, folded from their logged records, cut to N report
// records, not N·k, each carrying the job's one result; and the cut folds
// to a state that cuts to the same bytes.
func TestCutHoldsOneResultPerJob(t *testing.T) {
	const n, k = 5, 3
	line := []byte("7\n")
	r := newWALReducer()
	fold := func(rec walRecord) {
		t.Helper()
		if err := r.apply(wal.Record{Type: rec.typ(), Payload: encodeWAL(t, rec)}); err != nil {
			t.Fatal(err)
		}
	}
	key := int64(0)
	for j := 1; j <= n; j++ {
		fold(&walSubmit{JobID: j, Seq: int64(j), Task: "primecount", Input: wire.Held{Bytes: bytes.Repeat(line, k)}})
		var items []walRoundItem
		for i := range k {
			items = append(items, walRoundItem{Key: key + int64(i) + 1, FromSeq: int64(j), Off: int64(i * len(line)), Len: int64(len(line))})
		}
		fold(&walRound{Items: items})
		for range k {
			key++
			fold(&walReport{JobID: j, Key: key, Bytes: int64(len(line)), Partial: wire.Held{Bytes: []byte("1")}})
		}
	}
	recs, err := r.cut()
	if err != nil {
		t.Fatal(err)
	}
	reports := 0
	for _, rec := range recs {
		if rep, ok := rec.(*walReport); ok {
			reports++
			if got := string(rep.Partial.Bytes); got != "3" {
				t.Errorf("job %d's cut result is %q, want its %d partials summed, 3", rep.JobID, got, k)
			}
		}
	}
	if reports != n {
		t.Errorf("the cut of %d jobs of %d partials holds %d report records, want %d", n, k, reports, n)
	}
	var a, b bytes.Buffer
	if err := r.snapshot(&a); err != nil {
		t.Fatal(err)
	}
	replayed := newWALReducer()
	for _, rec := range cutRecords(t, a.Bytes()) {
		if err := replayed.apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := replayed.snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("the cut's fold cuts to other bytes than the cut")
	}
}

// TestWALCutRecordsRefused: a cut record that contradicts the state it
// folds into — a job or an item already held, an item of no job, an item
// that is both a fresh item and an open range, or neither — fails, and
// leaves the state as it was.
func TestWALCutRecordsRefused(t *testing.T) {
	for _, c := range []struct {
		name    string
		rec     walRecord
		wantErr string
	}{
		{"job held", &walCutJob{ID: 1, Task: "primecount"}, "duplicate job record for job 1"},
		{"fresh item held", &walCutItem{Seq: 1, JobID: 1, Input: wire.Held{Bytes: []byte("2\n")}}, "already held"},
		{"open range held", &walCutItem{Key: 1, JobID: 1, Input: wire.Held{Bytes: []byte("2\n")}}, "already held"},
		{"item of no job", &walCutItem{Seq: 2, JobID: 9, Input: wire.Held{Bytes: []byte("2\n")}}, "unknown job 9"},
		{"both lives", &walCutItem{Seq: 2, Key: 2, JobID: 1, Input: wire.Held{Bytes: []byte("2\n")}}, "want exactly one"},
		{"neither life", &walCutItem{JobID: 1, Input: wire.Held{Bytes: []byte("2\n")}}, "want exactly one"},
	} {
		r := primedReducer()
		var before, after bytes.Buffer
		if err := r.snapshot(&before); err != nil {
			t.Fatal(err)
		}
		err := r.apply(wal.Record{Type: c.rec.typ(), Payload: encodeWAL(t, c.rec)})
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want it to mention %q", c.name, err, c.wantErr)
		}
		if err := r.snapshot(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Errorf("%s: the refused record changed the state", c.name)
		}
	}
}

// TestWALHandBackSpendsALoggedRetry: a range handed back whole with no
// failure report — here a lost phone's three-deep queue — spends a retry,
// and used to spend it in memory only: the log kept the round record's
// count, so a master recovered from it under-counted the budget. The
// hand-back is now a migrate record like any other whole migration: the
// recovered state holds the count the live master held at the kill, and a
// range on its last retry before the crash is dead-lettered by its next
// failure after it.
func TestWALHandBackSpendsALoggedRetry(t *testing.T) {
	dir := t.TempDir()
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
	sink := &oracleSink{t: t, fold: NewWALFold()}
	lowRetryBudget(t)
	cfg := Config{Addr: "127.0.0.1:0", WAL: wl, ReplicaSink: sink}
	m := New(cfg)
	sink.m = m
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for j := 0; j < 3; j++ {
		if _, err := m.Submit(tasks.PrimeCount{}, numberLines(1000*j+1, 1000*j+300), true); err != nil {
			t.Fatal(err)
		}
	}
	// One phone gets all three — one executing, one prefetched, one
	// unshipped — and drops off the network with the first in hand.
	go scriptedPhone(dialFake(t, m, "HTC G2", 806), func(f *fakePhone, _ *protocol.Message) { f.conn.Close() })
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	sink.check("after the hand-back")
	want := map[int64]int{}
	m.do(func() {
		for key, e := range m.open {
			want[key] = e.Retries
		}
	})
	if len(want) != 3 || m.PendingItems() != 3 {
		t.Fatalf("open ranges %v, %d pending; want three ranges handed back", want, m.PendingItems())
	}
	for key, retries := range want {
		if retries != 1 {
			t.Errorf("live key %d: %d retries spent, want 1", key, retries)
		}
	}
	m.Kill()
	wl.Close()

	wl2 := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
	cfg.WAL, cfg.ReplicaSink = wl2, nil
	r := startMaster(t, cfg)
	if err := r.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	open := map[int64]*walItemRec{}
	r.do(func() {
		for key := range want {
			open[key] = r.open[key]
		}
	})
	for key, retries := range want {
		if e := open[key]; e == nil || e.Retries != retries {
			t.Errorf("recovered key %d = %+v, want the live master's %d retries", key, e, retries)
		}
	}
	// The budget is one retry and each range has spent it: the next failure
	// abandons the range instead of queueing it a third time.
	go scriptedPhone(dialFake(t, r, "Nexus S", 1000), func(f *fakePhone, msg *protocol.Message) { replyFailure(f, msg, nil) })
	if _, err := r.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	if dead, pending := len(r.DeadLetters()), r.PendingItems(); dead != 3 || pending != 0 {
		t.Errorf("after one more failure: %d dead letters, %d pending; want 3 and 0", dead, pending)
	}
}

// TestLateFailureOfAbandonedStragglerKeepsCheckpoint: a straggler abandoned
// at twice its deadline stays registered (detached) in case it delivers.
// When it unplugs instead and reports a checkpoint, the report used to be
// dropped whole; the queued copy now resumes from it — live, and on a
// master recovered from the log.
func TestLateFailureOfAbandonedStragglerKeepsCheckpoint(t *testing.T) {
	for _, replay := range []bool{false, true} {
		name := "live"
		if replay {
			name = "replayed"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			wl := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
			sink := &oracleSink{t: t, fold: NewWALFold()}
			cfg := Config{Addr: "127.0.0.1:0", WAL: wl, ReplicaSink: sink,
				DeadlineFloor: 150 * time.Millisecond, DeadlineFactor: 0.001}
			m := New(cfg)
			sink.m = m
			if err := m.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(m.Close)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			input := numberLines(1, 2000)
			want := groundTruth(t, tasks.PrimeCount{}, input)
			id, err := m.Submit(tasks.PrimeCount{}, input, true)
			if err != nil {
				t.Fatal(err)
			}
			// The phone sits on the assignment until the round has given up on
			// it, then unplugs: a failure report with a checkpoint, and gone.
			roundOver := make(chan struct{})
			reported := make(chan *tasks.Checkpoint, 1)
			straggler := dialFake(t, m, "HTC G2", 806)
			go scriptedPhone(straggler, func(f *fakePhone, msg *protocol.Message) {
				<-roundOver
				ck := checkpointAt(msg)
				replyFailure(f, msg, ck)
				f.conn.Close()
				reported <- ck
			})
			rep, err := m.RunRound(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Stragglers) != 1 || m.PendingItems() != 1 {
				t.Fatalf("stragglers %v, %d pending: the phone was not abandoned with a copy queued", rep.Stragglers, m.PendingItems())
			}
			close(roundOver)
			ck := <-reported
			// The read loop folds the report before it sees the connection go.
			for alive := true; alive && ctx.Err() == nil; time.Sleep(5 * time.Millisecond) {
				alive = m.Phones()[0].Alive
			}
			sink.check("after the late report")

			if replay {
				m.Kill()
				wl.Close()
				wl2 := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
				cfg.WAL, cfg.ReplicaSink = wl2, nil
				m = startMaster(t, cfg)
				if err := m.RecoverWAL(); err != nil {
					t.Fatal(err)
				}
			}
			shipped := make(chan *protocol.Message, 1)
			go scriptedPhone(dialFake(t, m, "Nexus S", 1000), func(f *fakePhone, msg *protocol.Message) {
				select {
				case shipped <- msg:
				default:
				}
				replyResult(f, msg)
			})
			if _, err := m.RunRound(ctx); err != nil {
				t.Fatal(err)
			}
			msg := <-shipped
			if msg.Resume == nil || msg.Resume.Offset < ck.Offset {
				t.Fatalf("the copy shipped with resume %+v, want offset >= the late report's %d", msg.Resume, ck.Offset)
			}
			if got, ok := m.Result(id); !ok || !bytes.Equal(got, want) {
				t.Fatalf("result = %q (%v), want %q", got, ok, want)
			}
		})
	}
}
