package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cwc/internal/faults"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
	"cwc/internal/wal"
	"cwc/internal/wire"
)

// oracleSink is a ReplicaSink that folds every record the master ships
// into a WALFold — the standby's reducer — and, at every record (each is
// shipped on the master's loop), compares the fold's snapshot
// with the live master's, byte for byte. Records that gate a change
// (submit, round, epoch) are appended before the change is made, so the
// live cut is compared with the fold before the record; every other
// record is appended after its change, so with the fold after it.
type oracleSink struct {
	t *testing.T
	m *Master

	mu       sync.Mutex
	fold     *WALFold
	typs     []uint8
	compared int
}

func (o *oracleSink) Lag() int64 { return 0 }

// DropAll is called only when the log is re-anchored past a lost
// record, and no oracle script loses one.
func (o *oracleSink) DropAll() { o.t.Errorf("standbys dropped: the log lost a record") }

func (o *oracleSink) Ship(f *wal.Frame) {
	o.mu.Lock()
	defer o.mu.Unlock()
	// Reading the frame back checks its CRC and copies the payload, which
	// the fold keeps past the frame's release.
	rec, _, err := wal.NewStreamReader(bytes.NewReader(f.Bytes())).Next()
	if err != nil {
		o.t.Errorf("record %d: shipped frame does not read back: %v", len(o.typs)+1, err)
		return
	}
	typ := rec.Type
	o.typs = append(o.typs, typ)
	gating := typ == walRecSubmit || typ == walRecRound || typ == walRecEpoch
	if gating {
		o.compareLocked(fmt.Sprintf("before record %d (type %d)", len(o.typs), typ))
	}
	if err := o.fold.Apply(rec); err != nil {
		o.t.Errorf("fold refused record %d (type %d): %v", len(o.typs), typ, err)
		return
	}
	if !gating {
		o.compareLocked(fmt.Sprintf("after record %d (type %d)", len(o.typs), typ))
	}
}

// compareLocked runs on the master's state's owner, holding o.mu.
func (o *oracleSink) compareLocked(when string) {
	var live, folded bytes.Buffer
	if err := o.m.walSnapshotLocked(&live); err != nil {
		o.t.Errorf("%s: live snapshot: %v", when, err)
		return
	}
	if err := o.fold.Snapshot(&folded); err != nil {
		o.t.Errorf("%s: fold snapshot: %v", when, err)
		return
	}
	o.compared++
	if !bytes.Equal(live.Bytes(), folded.Bytes()) {
		o.t.Errorf("%s: fold and live state differ\n fold: %s live: %s", when, folded.Bytes(), live.Bytes())
	}
}

// cutRecords reads a cut's framed records back, as recovery reads a
// snapshot file and a standby its attach stream.
func cutRecords(t *testing.T, b []byte) []wal.Record {
	t.Helper()
	var recs []wal.Record
	sr := wal.NewStreamReader(bytes.NewReader(b))
	for {
		rec, _, err := sr.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatalf("cut record %d: %v", len(recs)+1, err)
		}
		recs = append(recs, rec)
	}
}

// cutBytes frames a cut as a shipper writes it.
func cutBytes(t *testing.T, c *Cut) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := c.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// foldCut starts fold over from a cut, as a standby attaching does.
func foldCut(t *testing.T, fold *WALFold, cut []byte) {
	t.Helper()
	fold.Reset()
	for i, rec := range cutRecords(t, cut) {
		if err := fold.Apply(rec); err != nil {
			t.Errorf("fold refused cut record %d (type %d): %v", i+1, rec.Type, err)
		}
	}
}

// check compares at a quiescent point, from the test's goroutine.
func (o *oracleSink) check(when string) {
	o.m.do(func() {
		o.mu.Lock()
		defer o.mu.Unlock()
		o.compareLocked(when)
	})
}

// lowRetryBudget has every range dead-lettered at its second failure
// until the test ends. Call it before the master starts.
func lowRetryBudget(t *testing.T) {
	retryBudget = 1
	t.Cleanup(func() { retryBudget = maxItemRetries })
}

// scriptedPhone answers profiling assignments itself and hands every
// real assignment to behave, which replies however the script wants.
func scriptedPhone(f *fakePhone, behave func(f *fakePhone, msg *protocol.Message)) {
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
		if msg.JobID == 0 {
			_ = f.conn.Send(&protocol.Message{Type: protocol.TypeResult, Attempt: msg.Attempt,
				Result: []byte("0"), Digest: tasks.Digest([]byte("0")), ExecMs: 1, ProcessedKB: 1})
			continue
		}
		behave(f, msg)
	}
}

// checkpointAt runs the assignment's task over the input up to the first
// line boundary at or past half of it and returns the checkpoint a worker
// interrupted there would hold.
func checkpointAt(msg *protocol.Message) *tasks.Checkpoint {
	half := len(msg.Input) / 2
	off := half + bytes.IndexByte(msg.Input[half:], '\n') + 1
	task, err := tasks.New(msg.Task, msg.Params)
	if err != nil {
		panic(err)
	}
	var ck tasks.Checkpoint
	res, err := task.Process(context.Background(), msg.Input[:off], &ck)
	if err != nil {
		panic(err)
	}
	return &tasks.Checkpoint{Offset: int64(off), State: []byte(`{"count":` + string(res) + `}`)}
}

func replyResult(f *fakePhone, msg *protocol.Message) {
	task, err := tasks.New(msg.Task, msg.Params)
	if err != nil {
		panic(err)
	}
	var ck tasks.Checkpoint
	if msg.Resume != nil {
		ck = *msg.Resume
	}
	res, err := task.Process(context.Background(), msg.Input, &ck)
	if err != nil {
		panic(err)
	}
	_ = f.conn.Send(&protocol.Message{Type: protocol.TypeResult,
		JobID: msg.JobID, Partition: msg.Partition, Attempt: msg.Attempt,
		Result: res, Digest: tasks.Digest(res), ExecMs: 1, ProcessedKB: float64(len(msg.Input)) / 1024})
}

func replyFailure(f *fakePhone, msg *protocol.Message, ck *tasks.Checkpoint) {
	_ = f.conn.Send(&protocol.Message{Type: protocol.TypeFailure,
		JobID: msg.JobID, Partition: msg.Partition, Attempt: msg.Attempt,
		Checkpoint: ck, Error: "unplugged"})
}

// streamCheckpoint streams the assignment's half-way checkpoint and
// waits for its ack; nil if the connection died first.
func streamCheckpoint(f *fakePhone, msg *protocol.Message) *tasks.Checkpoint {
	ck := checkpointAt(msg)
	_ = f.conn.Send(&protocol.Message{Type: protocol.TypeCheckpoint,
		JobID: msg.JobID, Partition: msg.Partition, Attempt: msg.Attempt, Seq: 1,
		Checkpoint: ck, Digest: ck.Digest()})
	for {
		ack, err := f.conn.Recv()
		if err != nil {
			return nil
		}
		if ack.Type == protocol.TypeCheckpointAck {
			return ck
		}
	}
}

// streamThenVanish streams one checkpoint, waits for its ack, then fails
// the assignment with no checkpoint in the report: the range migrates
// whole, resuming from the streamed state.
func streamThenVanish(f *fakePhone, msg *protocol.Message) {
	if streamCheckpoint(f, msg) != nil {
		replyFailure(f, msg, nil)
	}
}

// failOnResume fails (without a checkpoint) any assignment that arrives
// with resume state — a migrated range on its second life — and computes
// everything else honestly.
func failOnResume(f *fakePhone, msg *protocol.Message) {
	if msg.Resume != nil {
		replyFailure(f, msg, nil)
		return
	}
	replyResult(f, msg)
}

func numberLines(from, to int) []byte {
	var b bytes.Buffer
	for i := from; i <= to; i++ {
		fmt.Fprintf(&b, "%d\n", i)
	}
	return b.Bytes()
}

// TestWALFoldMatchesLiveStateAfterEveryRecord is the differential
// oracle: one scripted master is driven through submit → a three-piece
// round → streamed checkpoint → partial failure with remainder →
// whole-range migrate → the migrated keyed range re-entering a round →
// dead letter → finish, and after every appended record WALFold, fed the
// shipped bytes, must serialize to exactly what the live master would
// write as its own snapshot. The second run compacts mid-script and
// re-primes the fold from the snapshot cut, so the rest of the records'
// references resolve against a snapshot rather than against records.
func TestWALFoldMatchesLiveStateAfterEveryRecord(t *testing.T) {
	for _, compactMid := range []bool{false, true} {
		t.Run(fmt.Sprintf("compactMid=%v", compactMid), func(t *testing.T) {
			dir := t.TempDir()
			wl := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
			sink := &oracleSink{t: t, fold: NewWALFold()}
			// One retry: any range that fails a second time is dead-lettered,
			// and a dead letter is always logged — unlike the retry count of
			// a range a dead phone's queue hands back, which the log only
			// learns with the next round record.
			lowRetryBudget(t)
			m := New(Config{Addr: "127.0.0.1:0", WAL: wl, ReplicaSink: sink})
			sink.m = m
			if err := m.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(m.Close)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			// Round 1: one breakable job over three equal phones, one piece
			// each; one phone per outcome.
			go scriptedPhone(dialFake(t, m, "Nexus S", 1000), streamThenVanish)
			go scriptedPhone(dialFake(t, m, "Nexus S", 1000), func(f *fakePhone, msg *protocol.Message) {
				replyFailure(f, msg, checkpointAt(msg))
			})
			go scriptedPhone(dialFake(t, m, "Nexus S", 1000), failOnResume)
			if err := m.WaitForPhones(ctx, 3); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Submit(tasks.PrimeCount{}, numberLines(1, 6000), false); err != nil {
				t.Fatal(err)
			}
			sink.check("after submit")
			if _, err := m.RunRound(ctx); err != nil {
				t.Fatal(err)
			}
			sink.check("after round 1")

			if compactMid {
				if err := m.CompactWAL(); err != nil {
					t.Fatal(err)
				}
				m.ReplicaSnapshot(func(c *Cut) {
					sink.mu.Lock()
					defer sink.mu.Unlock()
					foldCut(t, sink.fold, cutBytes(t, c))
				})
			}

			// Round 2: the migrated range (keyed, with resume state) and the
			// partial failure's remainder (fresh) over the survivor and two
			// new phones. Whoever receives the migrated range fails it again.
			go scriptedPhone(dialFake(t, m, "Nexus S", 1000), failOnResume)
			go scriptedPhone(dialFake(t, m, "Nexus S", 1000), failOnResume)
			if err := m.WaitForPhones(ctx, 3); err != nil {
				t.Fatal(err)
			}
			if _, err := m.RunRound(ctx); err != nil {
				t.Fatal(err)
			}
			sink.check("after round 2")
			if len(m.DeadLetters()) == 0 {
				t.Fatal("the twice-failed range was not dead-lettered")
			}

			// Round 3: a second job, start to finish.
			words := []byte(strings.Repeat("storm sale inventory sale\n", 8))
			idB, err := m.Submit(tasks.WordCount{Word: "sale"}, words, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.RunRound(ctx); err != nil {
				t.Fatal(err)
			}
			sink.check("after round 3")
			wantB, ok := m.Result(idB)
			if !ok || string(wantB) != "16" {
				t.Fatalf("job B = %q %v, want 16", wantB, ok)
			}

			sink.mu.Lock()
			seen := map[uint8]bool{}
			for _, typ := range sink.typs {
				seen[typ] = true
			}
			compared := sink.compared
			sink.mu.Unlock()
			for _, typ := range []uint8{walRecSubmit, walRecRound, walRecReport, walRecPartial,
				walRecMigrate, walRecDeadLetter, walRecRegister} {
				if !seen[typ] {
					t.Errorf("script never appended record type %d (seen: %v)", typ, seen)
				}
			}
			if compared < 20 {
				t.Errorf("only %d comparisons made; the oracle is vacuous", compared)
			}

			// The log on disk replays to the same place.
			wantDead := len(m.DeadLetters())
			m.Close()
			wl.Close()
			wl2 := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
			if snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.wal")); compactMid && len(snaps) == 0 {
				t.Fatal("no snapshot on disk; references were never resolved against one")
			}
			r := startMaster(t, Config{WAL: wl2})
			if err := r.RecoverWAL(); err != nil {
				t.Fatalf("replay: %v", err)
			}
			if got, ok := r.Result(idB); !ok || !bytes.Equal(got, wantB) {
				t.Errorf("recovered job B = %q %v, want %q", got, ok, wantB)
			}
			if got := len(r.DeadLetters()); got != wantDead {
				t.Errorf("recovered %d dead letters, want %d", got, wantDead)
			}
		})
	}
}

// encodeWAL renders a record's payload the way walWrite does.
func encodeWAL(tb testing.TB, v walRecord) []byte {
	tb.Helper()
	b, err := wire.Encode(new(wire.Codec), 0, v)
	if err != nil {
		tb.Fatal(err)
	}
	return append([]byte(nil), b...)
}

// rawPayload frames a record payload by hand, so a test can lie in it.
func rawPayload(hlen uint32, header string, sections ...string) []byte {
	b := binary.BigEndian.AppendUint32(nil, hlen)
	b = append(b, header...)
	for _, s := range sections {
		b = append(b, s...)
	}
	return b
}

func framed(header string, sections ...string) []byte {
	return rawPayload(uint32(len(header)), header, sections...)
}

// field is one raw header field, so a test can write any key and value:
// the key of tag with wire type wt, then val as given.
func field(tag, wt int, val ...byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(tag)<<3|uint64(wt)), val...)
}

// hdr joins raw fields into a header.
func hdr(fields ...[]byte) string { return string(bytes.Join(fields, nil)) }

// Raw headers the hostile records are built from: a drain record's
// fields, as the codec writes them and as JSON, and a submit record's for
// job 2 without its sections.
var (
	drainJSON = `{"phone_id":1,"state":"started"}`
	drainHdr  = hdr(field(1, 0, 2), field(2, 2, append([]byte{7}, "started"...)...))
	submitHdr = hdr(field(1, 0, 4), field(2, 0, 4), field(3, 2, append([]byte{10}, "primecount"...)...))
)

// TestWALHostileRecords feeds the reducer records whose framing or
// references are wrong. Each must be refused with an error — never a
// panic, never a silent fold — and none may cost more memory than the
// record itself holds.
func TestWALHostileRecords(t *testing.T) {
	prime := func() *walReducer {
		r := newWALReducer()
		r.jobs[1] = &walJobRec{ID: 1, Task: "primecount", TotalBytes: 14}
		r.fresh[1] = rawItem(walItemRec{Seq: 1, JobID: 1}, "2\n3\n5\n7\n")
		r.open[1] = rawItem(walItemRec{Key: 1, JobID: 1, Atomic: true}, "11\n13\n")
		return r
	}
	wholeRound := encodeWAL(t, &walRound{Items: []walRoundItem{{Key: 2, FromSeq: 1, Len: 8}}})
	// A coded input — a 128-byte code table, then the stream — whose raw
	// length, one past the record bound, is no more than its 8 MiB stream
	// could decode to: refused before a buffer is made for it.
	const coded = 128 + 1<<23
	pastBound := framed(submitHdr+hdr(field(5, 0, binary.AppendUvarint(nil, coded)...),
		field(7, 0, binary.AppendUvarint(nil, walMaxPayload+1)...)), strings.Repeat("\x00", coded))
	cases := []struct {
		name    string
		typ     uint8
		payload []byte
		before  []byte // a valid round record applied first, when set
		wantErr string
	}{
		{"empty payload", walRecSubmit, nil, nil, "no header length"},
		{"three bytes", walRecDrain, []byte{1, 0, 0}, nil, "no header length"},
		{"header length past the payload", walRecDrain, rawPayload(500, drainHdr), nil, "overruns"},
		{"old all-JSON payload", walRecSubmit, []byte(`{"job_id":2,"seq":2,"task":"primecount","input":"Mgo="}`), nil, "overruns"},
		{"JSON header", walRecDrain, framed(drainJSON), nil, "wire type 3"},
		{"JSON header behind a little-endian length", walRecDrain,
			append(binary.LittleEndian.AppendUint32(nil, uint32(len(drainJSON))), drainJSON...), nil, "overruns"},
		{"header cut inside a field", walRecDrain, framed(drainHdr[:4]), nil, "past the header"},
		{"bytes after a header that has no sections", walRecDrain, framed(drainHdr, "x"), nil, "after the last section"},
		{"no sections at all", walRecSubmit, framed(submitHdr, "2\n"), nil, "2 bytes after the last section"},
		{"section of 2^64-1 bytes", walRecSubmit, framed(submitHdr+hdr(field(5, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)), "2\n"), nil, "overruns"},
		{"section past the payload", walRecSubmit, framed(submitHdr+hdr(field(5, 0, 0x80, 0x94, 0xeb, 0xdc, 0x03)), "2\n"), nil, "overruns"},
		{"bytes after the last section", walRecSubmit, framed(submitHdr+hdr(field(5, 0, 2)), "2\n", "3\n"), nil, "2 bytes after the last section"},
		{"a coded input that decodes past the record bound", walRecSubmit, pastBound, nil, "over the 67108863-byte limit"},
		{"section tag listed twice", walRecSubmit, framed(submitHdr+hdr(field(5, 0, 2), field(5, 0, 2)), "2\n", "3\n"), nil, "tag 5 repeated"},
		{"checkpoint state nothing owns", walRecMigrate, framed(hdr(field(1, 0, 2), field(2, 0, 2)), "abc"), nil, "after the last section"},
		{"checkpoint state in the header", walRecMigrate, framed(hdr(field(1, 0, 2), field(2, 0, 2), field(3, 2, 3, 0x12, 1, 's'))), nil, "tag 2 has wire type 2"},
		{"unknown tag", walRecDrain, framed(drainHdr + hdr(field(9, 0, 1))), nil, "unknown tag 9"},
		{"duplicate tag", walRecDrain, framed(hdr(field(1, 0, 2), field(1, 0, 4))), nil, "tag 1 repeated"},
		{"tags out of order", walRecDrain, framed(hdr(field(2, 2, 1, 's'), field(1, 0, 2))), nil, "tag 1 after tag 2"},
		{"truncated varint", walRecDrain, framed(hdr(field(1, 0, 0x80))), nil, "truncated varint"},
		{"10-byte varint that overflows", walRecDrain, framed(hdr(field(1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02))), nil, "overflows"},
		{"string length past the header", walRecDrain, framed(hdr(field(1, 0, 2), field(2, 2, 50, 's'))), nil, "length 50 past the header"},
		{"item count past the header", walRecRound, framed(hdr(field(1, 2, 2, 100, 0))), nil, "count 100 past the header"},
		{"unknown tag in a round item", walRecRound, framed(hdr(field(1, 2, 4, 1, 2, 0x48, 1))), nil, "unknown tag 9"},
		{"from_seq unknown", walRecRound, encodeWAL(t, &walRound{Items: []walRoundItem{{Key: 2, FromSeq: 9, Len: 8}}}), nil, "unknown fresh item 9"},
		{"from_seq consumed by an earlier record", walRecRound, wholeRound, wholeRound, "unknown fresh item 1"},
		{"off+len past the range", walRecRound, encodeWAL(t, &walRound{Items: []walRoundItem{{Key: 2, FromSeq: 1, Off: 4, Len: 5}}}), nil, "names bytes"},
		{"len overflowing int64", walRecRound, encodeWAL(t, &walRound{Items: []walRoundItem{{Key: 2, FromSeq: 1, Off: 4, Len: 1<<63 - 1}}}), nil, "names bytes"},
		{"negative off", walRecRound, encodeWAL(t, &walRound{Items: []walRoundItem{{Key: 2, FromSeq: 1, Off: -1, Len: 8}}}), nil, "names bytes"},
		{"empty range", walRecRound, encodeWAL(t, &walRound{Items: []walRoundItem{{Key: 2, FromSeq: 1}}}), nil, "names bytes"},
		{"ranges short of the item", walRecRound, encodeWAL(t, &walRound{Items: []walRoundItem{{Key: 2, FromSeq: 1, Len: 4}}}), nil, "hold 4 of its 8 bytes"},
		{"key neither open nor in the snapshot", walRecRound, encodeWAL(t, &walRound{Items: []walRoundItem{{Key: 7}}}), nil, "key 7 is not an open range"},
		{"remainder of a key that is not open", walRecPartial, encodeWAL(t, &walPartialRec{JobID: 1, Key: 7, Offset: 2, RemainderSeq: 2}), nil, "not an open range"},
		{"remainder from past the range", walRecPartial, encodeWAL(t, &walPartialRec{JobID: 1, Key: 1, Offset: 6, RemainderSeq: 2}), nil, "from offset 6 of 6"},
		{"remainder from a negative offset", walRecPartial, encodeWAL(t, &walPartialRec{JobID: 1, Key: 1, Offset: -2, RemainderSeq: 2}), nil, "from offset -2"},
		{"migrate of a key that is not open", walRecMigrate, encodeWAL(t, &walMigrate{JobID: 1, Key: 7}), nil, "not an open range"},
		{"migrate under the wrong job", walRecMigrate, encodeWAL(t, &walMigrate{JobID: 2, Key: 1}), nil, "not an open range of job 2"},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range cases {
		r := prime()
		if c.before != nil {
			if err := r.apply(wal.Record{Type: walRecRound, Payload: c.before}); err != nil {
				t.Fatalf("%s: setup record refused: %v", c.name, err)
			}
		}
		err := r.apply(wal.Record{Type: c.typ, Payload: c.payload})
		if err == nil {
			t.Errorf("%s: folded without error", c.name)
		} else if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q, want it to mention %q", c.name, err, c.wantErr)
		}
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Errorf("hostile records allocated %d bytes in all; a declared length must not be allocation advice", grown)
	}

	// The same references, well-formed, fold — so the errors above are
	// about the references, not the test's encoding.
	r := prime()
	for _, rec := range []wal.Record{
		{Type: walRecRound, Payload: encodeWAL(t, &walRound{Items: []walRoundItem{
			{Key: 2, FromSeq: 1, Len: 4}, {Key: 3, FromSeq: 1, Off: 4, Len: 4}, {Key: 1, Retries: 1}}})},
		{Type: walRecPartial, Payload: encodeWAL(t, &walPartialRec{JobID: 1, Key: 1, Offset: 3, Partial: wire.Held{Bytes: []byte("1")}, RemainderSeq: 2, Retries: 2})},
		{Type: walRecMigrate, Payload: encodeWAL(t, &walMigrate{JobID: 1, Key: 3, Resume: &tasks.Checkpoint{Offset: 2, State: []byte("s")}, Retries: 1})},
	} {
		if err := r.apply(rec); err != nil {
			t.Fatalf("well-formed record type %d refused: %v", rec.Type, err)
		}
	}
	if got := string(r.open[3].input()); got != "5\n7\n" {
		t.Errorf("key 3 resolved to %q, want the item's second half", got)
	}
	if got := string(r.fresh[2].input()); got != "13\n" || r.fresh[2].Retries != 2 {
		t.Errorf("remainder resolved to %q (retries %d), want 13\\n (2)", got, r.fresh[2].Retries)
	}
	if ck := r.open[3].Resume; ck == nil || ck.Offset != 2 || string(ck.State) != "s" || r.open[3].Retries != 1 {
		t.Errorf("migrated range = %+v, resume %+v", r.open[3], ck)
	}
	if _, still := r.open[1]; still || len(r.fresh) != 1 {
		t.Errorf("consumed state survived: open[1] %v, fresh %v", still, r.fresh)
	}
}

// corruptCodedRecords are a submit, a report and a cut item, each valid
// against primedReducer's state but for its coded section: a stream with
// a padding bit set, a stream cut short, or a code table that is not a
// complete code. Each is framed as the log frames it: a held section is
// written through as it is.
func corruptCodedRecords(tb testing.TB) map[string]wal.Record {
	// 63 lines of four primes code to a stream whose last byte ends in
	// padding (64 would fill it).
	text := bytes.Repeat([]byte("13\n17\n19\n23\n"), 63)
	good, ok := wire.AppendCoded(nil, text)
	if !ok {
		tb.Fatal("the text did not code")
	}
	sections := map[string][]byte{
		"padding bit set": append(bytes.Clone(good[:len(good)-1]), good[len(good)-1]|0x80),
		"stream cut":      good[:len(good)-2],
		// '1' is byte value 49, the high nibble of table byte 24.
		"incomplete code table": append(append(bytes.Clone(good[:24]), good[24]&0x0f), good[25:]...),
	}
	out := map[string]wal.Record{}
	for what, sec := range sections {
		held := wire.Held{Bytes: sec, N: len(text)}
		for _, rec := range []walRecord{
			&walSubmit{JobID: 2, Seq: 2, Task: "primecount", Input: held},
			&walReport{JobID: 1, Key: 1, Bytes: 6, Partial: held},
			&walCutItem{Seq: 2, JobID: 1, Input: held},
		} {
			out[fmt.Sprintf("%T, %s", rec, what)] = wal.Record{Type: rec.typ(), Payload: encodeWAL(tb, rec)}
		}
	}
	return out
}

// TestCorruptCodedSectionRefusedAtItsRecord: replay and the standby keep a
// coded section coded, but still decode it once, at the record that
// carries it. So a section that does not decode fails that record, in
// walReducer.apply and in WALFold.Apply alike, and leaves the state as
// it was, not a later record that happens to need its bytes.
func TestCorruptCodedSectionRefusedAtItsRecord(t *testing.T) {
	snap := func(r *walReducer) []byte {
		var b bytes.Buffer
		if err := r.snapshot(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	before := snap(primedReducer())
	for name, rec := range corruptCodedRecords(t) {
		r := primedReducer()
		if err := r.apply(rec); err == nil || !strings.Contains(err.Error(), "corrupt coded section") {
			t.Errorf("%s: apply = %v, want the coded section refused", name, err)
		}
		if !bytes.Equal(snap(r), before) {
			t.Errorf("%s: the refused record changed the replayed state", name)
		}
		f := &WALFold{red: primedReducer()}
		if err := f.Apply(rec); err == nil || !strings.Contains(err.Error(), "corrupt coded section") {
			t.Errorf("%s: WALFold.Apply = %v, want the coded section refused", name, err)
		}
		if !bytes.Equal(snap(f.red), before) || f.Applied() != 0 {
			t.Errorf("%s: the refused record changed the standby's state", name)
		}
	}
	// The same records with their sections intact fold: what is refused
	// above is the coded stream.
	text := bytes.Repeat([]byte("13\n17\n19\n23\n"), 63)
	for _, rec := range []walRecord{
		&walSubmit{JobID: 2, Seq: 2, Task: "primecount", Input: wire.Held{Bytes: text}},
		&walReport{JobID: 1, Key: 1, Bytes: 6, Partial: wire.Held{Bytes: text}},
		&walCutItem{Seq: 2, JobID: 1, Input: wire.Held{Bytes: text}},
	} {
		if err := primedReducer().apply(wal.Record{Type: rec.typ(), Payload: encodeWAL(t, rec)}); err != nil {
			t.Errorf("%T with its section intact: %v", rec, err)
		}
	}
}

// TestWALRecordLayout pins the byte layout docs/protocol.md draws.
func TestWALRecordLayout(t *testing.T) {
	got := encodeWAL(t, &walSubmit{JobID: 1, Seq: 1, Task: "primecount", Input: wire.Held{Bytes: []byte("2\n3\n5\n7\n")}})
	header := "\x08\x02\x10\x02\x1a\x0aprimecount\x28\x08"
	if want := framed(header, "2\n3\n5\n7\n"); !bytes.Equal(got, want) {
		t.Fatalf("submit payload =\n%q, want\n%q", got, want)
	}
	if len(header) != 18 {
		t.Errorf("header is %d bytes; docs/protocol.md says 18", len(header))
	}
	if got := encodeWAL(t, &walDrainRec{PhoneID: 3, State: drainStarted}); !bytes.Equal(got, framed("\x08\x06\x12\x07started")) {
		t.Errorf("drain payload = %q", got)
	}
}

// typeFailingDisk fails the appends of the given record types through
// faults' flaky-disk writer and passes every other write through. One
// Append is one Write of one framed record, whose type byte sits behind
// the 8-byte frame header.
type typeFailingDisk struct {
	w    io.Writer
	bad  *faults.FaultyWriter
	fail map[uint8]bool
	lost *lostRecords
}

// lostRecords outlives the segment writers (every compaction wraps a
// new one).
type lostRecords struct {
	mu   sync.Mutex
	typs []uint8
}

func (d *typeFailingDisk) Write(b []byte) (int, error) {
	if len(b) > 8 && d.fail[b[8]] {
		d.lost.mu.Lock()
		d.lost.typs = append(d.lost.typs, b[8])
		d.lost.mu.Unlock()
		return d.bad.Write(b)
	}
	return d.w.Write(b)
}

// TestWALLostRecordForcesCompaction: a record the disk refused used to be
// "logged and carried on" from, leaving log and state diverged until a
// compaction that, without -wal-compact-kb, never came — a lost partial
// record replayed into double coverage. Now the log takes nothing on top
// of a hole: live state is folded into a snapshot first. The disk here
// loses exactly the partial (5) and migrate (6) records of a round; a
// master killed right after that round, and one killed after finishing
// the job, must both recover without a replay error to byte-identical
// aggregates.
func TestWALLostRecordForcesCompaction(t *testing.T) {
	for _, killAfterRound := range []int{1, 2} {
		t.Run(fmt.Sprintf("killAfterRound=%d", killAfterRound), func(t *testing.T) {
			dir := t.TempDir()
			lost := &lostRecords{}
			wl := openWAL(t, dir, wal.Options{
				Sync: wal.SyncAlways,
				WriterHook: func(w io.Writer) io.Writer {
					return &typeFailingDisk{
						w:    w,
						bad:  faults.NewWriter(w, faults.WriteProfile{Seed: 1, ErrProb: 1}),
						fail: map[uint8]bool{walRecPartial: true, walRecMigrate: true},
						lost: lost,
					}
				},
			})
			m := startMaster(t, Config{WAL: wl})
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			go scriptedPhone(dialFake(t, m, "Nexus S", 1000), streamThenVanish)
			go scriptedPhone(dialFake(t, m, "Nexus S", 1000), func(f *fakePhone, msg *protocol.Message) {
				replyFailure(f, msg, checkpointAt(msg))
			})
			go scriptedPhone(dialFake(t, m, "Nexus S", 1000), replyResult)
			if err := m.WaitForPhones(ctx, 3); err != nil {
				t.Fatal(err)
			}
			input := numberLines(1, 6000)
			want := groundTruth(t, tasks.PrimeCount{}, input)
			id, err := m.Submit(tasks.PrimeCount{}, input, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.RunRound(ctx); err != nil {
				t.Fatal(err)
			}
			// Whichever of the two comes first is refused by the disk; the
			// other may find the log already stale and be folded into the
			// snapshot instead of ever reaching the disk.
			lost.mu.Lock()
			refused := len(lost.typs)
			lost.mu.Unlock()
			if refused == 0 {
				t.Fatal("the disk refused no record; the script must lose a partial (5) or a migrate (6)")
			}
			if killAfterRound == 2 {
				go scriptedPhone(dialFake(t, m, "Nexus S", 1000), replyResult)
				go scriptedPhone(dialFake(t, m, "Nexus S", 1000), replyResult)
				for round := 0; round < 5; round++ {
					if _, ok := m.Result(id); ok {
						break
					}
					if _, err := m.RunRound(ctx); err != nil {
						t.Fatal(err)
					}
				}
				if got, ok := m.Result(id); !ok || !bytes.Equal(got, want) {
					t.Fatalf("live result = %q %v, want %q", got, ok, want)
				}
			}
			m.Close()
			wl.Close()

			wl2 := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
			r := startMaster(t, Config{WAL: wl2})
			if err := r.RecoverWAL(); err != nil {
				t.Fatalf("replay after lost records: %v", err)
			}
			go scriptedPhone(dialFake(t, r, "Nexus S", 1000), replyResult)
			for round := 0; round < 5; round++ {
				if _, ok := r.Result(id); ok {
					break
				}
				if _, err := r.RunRound(ctx); err != nil {
					t.Fatalf("post-recovery round: %v", err)
				}
			}
			if got, ok := r.Result(id); !ok || !bytes.Equal(got, want) {
				t.Fatalf("recovered result = %q %v, want %q (byte-identical)", got, ok, want)
			}
		})
	}
}

// TestWALRoundOver64MiB: a round record used to carry every input of the
// round again, base64-inflated, so three 24 MiB jobs in one round (96 MiB
// of record) failed with wal.ErrTooLarge. It now names ranges, and its
// size is independent of theirs.
func TestWALRoundOver64MiB(t *testing.T) {
	dir := t.TempDir()
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
	m := startMaster(t, Config{WAL: wl})
	f := dialFake(t, m, "HTC G2", 806)
	// The master treats results as opaque until aggregation; a constant
	// keeps three 24 MiB "executions" instant.
	go scriptedPhone(f, func(f *fakePhone, msg *protocol.Message) {
		_ = f.conn.Send(&protocol.Message{Type: protocol.TypeResult,
			JobID: msg.JobID, Partition: msg.Partition, Attempt: msg.Attempt,
			Result: []byte("7"), Digest: tasks.Digest([]byte("7")), ExecMs: 1, ProcessedKB: float64(len(msg.Input)) / 1024})
	})
	input := bytes.Repeat([]byte("1234567\n"), 3<<20) // 24 MiB
	var ids []int
	for i := 0; i < 3; i++ {
		id, err := m.Submit(tasks.PrimeCount{}, input, false)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	rep, err := m.RunRound(ctx)
	if err != nil {
		t.Fatalf("round over 72 MiB of input: %v", err)
	}
	if len(rep.CompletedJobs) != 3 {
		t.Fatalf("round completed %v, want all three jobs", rep.CompletedJobs)
	}
	m.Close()
	wl.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v)", segs, err)
	}
	if st, err := os.Stat(segs[0]); err != nil || st.Size() > int64(3*len(input))+64<<10 {
		t.Errorf("log is %d bytes for %d bytes of input (%v): an input byte must be logged once", st.Size(), 3*len(input), err)
	}
	wl2 := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
	r := startMaster(t, Config{WAL: wl2})
	if err := r.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if got, ok := r.Result(id); !ok || string(got) != "7" {
			t.Errorf("recovered job %d = %q %v", id, got, ok)
		}
	}
}

// lossySplit is a Breakable double whose Split drops the input's last
// byte: the pieces no longer concatenate to the input.
type lossySplit struct{ tasks.PrimeCount }

func (l lossySplit) Split(input []byte, sizesKB []float64) ([][]byte, error) {
	pieces, err := l.PrimeCount.Split(input, sizesKB)
	if err == nil {
		last := len(pieces) - 1
		for last > 0 && len(pieces[last]) == 0 {
			last--
		}
		pieces[last] = pieces[last][:len(pieces[last])-1]
	}
	return pieces, err
}

// TestSplitContractViolationFailsRound: a round record names a piece by
// offset and length derived from the Split's piece lengths, so a Split
// that loses a byte must fail the round before anything is keyed, logged
// or dispatched, and leave the item queued.
func TestSplitContractViolationFailsRound(t *testing.T) {
	m := startMaster(t, Config{})
	var mu sync.Mutex
	dispatched := 0
	count := func(f *fakePhone, msg *protocol.Message) {
		mu.Lock()
		dispatched++
		mu.Unlock()
		replyResult(f, msg)
	}
	for i := 0; i < 3; i++ {
		go scriptedPhone(dialFake(t, m, "Nexus S", 1000), count)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 3); err != nil {
		t.Fatal(err)
	}
	input := numberLines(1, 6000)
	if _, err := m.Submit(lossySplit{}, input, false); err != nil {
		t.Fatal(err)
	}
	_, err := m.RunRound(ctx)
	if err == nil || !strings.Contains(err.Error(), "totalling") {
		t.Fatalf("round error = %v, want the split's byte count refused", err)
	}
	if n := m.PendingItems(); n != 1 {
		t.Errorf("pending = %d, want the item back in the queue", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if dispatched != 0 {
		t.Errorf("%d assignments dispatched from a refused split", dispatched)
	}
	// Profiling falls back to the whole input rather than trusting a
	// sample cut by the same Split.
	if got := profileSample(&workItem{task: lossySplit{}, input: input}); len(got) != len(input) {
		t.Errorf("profile sample is %d bytes of a lossy split, want the whole %d-byte input", len(got), len(input))
	}
}
