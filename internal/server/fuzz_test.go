package server

import (
	"bytes"
	"testing"

	"cwc/internal/tasks"
	"cwc/internal/wal"
	"cwc/internal/wire"
)

// FuzzWALReducer feeds arbitrary record types and payloads through WAL
// replay, on top of a state that gives references something to resolve
// against: corrupt-but-framed input must be rejected with an error,
// never a panic.
func FuzzWALReducer(f *testing.F) {
	f.Add(walRecSubmit, encodeWAL(f, &walSubmit{JobID: 2, Seq: 2, Task: "primecount", Input: wire.Held{Bytes: []byte("2\n")}}))
	f.Add(walRecRound, encodeWAL(f, &walRound{Items: []walRoundItem{
		{Key: 2, FromSeq: 1, Len: 4}, {Key: 3, FromSeq: 1, Off: 4, Len: 4}, {Key: 1, Retries: 1},
	}}))
	f.Add(walRecPartial, encodeWAL(f, &walPartialRec{JobID: 1, Key: 1, Offset: 2, Partial: wire.Held{Bytes: []byte("1")}, RemainderSeq: 2}))
	f.Add(walRecMigrate, encodeWAL(f, &walMigrate{JobID: 1, Key: 1, Resume: &tasks.Checkpoint{Offset: 2, State: []byte(`{"count":1}`)}}))
	f.Add(walRecReport, encodeWAL(f, &walReport{JobID: 99}))
	// Retired types as older logs wrote them (dispatch, finish, streamed
	// checkpoint), and as this codec would: refused as unknown, whatever
	// they hold.
	f.Add(uint8(3), framed(`{"key":1,"job_id":1,"partition":7,"phone_id":2,"attempt":9}`))
	f.Add(uint8(3), framed(hdr(field(1, 0, 2), field(2, 0, 2), field(3, 0, 14))))
	f.Add(uint8(8), framed(hdr(field(1, 0, 2), field(2, 0, 1)), "6"))
	f.Add(uint8(9), framed(hdr(field(1, 0, 2), field(2, 0, 2), field(3, 2, 4, 0x08, 6, 0x10, 11)), `{"count":1}`))
	// Earlier layouts: a JSON header, and the all-JSON payload before
	// sections, rejected from its first four bytes.
	f.Add(walRecDrain, framed(drainJSON))
	f.Add(walRecSubmit, []byte(`{"job_id":2,"seq":2,"task":"primecount","input":"Mgo="}`))
	// Hostile shapes: a section past the payload, an item count past the
	// header, a tag repeated.
	f.Add(walRecSubmit, framed(submitHdr+hdr(field(5, 0, 0x80, 0x94, 0xeb, 0xdc, 0x03)), "2\n"))
	f.Add(walRecRound, framed(hdr(field(1, 2, 2, 100, 0))))
	f.Add(walRecDrain, framed(hdr(field(1, 0, 2), field(1, 0, 4))))
	f.Add(uint8(200), []byte(`{}`))
	// The sections the log carries coded: an input, results and a cut
	// item's bytes, each coding to less than its raw size.
	text := bytes.Repeat([]byte("13\n17\n19\n23\n"), 64)
	for _, rec := range []walRecord{
		&walSubmit{JobID: 2, Seq: 2, Task: "primecount", Input: wire.Held{Bytes: text}},
		&walReport{JobID: 1, Key: 1, Bytes: 6, Partial: wire.Held{Bytes: text}},
		&walPartialRec{JobID: 1, Key: 1, Offset: 2, Partial: wire.Held{Bytes: text}, RemainderSeq: 2},
		&walCutItem{Seq: 2, JobID: 1, Input: wire.Held{Bytes: text}},
	} {
		b := encodeWAL(f, rec)
		if len(b) >= len(text) {
			f.Fatalf("a %T seed of %d bytes holds %d bytes uncoded", rec, len(b), len(text))
		}
		f.Add(rec.typ(), b)
	}
	// Coded sections that do not decode: a padding bit set, a stream cut
	// short, a code table that is not a complete code.
	for _, rec := range corruptCodedRecords(f) {
		f.Add(rec.Type, rec.Payload)
	}
	// Every record type as the live master builds it.
	for _, rec := range liveWALRecords() {
		f.Add(rec.typ(), encodeWAL(f, rec))
	}
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		red := newWALReducer()
		red.jobs[1] = &walJobRec{ID: 1, Task: "primecount", TotalBytes: 12}
		red.fresh[1] = rawItem(walItemRec{Seq: 1, JobID: 1}, "2\n3\n5\n7\n")
		red.open[1] = rawItem(walItemRec{Key: 1, JobID: 1, Atomic: true}, "11\n13\n")
		_ = red.apply(wal.Record{Type: typ, Payload: payload})
	})
}
