package wal

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestEncodeRecordRoundtrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 5000)}
	var stream []byte
	for i, p := range payloads {
		stream = append(stream, EncodeRecord(uint8(i+1), p)...)
	}
	sr := NewStreamReader(bytes.NewReader(stream))
	for i, p := range payloads {
		rec, frame, err := sr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(frame, EncodeRecord(uint8(i+1), p)) {
			t.Errorf("record %d: frame handed back is not the frame shipped", i)
		}
		if rec.Type != uint8(i+1) {
			t.Errorf("record %d: type %d, want %d", i, rec.Type, i+1)
		}
		if !bytes.Equal(rec.Payload, p) {
			t.Errorf("record %d: payload mismatch (%d bytes, want %d)", i, len(rec.Payload), len(p))
		}
	}
	if _, _, err := sr.Next(); err != io.EOF {
		t.Fatalf("after last record: %v, want io.EOF", err)
	}
}

// TestStreamReaderEveryTruncation cuts a multi-record stream at every
// byte offset and asserts the reader yields exactly the records whose
// frames fit entirely before the cut, then reports a clean EOF at a
// record boundary or ErrUnexpectedEOF mid-record — never a partial
// record, never a false success.
func TestStreamReaderEveryTruncation(t *testing.T) {
	recs := []struct {
		typ     uint8
		payload []byte
	}{
		{1, []byte("hello")},
		{7, nil},
		{2, bytes.Repeat([]byte("q"), 300)},
	}
	var stream []byte
	var boundaries []int // offsets at which a whole record ends
	for _, r := range recs {
		stream = append(stream, EncodeRecord(r.typ, r.payload)...)
		boundaries = append(boundaries, len(stream))
	}
	for cut := 0; cut <= len(stream); cut++ {
		wantComplete := 0
		for _, b := range boundaries {
			if b <= cut {
				wantComplete++
			}
		}
		sr := NewStreamReader(bytes.NewReader(stream[:cut]))
		got := 0
		var err error
		for {
			var rec Record
			rec, _, err = sr.Next()
			if err != nil {
				break
			}
			if rec.Type != recs[got].typ || !bytes.Equal(rec.Payload, recs[got].payload) {
				t.Fatalf("cut %d: record %d mismatch", cut, got)
			}
			got++
		}
		if got != wantComplete {
			t.Fatalf("cut %d: decoded %d records, want %d", cut, got, wantComplete)
		}
		atBoundary := cut == 0
		for _, b := range boundaries {
			if cut == b {
				atBoundary = true
			}
		}
		if atBoundary && err != io.EOF {
			t.Fatalf("cut %d (record boundary): err %v, want io.EOF", cut, err)
		}
		if !atBoundary && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d (mid-record): err %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestStreamReaderCorruption(t *testing.T) {
	frame := EncodeRecord(3, []byte("payload-bytes"))

	// Flip one payload byte: CRC must catch it.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0xff
	if _, _, err := NewStreamReader(bytes.NewReader(bad)).Next(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("payload flip: err %v, want ErrCorrupt", err)
	}

	// Zero length prefix: invalid (a record is at least its type byte).
	zero := append([]byte(nil), frame...)
	zero[0], zero[1], zero[2], zero[3] = 0, 0, 0, 0
	if _, _, err := NewStreamReader(bytes.NewReader(zero)).Next(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("zero length: err %v, want ErrCorrupt", err)
	}

	// Absurd length prefix: rejected before any allocation attempt.
	huge := append([]byte(nil), frame...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := NewStreamReader(bytes.NewReader(huge)).Next(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge length: err %v, want ErrCorrupt", err)
	}
}
