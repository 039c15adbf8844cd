package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScanRecords asserts the frame decoder's safety contract on
// arbitrary bytes: never panic, never read past the buffer, report a
// good-offset within bounds, and classify every failure as either a
// torn tail or corruption (so callers always know whether repair is
// legal).
func FuzzScanRecords(f *testing.F) {
	f.Add([]byte{})
	// A valid two-record log as a seed corpus entry.
	dir := f.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	l.Append(1, []byte("hello"))
	l.Append(2, []byte("world"))
	l.Close()
	valid, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3})

	f.Fuzz(func(t *testing.T, b []byte) {
		recs, good, err := scanRecords(b)
		if good < 0 || good > len(b) {
			t.Fatalf("good offset %d out of range [0,%d]", good, len(b))
		}
		if err == nil && good != len(b) {
			t.Fatalf("clean scan stopped at %d of %d bytes", good, len(b))
		}
		total := 0
		for _, r := range recs {
			total += headerSize + 1 + len(r.Payload)
		}
		if total != good {
			t.Fatalf("decoded records span %d bytes but good offset is %d", total, good)
		}
	})
}

// FuzzStreamReader asserts the replication-stream decoder's safety
// contract on arbitrary bytes: never panic, never allocate more than a
// bounded chunk ahead of the bytes actually received, and terminate
// every stream with one of the three contract errors — io.EOF (clean
// boundary), io.ErrUnexpectedEOF (cut inside a record), or a wrapped
// ErrCorrupt (bad length or checksum). It also cross-checks against
// scanRecords: both decoders must agree on the records of any prefix
// they both accept, since a standby replays shipped bytes through
// scanRecords after appending them verbatim.
func FuzzStreamReader(f *testing.F) {
	f.Add([]byte{})
	valid := append(EncodeRecord(1, []byte("hello")), EncodeRecord(2, []byte("world"))...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn inside the second record
	f.Add(valid[:headerSize-1]) // torn inside a header
	flipped := append([]byte{}, valid...)
	flipped[headerSize+2] ^= 0xff // body bit-flip: checksum mismatch
	f.Add(flipped)
	huge := []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0} // absurd declared length
	f.Add(huge)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}) // declared length 0

	f.Fuzz(func(t *testing.T, b []byte) {
		sr := NewStreamReader(bytes.NewReader(b))
		var streamed []Record
		consumed := 0
		for {
			rec, frame, err := sr.Next()
			if err != nil {
				switch {
				case err == io.EOF, err == io.ErrUnexpectedEOF, errors.Is(err, ErrCorrupt):
				default:
					t.Fatalf("error outside the contract: %v", err)
				}
				// A clean EOF means every byte was consumed as records.
				if err == io.EOF && consumed != len(b) {
					t.Fatalf("clean EOF after %d of %d bytes", consumed, len(b))
				}
				break
			}
			if len(frame) != RecordHeader+len(rec.Payload) || !bytes.Equal(frame, b[consumed:consumed+len(frame)]) {
				t.Fatalf("the frame handed back is not the %d bytes the record came in", RecordHeader+len(rec.Payload))
			}
			consumed += len(frame)
			streamed = append(streamed, rec)
		}
		// Agreement with the at-rest scanner over the accepted prefix.
		scanned, good, _ := scanRecords(b[:consumed])
		if good != consumed || len(scanned) != len(streamed) {
			t.Fatalf("scanRecords accepts %d bytes / %d records of a prefix the stream decoded as %d bytes / %d records",
				good, len(scanned), consumed, len(streamed))
		}
		for i := range streamed {
			if streamed[i].Type != scanned[i].Type || !bytes.Equal(streamed[i].Payload, scanned[i].Payload) {
				t.Fatalf("record %d differs between stream and scan decode", i)
			}
		}
	})
}
