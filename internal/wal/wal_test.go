package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"cwc/internal/faults"
	"cwc/internal/obs"
)

func appendN(t *testing.T, l *Log, n int) []Record {
	t.Helper()
	var recs []Record
	for i := 0; i < n; i++ {
		r := Record{Type: uint8(1 + i%7), Payload: []byte(fmt.Sprintf("record-%03d", i))}
		if err := l.Append(r.Type, r.Payload); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		recs = append(recs, r)
	}
	return recs
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type != b[i].Type || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

// TestAppendReusesItsFrame: after its first record a Log frames every
// record of no greater size in a pooled frame, so an append allocates
// nothing, and records framed in a reused buffer read back intact. A
// frame over maxPooledFrame is written but not pooled.
func TestAppendReusesItsFrame(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("p"), 256)
	if err := l.Append(1, payload); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := l.Append(2, payload[:len(payload)-1]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Append allocates %v times per record after the first, want 0", allocs)
	}
	if err := l.Append(3, make([]byte, maxPooledFrame)); err != nil {
		t.Fatal(err)
	}
	f := NewFrame(5, nil)
	if c := cap(f.Bytes()); c > maxPooledFrame {
		t.Errorf("the pool kept a %d-byte frame, want at most %d", c, maxPooledFrame)
	}
	f.Release()
	if err := l.Append(4, []byte("last")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := l2.Recovered()
	if len(got) != 104 {
		t.Fatalf("recovered %d records, want 104", len(got))
	}
	for i, r := range got[1:102] {
		if r.Type != 2 || !bytes.Equal(r.Payload, payload[:len(payload)-1]) {
			t.Fatalf("record %d = type %d %q, want type 2 and the appended payload", i+1, r.Type, r.Payload)
		}
	}
	if last := got[103]; last.Type != 4 || string(last.Payload) != "last" {
		t.Fatalf("last record = type %d %q, want type 4 \"last\"", last.Type, last.Payload)
	}
}

func TestAppendReopenRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !sameRecords(l2.Recovered(), want) {
		t.Fatalf("recovered %d records, want %d identical", len(l2.Recovered()), len(want))
	}
}

func TestCloseIdempotent(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := l.Append(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

// TestEveryByteTruncation is the WAL-level crash harness: a killed
// master can leave the live segment cut at ANY byte offset. For every
// prefix length, recovery must succeed and yield exactly the records
// that fit wholly within the prefix.
func TestEveryByteTruncation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 12)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	_, bounds, err := ScanSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != len(want) {
		t.Fatalf("ScanSegment found %d boundaries, want %d", len(bounds), len(want))
	}

	for cut := 0; cut <= len(full); cut++ {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, segmentName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cl, err := Open(cdir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: open failed: %v", cut, err)
		}
		survivors := 0
		for _, b := range bounds {
			if b <= int64(cut) {
				survivors++
			}
		}
		if !sameRecords(cl.Recovered(), want[:survivors]) {
			cl.Close()
			t.Fatalf("cut=%d: recovered %d records, want the first %d", cut, len(cl.Recovered()), survivors)
		}
		// The repaired log must accept appends and survive another open.
		if err := cl.Append(99, []byte("post-crash")); err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		cl.Close()
		cl2, err := Open(cdir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: reopen after repair: %v", cut, err)
		}
		got := cl2.Recovered()
		cl2.Close()
		wantAfter := append(append([]Record(nil), want[:survivors]...), Record{Type: 99, Payload: []byte("post-crash")})
		if !sameRecords(got, wantAfter) {
			t.Fatalf("cut=%d: after repair+append, recovered %d records, want %d", cut, len(got), len(wantAfter))
		}
	}
}

func TestCorruptTailSkippedWithWarning(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 5)
	l.Close()
	seg := filepath.Join(dir, segmentName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // flip a payload byte of the final record
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	l2, err := Open(dir, Options{Logger: obs.NewLogger(&buf, obs.LevelWarn)})
	if err != nil {
		t.Fatalf("open with corrupt tail: %v", err)
	}
	defer l2.Close()
	if !sameRecords(l2.Recovered(), want[:4]) {
		t.Fatalf("recovered %d records, want first 4", len(l2.Recovered()))
	}
	if !strings.Contains(buf.String(), "torn tail") {
		t.Fatalf("expected a torn-tail warning, got log output %q", buf.String())
	}
}

func TestCorruptMiddleFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5)
	l.Close()
	seg := filepath.Join(dir, segmentName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[headerSize+2] ^= 0xff // payload byte of the FIRST record: bytes follow
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with mid-log corruption: %v, want ErrCorrupt", err)
	}
}

func TestInvalidLengthWithBytesFollowing(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)
	l.Close()
	seg := filepath.Join(dir, segmentName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Zero out the first record's declared length: invalid (< 1) with
	// plenty of bytes behind it.
	b[0], b[1], b[2], b[3] = 0, 0, 0, 0
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with zero-length record: %v, want ErrCorrupt", err)
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10)
	if !l.CompactDue() {
		t.Fatal("CompactDue should report true past the threshold")
	}
	snap := Record{Type: 9, Payload: []byte("folded")}
	if err := l.Compact(func(w io.Writer) error {
		_, err := w.Write(EncodeRecord(snap.Type, snap.Payload))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if l.LogBytes() != 0 {
		t.Fatalf("LogBytes after compaction = %d, want 0", l.LogBytes())
	}
	if err := l.Append(42, []byte("after")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Old generation retired.
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); !os.IsNotExist(err) {
		t.Fatalf("segment 1 should be deleted after compaction: %v", err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	want := []Record{snap, {Type: 42, Payload: []byte("after")}}
	if !sameRecords(l2.Recovered(), want) {
		t.Fatalf("recovered %v, want the snapshot's record, then the post-compaction one", l2.Recovered())
	}
}

// TestCompactionCrashOrphans simulates a compaction that died between
// the snapshot rename and the old-segment deletes: Open must finish the
// job, preferring the snapshot and discarding covered segments.
func TestCompactionCrashOrphans(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4)
	l.Close()
	// Hand-build the post-rename, pre-delete state: snapshot-2 exists,
	// wal-2 exists (empty), wal-1 was never deleted.
	snap := Record{Type: 9, Payload: []byte("SNAP")}
	if err := os.WriteFile(filepath.Join(dir, snapshotName(2)), EncodeRecord(snap.Type, snap.Payload), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !sameRecords(l2.Recovered(), []Record{snap}) {
		t.Fatalf("recovered %v, want only the snapshot's record: the covered segment replayed", l2.Recovered())
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); !os.IsNotExist(err) {
		t.Fatalf("covered segment 1 should be removed at open: %v", err)
	}
}

func TestFaultyWriterClawback(t *testing.T) {
	// Deterministic flaky disk: the recovered log must hold exactly the
	// records whose Append returned nil — failed writes AND failed
	// SyncAlways fsyncs are clawed back, so an errored append never
	// leaves its record behind to collide with the caller's retry.
	for seed := int64(1); seed <= 8; seed++ {
		dir := t.TempDir()
		var fw *faults.FaultyWriter
		l, err := Open(dir, Options{
			Sync: SyncAlways,
			WriterHook: func(w io.Writer) io.Writer {
				fw = faults.NewWriter(w, faults.WriteProfile{Seed: seed, ShortProb: 0.2, ErrProb: 0.2, SyncErrProb: 0.1})
				return fw
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var acked []Record
		for i := 0; i < 40; i++ {
			r := Record{Type: 7, Payload: []byte(fmt.Sprintf("seed%d-rec%02d", seed, i))}
			if err := l.Append(r.Type, r.Payload); err == nil {
				acked = append(acked, r)
			}
		}
		if len(fw.Events()) == 0 {
			t.Fatalf("seed %d: no faults injected; test is vacuous", seed)
		}
		l.Close()

		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("seed %d: reopen after flaky run: %v", seed, err)
		}
		recovered := l2.Recovered()
		l2.Close()
		if len(recovered) != len(acked) {
			t.Fatalf("seed %d: recovered %d records, acknowledged %d", seed, len(recovered), len(acked))
		}
		for i, r := range recovered {
			if acked[i].Type != r.Type || !bytes.Equal(acked[i].Payload, r.Payload) {
				t.Fatalf("seed %d: recovered record %d = %q, want %q", seed, i, r.Payload, acked[i].Payload)
			}
		}
	}
}

func TestSyncFailureClawedBack(t *testing.T) {
	// A record whose SyncAlways fsync fails must not stay in the log: the
	// caller treats the errored append as not-persisted (Submit does not
	// consume the JobID), so a surviving record would collide with the
	// retry on replay.
	dir := t.TempDir()
	l, err := Open(dir, Options{
		Sync: SyncAlways,
		WriterHook: func(w io.Writer) io.Writer {
			return faults.NewWriter(w, faults.WriteProfile{Seed: 1, SyncErrProb: 1, MaxFaults: 1})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, []byte("doomed")); err == nil {
		t.Fatal("append with failing fsync should report the error")
	}
	if err := l.Append(1, []byte("retried")); err != nil {
		t.Fatalf("append after sync-failure claw-back: %v", err)
	}
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := l2.Recovered()
	if len(got) != 1 || string(got[0].Payload) != "retried" {
		t.Fatalf("recovered %d records %v, want only the retried one", len(got), got)
	}
}

func TestZeroFilledTailRepaired(t *testing.T) {
	// A crash can extend the segment (size metadata flushed) without
	// flushing the appended data blocks, leaving a zero-filled tail. That
	// is torn-tail damage — truncate and continue, don't refuse to start.
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 5)
	l.Close()
	seg := filepath.Join(dir, segmentName(1))
	good, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var buf strings.Builder
	l2, err := Open(dir, Options{Logger: obs.NewLogger(&buf, obs.LevelWarn)})
	if err != nil {
		t.Fatalf("open with zero-filled tail: %v", err)
	}
	if !sameRecords(l2.Recovered(), want) {
		t.Fatalf("recovered %d records, want %d", len(l2.Recovered()), len(want))
	}
	l2.Close()
	if !strings.Contains(buf.String(), "zero-filled tail") {
		t.Fatalf("no zero-filled-tail warning logged; got %q", buf.String())
	}
	if st, err := os.Stat(seg); err != nil || st.Size() != good.Size() {
		t.Fatalf("segment not truncated back to %d bytes: %v, %v", good.Size(), st.Size(), err)
	}

	// A zero length with non-zero bytes behind it is still hard
	// corruption, not a torn tail.
	f, err = os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	tail := make([]byte, 100)
	tail[99] = 0xFF
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero length with data behind it opened with err = %v, want ErrCorrupt", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "none": SyncNone} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy should reject unknown values")
	}
}

func TestTooLarge(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(1, make([]byte, MaxRecordBytes)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append: %v, want ErrTooLarge", err)
	}
}

// TestAppendFrameWritesTheFrameAsGiven: a sealed frame — the one
// EncodeFrame builds, or one a StreamReader checked — lands in the
// segment byte for byte.
func TestAppendFrameWritesTheFrameAsGiven(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	f, err := EncodeFrame(4, func(buf []byte) ([]byte, error) {
		return append(append(buf, make([]byte, RecordHeader)...), "encoded"...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := EncodeRecord(4, []byte("encoded"))
	if !bytes.Equal(f.Bytes(), want) {
		t.Fatalf("EncodeFrame sealed % x, want % x", f.Bytes(), want)
	}
	if err := l.AppendFrame(f.Bytes()); err != nil {
		t.Fatal(err)
	}
	f.Release()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, segmentName(1))); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("segment holds % x (%v), want exactly the frame % x", got, err, want)
	}
}

// BenchmarkAppend: one record framed into a pooled frame and written,
// with no sync, so the figure is framing plus the write syscall.
func BenchmarkAppend(b *testing.B) {
	for _, size := range []int{256, 1 << 20} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Sync: SyncNone})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := bytes.Repeat([]byte("p"), size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(1, payload); err != nil {
					b.Fatal(err)
				}
				if l.LogBytes() > 64<<20 { // bound the disk a long run takes
					b.StopTimer()
					if err := l.Compact(func(io.Writer) error { return nil }); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}

// TestOpenReadsTheLogOnce: a record's payload is a sub-slice of the
// buffer its segment was read into, so Open allocates about the log's
// size once, not once for the read and again for the payloads, and an
// append to a payload cannot reach the next record.
func TestOpenReadsTheLogOnce(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	for i := 0; i < 64; i++ {
		payload[0] = byte(i)
		if err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	size := l.LogBytes()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l2, err := Open(dir, Options{Sync: SyncNone})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(size)*5/4; got > limit {
		t.Errorf("Open of a %d-byte log allocated %d bytes, want at most %d", size, got, limit)
	}
	recs := l2.Recovered()
	if len(recs) != 64 {
		t.Fatalf("recovered %d records, want 64", len(recs))
	}
	_ = append(recs[0].Payload, 'x')
	if recs[1].Type != 1 || recs[1].Payload[0] != 1 || !bytes.Equal(recs[1].Payload[1:], payload[1:]) {
		t.Error("appending to a recovered payload changed the record after it")
	}
}

func TestSyncInterval(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncInterval, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)
	time.Sleep(30 * time.Millisecond) // let the background loop run
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(l2.Recovered()) != 3 {
		t.Fatalf("recovered %d records, want 3", len(l2.Recovered()))
	}
}

func TestOpenSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "snapshot-00000002.wal.tmp-12345")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file survived Open: %v", err)
	}
	if len(l.Recovered()) != 0 {
		t.Fatal("temp file must never be treated as a snapshot")
	}
}

// TestOpenRefusesJSONSnapshot: the segments beside an older binary's JSON
// snapshot replay only on top of it, so a directory holding one is
// refused, by name, rather than replayed without its base.
func TestOpenRefusesJSONSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)
	l.Close()
	if err := os.WriteFile(filepath.Join(dir, "snapshot-00000001.json"), []byte(`{"next_job_id":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "snapshot-00000001.json") {
		if l != nil {
			l.Close()
		}
		t.Fatalf("Open = %v, want an error naming the JSON snapshot", err)
	}
}

// TestDamagedSnapshotFailsOpen: a snapshot is renamed into place whole,
// so a snapshot that does not scan — even one cut short, the shape a
// segment's torn tail has — is damage, never repaired by truncation.
func TestDamagedSnapshotFailsOpen(t *testing.T) {
	frame := EncodeRecord(9, []byte("folded state"))
	for name, b := range map[string][]byte{
		"cut short":    frame[:len(frame)-3],
		"bit-flipped":  append(append([]byte(nil), frame[:len(frame)-1]...), frame[len(frame)-1]^1),
		"not a record": []byte(`{"next_job_id":2}`),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, snapshotName(1))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if l, err := Open(dir, Options{}); err == nil {
				l.Close()
				t.Fatal("Open accepted a damaged snapshot")
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, b) {
				t.Fatalf("the damaged snapshot was changed: %d bytes, want %d (%v)", len(got), len(b), err)
			}
		})
	}
}
