package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cwc/internal/faults"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
	"cwc/internal/wal"
	"cwc/internal/wire"
)

// heldBytes lists every byte field under v, a decoded record, nested
// ones included; a held section raw.
func heldBytes(v reflect.Value) [][]byte {
	if h, ok := v.Interface().(wire.Held); ok {
		b, err := h.Raw()
		if err != nil {
			panic(err)
		}
		return [][]byte{b}
	}
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			return heldBytes(v.Elem())
		}
	case reflect.Struct:
		var out [][]byte
		for i := 0; i < v.NumField(); i++ {
			out = append(out, heldBytes(v.Field(i))...)
		}
		return out
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return [][]byte{v.Bytes()}
		}
		var out [][]byte
		for i := 0; i < v.Len(); i++ {
			out = append(out, heldBytes(v.Index(i))...)
		}
		return out
	}
	return nil
}

// autoResponder serves every assignment on a fake phone with plausible
// results for the counting tasks.
func autoResponder(f *fakePhone) { respond(f, false, nil) }

// respond serves assignments on a fake phone like autoResponder. If
// failFirst, it fails the first with an uncheckpointed TypeFailure
// (exercising whole-partition migration) and then serves normally — though
// the master marks the phone dead on the failure, so "then" rarely comes.
// It calls hold (if set) before each reply, so a test can order replies
// across phones.
func respond(f *fakePhone, failFirst bool, hold func()) {
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
		if hold != nil {
			hold()
		}
		if failFirst {
			failFirst = false
			_ = f.conn.Send(&protocol.Message{Type: protocol.TypeFailure,
				JobID: msg.JobID, Partition: msg.Partition, Attempt: msg.Attempt,
				Error: "induced crash"})
			continue
		}
		task, err := tasks.New(msg.Task, msg.Params)
		if err != nil {
			continue
		}
		var ck tasks.Checkpoint
		if msg.Resume != nil {
			ck = *msg.Resume
		}
		res, err := task.Process(context.Background(), msg.Input, &ck)
		if err != nil {
			continue
		}
		_ = f.conn.Send(&protocol.Message{Type: protocol.TypeResult,
			JobID: msg.JobID, Partition: msg.Partition, Attempt: msg.Attempt,
			Result: res, Digest: tasks.Digest(res), ExecMs: 1, ProcessedKB: float64(len(msg.Input)) / 1024})
	}
}

func openWAL(t *testing.T, dir string, opts wal.Options) *wal.Log {
	t.Helper()
	wl, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wl.Close() })
	return wl
}

func TestWALRecoverAcrossMasters(t *testing.T) {
	dir := t.TempDir()
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	a := startMaster(t, Config{WAL: wl})
	fa := dialFake(t, a, "HTC G2", 806)
	go autoResponder(fa)

	id1, err := a.Submit(tasks.PrimeCount{}, []byte("2\n3\n4\n5\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := a.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	want1, ok := a.Result(id1)
	if !ok {
		t.Fatal("job 1 did not complete on master A")
	}
	id2, err := a.Submit(tasks.WordCount{Word: "sale"}, []byte("sale sale no\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	// Kill A without any explicit save: the WAL is the only persistence.
	a.Close()
	wl.Close()

	wl2 := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	b := startMaster(t, Config{WAL: wl2})
	if err := b.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	got1, ok := b.Result(id1)
	if !ok || !bytes.Equal(got1, want1) {
		t.Fatalf("recovered result = %q %v, want %q", got1, ok, want1)
	}
	if b.PendingItems() != 1 {
		t.Fatalf("recovered pending = %d, want 1", b.PendingItems())
	}
	fb := dialFake(t, b, "Nexus S", 1000)
	go autoResponder(fb)
	if _, err := b.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	got2, ok := b.Result(id2)
	if !ok || string(got2) != "2" {
		t.Fatalf("recovered job result = %q %v, want 2", got2, ok)
	}
	id3, err := b.Submit(tasks.MaxInt{}, []byte("1\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if id3 <= id2 {
		t.Errorf("new job ID %d not above recovered %d", id3, id2)
	}
}

// TestTextSubmitLogsCoded: a text input is logged as the link carries it,
// Huffman-coded, at under 0.6 of its size, and a master recovered from
// the log holds it byte for byte.
func TestTextSubmitLogsCoded(t *testing.T) {
	dir := t.TempDir()
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
	m := startMaster(t, Config{WAL: wl})
	input := tasks.GenText(64, rand.New(rand.NewSource(1)))
	before := wl.LogBytes()
	id, err := m.Submit(tasks.WordCount{Word: "sale"}, input, false)
	if err != nil {
		t.Fatal(err)
	}
	if logged := wl.LogBytes() - before; float64(logged) > 0.6*float64(len(input)) {
		t.Errorf("a %d-byte text input logged in %d bytes, want at most 0.6 of it", len(input), logged)
	}
	m.Close()
	wl.Close()

	r := startMaster(t, Config{WAL: openWAL(t, dir, wal.Options{Sync: wal.SyncNone})})
	if err := r.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	var replayed []byte
	r.do(func() {
		for _, it := range r.fresh {
			if it.JobID == id {
				replayed = it.input()
			}
		}
	})
	if !bytes.Equal(replayed, input) {
		t.Errorf("job %d's input replayed as %d bytes, not the %d submitted", id, len(replayed), len(input))
	}
}

// TestReplayLeavesConsumedInputsCoded: replay holds each logged input as
// the log holds it, coded, and decodes only what live state needs raw.
// Once a log's jobs have all finished, none of their inputs is, so
// recovering it allocates a small fraction of their raw bytes beyond the
// log wal.Open read: the held bytes alias that buffer, and each input is
// decoded only to be checked, through a window that allocates nothing.
func TestReplayLeavesConsumedInputsCoded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	const jobs = 16
	dir := t.TempDir()
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
	m := startMaster(t, Config{WAL: wl})
	go autoResponder(dialFake(t, m, "Nexus S", 1000))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 1); err != nil {
		t.Fatal(err)
	}
	task := tasks.WordCount{Word: "sale"}
	rng := rand.New(rand.NewSource(5))
	raw := 0
	ids := make([]int, jobs)
	want := map[int][]byte{}
	for i := range ids {
		input := tasks.GenText(512, rng)
		id, err := m.Submit(task, input, true)
		if err != nil {
			t.Fatal(err)
		}
		ids[i], raw = id, raw+len(input)
	}
	for round := 0; round < 10 && len(want) < jobs; round++ {
		if _, err := m.RunRound(ctx); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if res, ok := m.Result(id); ok {
				want[id] = res
			}
		}
	}
	if len(want) != jobs {
		t.Fatalf("%d of %d jobs finished", len(want), jobs)
	}
	m.Close()
	wl.Close()

	r := startMaster(t, Config{WAL: openWAL(t, dir, wal.Options{Sync: wal.SyncNone})})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := r.RecoverWAL()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 0.2*float64(raw) {
		t.Errorf("recovering %d finished jobs of %d input bytes allocated %d bytes, want under 0.2x", jobs, raw, got)
	} else {
		t.Logf("recovering %d finished jobs of %d input bytes allocated %d bytes: %.3fx", jobs, raw, got, float64(got)/float64(raw))
	}
	for id, res := range want {
		if got, ok := r.Result(id); !ok || !bytes.Equal(got, res) {
			t.Errorf("recovered job %d = %q (%v), want %q", id, got, ok, res)
		}
	}
}

// BenchmarkWALFoldApply is the standby's fold, and replay's, of one job's
// records: a 1 MiB text submit, logged coded, the round that opens it
// whole and its report. MB/s is raw input folded a second; B/raw-B is
// what the fold allocates per raw input byte.
func BenchmarkWALFoldApply(b *testing.B) {
	input := tasks.GenText(1024, rand.New(rand.NewSource(1)))
	result, err := tasks.WordCount{Word: "sale"}.Process(context.Background(), input, &tasks.Checkpoint{})
	if err != nil {
		b.Fatal(err)
	}
	n := int64(len(input))
	var recs []wal.Record
	for _, rec := range []walRecord{
		&walSubmit{JobID: 1, Seq: 1, Task: "wordcount", Params: tasks.WordCount{Word: "sale"}.Params(),
			Input: wire.Held{Bytes: input}, Atomic: true},
		&walRound{Items: []walRoundItem{{Key: 1, FromSeq: 1, Len: n}}},
		&walReport{JobID: 1, Key: 1, Bytes: n, Partial: wire.Held{Bytes: result}},
	} {
		recs = append(recs, wal.Record{Type: rec.typ(), Payload: encodeWAL(b, rec)})
	}
	b.SetBytes(n)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		fold := NewWALFold()
		for _, rec := range recs {
			if err := fold.Apply(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(n), "B/raw-B")
}

// TestRecordBoundIsOnRawBytes: the log's record bound holds on raw bytes,
// however well they code. Submit refuses an input past it, and no record
// whose payload decodes past it is framed (TestWALHostileRecords holds
// that none decodes).
func TestRecordBoundIsOnRawBytes(t *testing.T) {
	big := bytes.Repeat([]byte("7\n"), walMaxPayload/2+1) // a bit a byte coded: an eighth of the bound
	m := startMaster(t, Config{WAL: openWAL(t, t.TempDir(), wal.Options{Sync: wal.SyncNone})})
	if _, err := m.Submit(tasks.PrimeCount{}, big, true); !errors.Is(err, wal.ErrTooLarge) {
		t.Errorf("submitting %d bytes: %v, want wal.ErrTooLarge", len(big), err)
	}
	if m.PendingItems() != 0 {
		t.Error("the refused input was queued")
	}
	if _, err := walFrame(&walReport{JobID: 1, Key: 1, Bytes: 1, Partial: wire.Held{Bytes: big}}); !errors.Is(err, wal.ErrTooLarge) {
		t.Errorf("framing a report of %d bytes: %v, want wal.ErrTooLarge", len(big), err)
	}
}

// TestEachResultIsLoggedOnce: what a phone returned is logged once, in
// its report record. A job's result is its partials folded as they are
// credited — live, and again by a master recovered from the log — so an
// atomic job's result, which is its one partial, appears in exactly one
// record. Records are decoded to be searched: a result is logged coded.
func TestEachResultIsLoggedOnce(t *testing.T) {
	dir := t.TempDir()
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
	m := startMaster(t, Config{WAL: wl})
	for i := 0; i < 3; i++ {
		go autoResponder(dialFake(t, m, "Nexus S", 1000))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 3); err != nil {
		t.Fatal(err)
	}
	img, err := tasks.GenImageKB(16, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	blurID, err := m.Submit(tasks.Blur{}, img, true)
	if err != nil {
		t.Fatal(err)
	}
	primesID, err := m.Submit(tasks.PrimeCount{}, numberLines(1, 6000), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	blurred, ok := m.Result(blurID)
	if !ok || len(blurred) == 0 {
		t.Fatalf("blur job %d did not finish", blurID)
	}
	primes, ok := m.Result(primesID)
	if !ok {
		t.Fatalf("primecount job %d did not finish", primesID)
	}
	m.Close()
	wl.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments %v (%v)", segs, err)
	}
	var holding []uint8
	split := 0 // the primecount job's report records
	for _, seg := range segs {
		recs, _, err := wal.ScanSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			rec, err := decodeWAL(r)
			if err != nil {
				t.Fatal(err)
			}
			if slices.ContainsFunc(heldBytes(reflect.ValueOf(rec)), func(b []byte) bool { return bytes.Contains(b, blurred) }) {
				holding = append(holding, r.Type)
			}
			if rep, ok := rec.(*walReport); ok && rep.JobID == primesID {
				split++
			}
		}
	}
	if split < 2 {
		t.Fatalf("the primecount job was credited by %d report records; the scenario wants it split", split)
	}
	if len(holding) != 1 || holding[0] != walRecReport {
		t.Errorf("the blur result's bytes are in records of types %v, want one report record", holding)
	}

	r := startMaster(t, Config{WAL: openWAL(t, dir, wal.Options{Sync: wal.SyncNone})})
	if err := r.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[int][]byte{blurID: blurred, primesID: primes} {
		if got, ok := r.Result(id); !ok || !bytes.Equal(got, want) {
			t.Errorf("recovered job %d = %.20q (%v), want %.20q", id, got, ok, want)
		}
	}
}

// A recovered master holds each result as its report record held it,
// coded where the record was: the compaction it runs writes each section
// through byte for byte, and Result decodes it to what the live master
// returned.
func TestRecoveredCompactionWritesResultsThrough(t *testing.T) {
	const jobs = 6
	dir := t.TempDir()
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
	m := startMaster(t, Config{WAL: wl})
	go autoResponder(dialFake(t, m, "Nexus S", 1000))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	want := map[int][]byte{}
	var ids []int
	for range jobs {
		img, err := tasks.GenImageKB(8, rng)
		if err != nil {
			t.Fatal(err)
		}
		id, err := m.Submit(tasks.Blur{}, img, true)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for round := 0; round < 10 && len(want) < jobs; round++ {
		if _, err := m.RunRound(ctx); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if res, ok := m.Result(id); ok {
				want[id] = res
			}
		}
	}
	if len(want) != jobs {
		t.Fatalf("%d of %d jobs finished", len(want), jobs)
	}
	m.Close()
	wl.Close()

	// reports maps each job to its report record's section in the files.
	reports := func(pattern string) map[int]wire.Held {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil || len(files) == 0 {
			t.Fatalf("no %s in %s (%v)", pattern, dir, err)
		}
		out := map[int]wire.Held{}
		for _, file := range files {
			recs, _, err := wal.ScanSegment(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				rec, err := decodeWAL(r)
				if err != nil {
					t.Fatal(err)
				}
				if rep, ok := rec.(*walReport); ok {
					out[rep.JobID] = rep.Partial
				}
			}
		}
		return out
	}
	logged := reports("wal-*.log")
	coded := 0
	for _, p := range logged {
		if p.N != 0 {
			coded++
		}
	}
	if len(logged) != jobs || coded == 0 {
		t.Fatalf("%d of %d jobs logged a report, %d of them coded; the scenario wants coded results", len(logged), jobs, coded)
	}

	r := startMaster(t, Config{WAL: openWAL(t, dir, wal.Options{Sync: wal.SyncNone})})
	if err := r.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	r.do(func() {
		for id, p := range logged {
			if got := r.jobs[id].Result; got.N != p.N || !bytes.Equal(got.Bytes, p.Bytes) {
				t.Errorf("recovered job %d holds %d bytes (raw %d), not the %d logged (raw %d)", id, len(got.Bytes), got.N, len(p.Bytes), p.N)
			}
		}
	})
	if err := r.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	cut := reports("snapshot-*.wal")
	for id, p := range logged {
		if got := cut[id]; got.N != p.N || !bytes.Equal(got.Bytes, p.Bytes) {
			t.Errorf("job %d's cut report holds %d bytes (raw %d), not the %d logged (raw %d)", id, len(got.Bytes), got.N, len(p.Bytes), p.N)
		}
	}
	for id, res := range want {
		if got, ok := r.Result(id); !ok || !bytes.Equal(got, res) {
			t.Errorf("recovered job %d = %.20q (%v), want %.20q", id, got, ok, res)
		}
	}
}

func TestWALSubmitAckGatedOnAppend(t *testing.T) {
	// A disk that refuses every write: Submit must refuse the job rather
	// than acknowledge something the log did not take.
	wl := openWAL(t, t.TempDir(), wal.Options{
		Sync: wal.SyncAlways,
		WriterHook: func(w io.Writer) io.Writer {
			return faults.NewWriter(w, faults.WriteProfile{Seed: 1, ErrProb: 1})
		},
	})
	m := startMaster(t, Config{WAL: wl})
	if _, err := m.Submit(tasks.PrimeCount{}, []byte("2\n"), false); err == nil {
		t.Fatal("Submit acknowledged a job the WAL rejected")
	}
	if n := m.PendingItems(); n != 0 {
		t.Fatalf("rejected submission left %d pending items", n)
	}
}

// TestWALRecoverResumesInFlightStreamedCheckpoint: the master is killed
// mid-round, after it folded (and logged, ahead of the ack) a streamed
// checkpoint for a partition that never reports. Nothing but the WAL
// survives. A fresh master recovered from it re-ships the range at its
// first scheduling instant with exactly the folded offset and state, and
// the job finishes with the fault-free answer.
func TestWALRecoverResumesInFlightStreamedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	a := startMaster(t, Config{WAL: wl})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	input := numberLines(1, 2000)
	want := groundTruth(t, tasks.PrimeCount{}, input)
	id, err := a.Submit(tasks.PrimeCount{}, input, true)
	if err != nil {
		t.Fatal(err)
	}

	// The phone streams one checkpoint, sees it acknowledged, and then
	// sits on the assignment: the range is in flight when the master dies.
	folded := make(chan *tasks.Checkpoint, 1)
	go scriptedPhone(dialFake(t, a, "HTC G2", 806), func(f *fakePhone, msg *protocol.Message) {
		if ck := streamCheckpoint(f, msg); ck != nil {
			folded <- ck
		}
	})
	roundDone := make(chan struct{})
	go func() {
		defer close(roundDone)
		_, _ = a.RunRound(ctx)
	}()
	var ck *tasks.Checkpoint
	select {
	case ck = <-folded:
	case <-ctx.Done():
		t.Fatal("the streamed checkpoint was never acknowledged")
	}
	if a.StreamedCheckpoints() != 1 {
		t.Fatalf("master folded %d streamed checkpoints, want 1", a.StreamedCheckpoints())
	}
	a.Kill()
	<-roundDone
	wl.Close()

	wl2 := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	b := startMaster(t, Config{WAL: wl2})
	if err := b.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if b.PendingItems() != 1 {
		t.Fatalf("recovered pending = %d, want the in-flight range", b.PendingItems())
	}
	reshipped := make(chan *protocol.Message, 1)
	go scriptedPhone(dialFake(t, b, "Nexus S", 1000), func(f *fakePhone, msg *protocol.Message) {
		select {
		case reshipped <- msg:
		default:
		}
		replyResult(f, msg)
	})
	if _, err := b.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	first := <-reshipped
	if first.JobID != id || first.Resume == nil || first.Resume.Offset != ck.Offset ||
		!bytes.Equal(first.Resume.State, ck.State) {
		t.Fatalf("first assign after recovery resumes from %+v, want the folded checkpoint %+v", first.Resume, ck)
	}
	if got, ok := b.Result(id); !ok || !bytes.Equal(got, want) {
		t.Fatalf("recovered result = %q %v, want %q", got, ok, want)
	}
}

// gateWriter fails every write while its gate is set; Syncs pass through.
type gateWriter struct {
	w    io.Writer
	fail *atomic.Bool
}

func (g *gateWriter) Write(b []byte) (int, error) {
	if g.fail.Load() {
		return 0, errors.New("injected write error")
	}
	return g.w.Write(b)
}

// typeSink is a ReplicaSink that keeps the type of every record shipped.
type typeSink struct {
	mu   sync.Mutex
	typs []uint8
}

func (s *typeSink) Lag() int64 { return 0 }
func (s *typeSink) DropAll()   {}

func (s *typeSink) Ship(f *wal.Frame) {
	rec, _, err := wal.NewStreamReader(bytes.NewReader(f.Bytes())).Next()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		s.typs = append(s.typs, rec.Type)
	}
}

func (s *typeSink) shipped() []uint8 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.typs)
}

// A master killed mid-round writes nothing once Kill begins: its round
// hands no range back (no migrate record, no retry spent) and compacts
// nothing, before Kill returns or after. Recovery finds the ranges as a
// SIGKILL leaves them: open, with every retry still to spend.
func TestKillWritesNothing(t *testing.T) {
	dir := t.TempDir()
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
	sink := &typeSink{}
	m := startMaster(t, Config{WAL: wl, ReplicaSink: sink, KeepalivePeriod: time.Hour})
	f := dialFake(t, m, "HTC G2", 806) // acks nothing
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.take(false).est.SetProfile("primecount", 0.01); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if _, err := m.Submit(tasks.PrimeCount{}, numberLines(100*j+1, 100*j+100), true); err != nil {
			t.Fatal(err)
		}
	}
	roundDone := make(chan struct{})
	go func() {
		defer close(roundDone)
		_, _ = m.RunRound(ctx)
	}()
	// Two assignments out (one running, one prefetched), the third queued.
	for k := 0; k < 2; k++ {
		if msg := f.recv(); msg.Type != protocol.TypeAssign {
			t.Fatalf("phone got %s, want an assignment", msg.Type)
		}
	}
	shipped, logged := len(sink.shipped()), wl.LogBytes()
	m.Kill()
	after := sink.shipped()[shipped:]
	<-roundDone
	if late := sink.shipped()[shipped:]; len(after) > 0 || len(late) > 0 {
		t.Errorf("records shipped after Kill began: %v before it returned, %v in all", after, late)
	}
	if got := wl.LogBytes(); got != logged {
		t.Errorf("log holds %d bytes after Kill, %d before", got, logged)
	}
	wl.Close()

	b := New(Config{WAL: openWAL(t, dir, wal.Options{Sync: wal.SyncNone})})
	if err := b.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	var open map[int64]*walItemRec
	b.do(func() { open = maps.Clone(b.open) })
	if len(open) != 3 {
		t.Fatalf("recovered %d open ranges, want 3", len(open))
	}
	for key, e := range open {
		if e.Retries != 0 {
			t.Errorf("range %d recovered with %d retries spent, want 0", key, e.Retries)
		}
	}
}

func TestRoundRecordFailureAbortsRound(t *testing.T) {
	// A round whose walRecRound append fails must abort before anything
	// is dispatched: continuing would leave report records in the log
	// with no round record ahead of them, double-counting coverage on
	// replay. The items go back to pending and the next round succeeds.
	dir := t.TempDir()
	var gate atomic.Bool
	wl := openWAL(t, dir, wal.Options{
		Sync:       wal.SyncAlways,
		WriterHook: func(w io.Writer) io.Writer { return &gateWriter{w: w, fail: &gate} },
	})
	m := startMaster(t, Config{WAL: wl})
	id, err := m.Submit(tasks.PrimeCount{}, []byte("2\n3\n4\n5\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	f := dialFake(t, m, "HTC G2", 806)
	go autoResponder(f)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	gate.Store(true)
	if _, err := m.RunRound(ctx); err == nil {
		t.Fatal("round with an unloggable round record should abort")
	}
	if n := m.PendingItems(); n != 1 {
		t.Fatalf("aborted round left %d pending items, want 1", n)
	}
	if _, ok := m.Result(id); ok {
		t.Fatal("aborted round produced a result")
	}

	gate.Store(false)
	if _, err := m.RunRound(ctx); err != nil {
		t.Fatalf("round after WAL recovered: %v", err)
	}
	want, ok := m.Result(id)
	if !ok {
		t.Fatal("job did not complete after retry")
	}
	m.Close()
	wl.Close()

	// The log must replay cleanly: the abort-time compaction folded the
	// un-logged state so no orphaned records remain.
	wl2 := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	r := startMaster(t, Config{WAL: wl2})
	if err := r.RecoverWAL(); err != nil {
		t.Fatalf("replay after aborted round: %v", err)
	}
	got, ok := r.Result(id)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("recovered result = %q %v, want %q", got, ok, want)
	}
}

// TestWALCrashRecoveryEveryTruncation is the kill-anywhere acceptance
// harness: record a full run's WAL (spanning a compaction, an induced
// phone failure, and three jobs), then simulate a master killed at every
// record boundary — and inside records — of the live segment by
// truncating a copy. Every truncation must recover: no acknowledged
// submission lost, and every job that finishes again produces aggregates
// byte-identical to the uncrashed run. The live segment holds a job split
// at least three ways and a range that migrates, so cuts land between a
// record that defines a byte range and the records that refer to it.
//
// The run is recorded twice: the failure is credited before the round's
// results in one and after them in the other, so its migration record
// lands first among them and last. Left to the scheduler, that order — and
// with it every later record boundary — varies from run to run. Every cut
// of either log is applied to both.
func TestWALCrashRecoveryEveryTruncation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	runs := []crashRun{recordCrashRun(t, ctx, true), recordCrashRun(t, ctx, false)}
	if len(runs[0].seg) != len(runs[1].seg) {
		t.Fatalf("live segments of %d and %d bytes; the orderings must log the same records",
			len(runs[0].seg), len(runs[1].seg))
	}
	for id, res := range runs[0].want {
		if !bytes.Equal(runs[1].want[id], res) {
			t.Fatalf("job %d aggregate depends on report order: %q vs %q", id, res, runs[1].want[id])
		}
	}

	// Kill points: the empty log, the end of every record, and a point
	// inside every record (a torn tail); each is applied to both logs. A
	// round's reports are credited in the order they arrive and need not be
	// the same size, so a point is found by its record, not by its offset.
	// It keeps the name it had when the log framed its records in JSON and
	// offsets did not vary: cut=<its offset in that log>. A record that
	// ends at different offsets in the two logs gives a kill point at each.
	if len(runs[0].bounds) != len(jsonEnds) || len(runs[1].bounds) != len(jsonEnds) {
		t.Fatalf("live segments of %d and %d records; the kill points name %d",
			len(runs[0].bounds), len(runs[1].bounds), len(jsonEnds))
	}
	kill := func(name string, cuts ...int64) {
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		t.Run(name, func(t *testing.T) {
			for _, r := range runs {
				t.Run(r.name, func(t *testing.T) {
					for _, cut := range cuts {
						t.Logf("killed at byte %d of %d", cut, len(r.seg))
						r.recoverAt(t, ctx, cut)
					}
				})
			}
		})
	}
	kill("cut=0", 0)
	for i, ends := range jsonEnds {
		for _, back := range []int64{3, 0} { // 3 bytes back lands inside the record
			if ends[0] == ends[1] {
				kill(fmt.Sprintf("cut=%d", ends[0]-back), runs[0].bounds[i]-back, runs[1].bounds[i]-back)
				continue
			}
			for j, r := range runs {
				kill(fmt.Sprintf("cut=%d", ends[j]-back), r.bounds[i]-back)
			}
		}
	}
}

// jsonEnds[i] holds where record i of the kill-anywhere harness's live
// segment ended, in its failure-first and its failure-last log, when the
// log framed its records in JSON. The harness still names its kill points
// by these offsets. Records 4 to 6 are the round whose migration record
// the two logs place differently.
var jsonEnds = [][2]int64{
	{10489, 10489}, {10917, 10917}, {10962, 10962}, {11171, 11171},
	{11245, 11235}, {11309, 11299}, {11373, 11363},
	{11437, 11437}, {11497, 11497}, {11561, 11561},
}

// crashRun is one recorded run of the kill-anywhere harness: its snapshot
// and live segment, the jobs the snapshot holds, the segment's record
// boundaries, where each job's submit record ends, and the uncrashed
// run's aggregates.
type crashRun struct {
	name              string
	snapName, segName string
	snap, seg         []byte
	snapJobs          []int
	bounds            []int64
	submitEnd         map[int]int64
	want              map[int][]byte
}

// recordCrashRun records the harness's run, with the flaky phone's failure
// credited before every result of its round if failFirst, else after them.
func recordCrashRun(t *testing.T, ctx context.Context, failFirst bool) crashRun {
	t.Helper()
	dir := t.TempDir()
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	a := startMaster(t, Config{WAL: wl})

	// A held reply waits until the master has no attempt out on the flaky
	// phone (onFlaky) or on the others; each attempt is dropped in the step
	// that credits it, which logs its record.
	const flakyModel = "Nexus S"
	none := func(onFlaky bool) func() {
		return func() {
			for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
				busy := false
				a.do(func() {
					for _, rec := range a.attempts {
						busy = busy || (rec.ps.info.Model == flakyModel) == onFlaky
					}
				})
				if !busy {
					return
				}
			}
		}
	}
	var holdOthers, holdFlaky func()
	name := "failure-last"
	if failFirst {
		name, holdOthers = "failure-first", none(true)
	} else {
		holdFlaky = none(false)
	}
	for i := 0; i < 3; i++ {
		go respond(dialFake(t, a, "HTC G2", 806), false, holdOthers)
	}

	// Deterministic workloads: counting aggregates are independent of how
	// the input is partitioned or re-partitioned after a crash.
	primesIn := numberLines(1, 200)
	wordsIn := []byte(strings.Repeat("storm sale inventory sale\n", 400))
	maxIn := []byte(strings.Repeat("7\n3\n9001\n14\n", 30))

	id1, err := a.Submit(tasks.PrimeCount{}, primesIn, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	// Fold the first job into a snapshot: recovery must now compose
	// snapshot + live log.
	if err := a.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	id2, err := a.Submit(tasks.WordCount{Word: "sale"}, wordsIn, false)
	if err != nil {
		t.Fatal(err)
	}
	id3, err := a.Submit(tasks.MaxInt{}, maxIn, false)
	if err != nil {
		t.Fatal(err)
	}
	// A phone that fails mid-round: its partition migrates through a
	// walRecMigrate record in the live segment.
	go respond(dialFake(t, a, flakyModel, 1000), true, holdFlaky)

	ids := []int{id1, id2, id3}
	want := map[int][]byte{}
	for round := 0; round < 20 && len(want) < len(ids); round++ {
		if _, err := a.RunRound(ctx); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if res, ok := a.Result(id); ok {
				want[id] = res
			}
		}
	}
	if len(want) != len(ids) {
		t.Fatalf("uncrashed run finished %d of %d jobs", len(want), len(ids))
	}
	if len(a.DeadLetters()) != 0 {
		t.Fatalf("uncrashed run dead-lettered work: %+v", a.DeadLetters())
	}
	a.Close()
	wl.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one live segment, got %v (%v)", segs, err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.wal"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want exactly one snapshot, got %v (%v)", snaps, err)
	}
	segBytes, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	snapBytes, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	recs, bounds, err := wal.ScanSegment(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("live segment is empty; harness is vacuous")
	}

	snapRecs, _, err := wal.ScanSegment(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	var snapJobs []int
	for _, r := range snapRecs {
		if r.Type == walRecJob {
			var j walCutJob
			if err := wire.Decode(r.Payload, &j); err != nil {
				t.Fatal(err)
			}
			snapJobs = append(snapJobs, j.ID)
		}
	}
	submitEnd := map[int]int64{}
	sawTypes := map[uint8]bool{}
	widestSplit := 0
	for i, r := range recs {
		sawTypes[r.Type] = true
		switch r.Type {
		case walRecSubmit:
			var p walSubmit
			if err := wire.Decode(r.Payload, &p); err != nil {
				t.Fatal(err)
			}
			submitEnd[p.JobID] = bounds[i]
		case walRecRound:
			var p walRound
			if err := wire.Decode(r.Payload, &p); err != nil {
				t.Fatal(err)
			}
			pieces := map[int64]int{}
			for _, it := range p.Items {
				if it.FromSeq != 0 {
					pieces[it.FromSeq]++
					widestSplit = max(widestSplit, pieces[it.FromSeq])
				}
			}
		}
	}
	if widestSplit < 3 {
		t.Fatalf("widest split in the live segment is %d-way, want at least 3", widestSplit)
	}
	for _, typ := range []uint8{walRecSubmit, walRecRound, walRecReport, walRecMigrate} {
		if !sawTypes[typ] {
			t.Fatalf("live segment never exercised record type %d (types seen: %v)", typ, sawTypes)
		}
	}
	// First among its round's records, the migration follows the round
	// record; last, the next round record follows it.
	mi := slices.IndexFunc(recs, func(r wal.Record) bool { return r.Type == walRecMigrate })
	ordered := mi > 0 && recs[mi-1].Type == walRecRound
	if !failFirst {
		ordered = mi+1 < len(recs) && recs[mi+1].Type == walRecRound
	}
	if !ordered {
		t.Fatalf("%s: the migration record is not where the held replies put it (record %d of %d)", name, mi, len(recs))
	}
	return crashRun{name: name, snapName: filepath.Base(snaps[0]), segName: filepath.Base(segs[0]),
		snap: snapBytes, seg: segBytes, snapJobs: snapJobs, bounds: bounds, submitEnd: submitEnd, want: want}
}

// recoverAt restarts a master from r's log cut at byte cut, as if killed
// there: no acknowledged job may be lost, and every job must finish again
// with the uncrashed run's aggregate.
func (r crashRun) recoverAt(t *testing.T, ctx context.Context, cut int64) {
	cdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(cdir, r.snapName), r.snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cdir, r.segName), r.seg[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	cwl := openWAL(t, cdir, wal.Options{Sync: wal.SyncAlways})
	m := startMaster(t, Config{WAL: cwl})
	if err := m.RecoverWAL(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}

	// Jobs acknowledged before the cut: those in the snapshot plus those
	// whose submit record survives the truncation whole.
	known := map[int]bool{}
	for _, id := range r.snapJobs {
		known[id] = true
	}
	for id, end := range r.submitEnd {
		if end <= cut {
			known[id] = true
		}
	}
	lost := -1
	m.do(func() {
		for id := range known {
			if _, ok := m.jobs[id]; !ok {
				lost = id
				return
			}
		}
	})
	if lost >= 0 {
		t.Fatalf("acknowledged job %d lost", lost)
	}

	unfinished := 0
	for id := range known {
		if _, ok := m.Result(id); !ok {
			unfinished++
		}
	}
	if unfinished > 0 {
		p := dialFake(t, m, "HTC G2", 806)
		go autoResponder(p)
		for round := 0; round < 20 && unfinished > 0; round++ {
			if _, err := m.RunRound(ctx); err != nil {
				t.Fatalf("post-recovery round: %v", err)
			}
			unfinished = 0
			for id := range known {
				if _, ok := m.Result(id); !ok {
					unfinished++
				}
			}
		}
		if unfinished > 0 {
			t.Fatalf("%d recovered jobs never finished", unfinished)
		}
	}
	for id := range known {
		got, _ := m.Result(id)
		if !bytes.Equal(got, r.want[id]) {
			t.Fatalf("job %d aggregate = %q, want %q (byte-identical to uncrashed run)", id, got, r.want[id])
		}
	}
}
