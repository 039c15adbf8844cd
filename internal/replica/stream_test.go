package replica

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cwc/internal/protocol"
	"cwc/internal/server"
	"cwc/internal/tasks"
	"cwc/internal/wal"
	"cwc/internal/wire"
)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// captureSink records every record a primary ships: each frame
// verbatim, and its type and payload as a standby reads them back.
type captureSink struct {
	mu     sync.Mutex
	typs   []uint8
	recs   [][]byte
	frames [][]byte
	drops  int
}

func (c *captureSink) Ship(f *wal.Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, frame, err := wal.NewStreamReader(bytes.NewReader(f.Bytes())).Next()
	if err != nil {
		panic(fmt.Sprintf("shipped frame %d does not read back: %v", len(c.frames), err))
	}
	c.typs = append(c.typs, rec.Type)
	c.recs = append(c.recs, rec.Payload)
	c.frames = append(c.frames, frame)
}

func (c *captureSink) DropAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drops++
}

func (c *captureSink) Lag() int64 { return 0 }

// streamPhone is a minimal worker for the primary that generates the
// test stream: it registers, then answers every assignment with the
// task's real result — except that a flaky phone fails its first real
// assignment outright, so the range migrates.
func streamPhone(t *testing.T, addr string, flaky bool) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	conn := protocol.NewConn(raw)
	if err := conn.Send(&protocol.Message{Type: protocol.TypeHello, Model: "Nexus S", CPUMHz: 1000, RAMMB: 512}); err != nil {
		t.Fatal(err)
	}
	welcome, err := conn.Recv()
	if err != nil || welcome.Type != protocol.TypeWelcome {
		t.Fatalf("expected welcome, got %+v (%v)", welcome, err)
	}
	epoch := welcome.Epoch
	go func() {
		for {
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			if msg.Type != protocol.TypeAssign {
				continue
			}
			if flaky && msg.JobID != 0 {
				flaky = false
				_ = conn.Send(&protocol.Message{Type: protocol.TypeFailure, JobID: msg.JobID,
					Partition: msg.Partition, Attempt: msg.Attempt, Epoch: epoch, Error: "induced crash"})
				continue
			}
			task, err := tasks.New(msg.Task, msg.Params)
			if err != nil {
				return
			}
			var ck tasks.Checkpoint
			if msg.Resume != nil {
				ck = *msg.Resume
			}
			res, err := task.Process(context.Background(), msg.Input, &ck)
			if err != nil {
				return
			}
			_ = conn.Send(&protocol.Message{Type: protocol.TypeResult, JobID: msg.JobID,
				Partition: msg.Partition, Attempt: msg.Attempt, Epoch: epoch, Result: res,
				Digest: tasks.Digest(res), ExecMs: 1, ProcessedKB: float64(len(msg.Input)) / 1024})
		}
	}()
}

// TestStandbyTornStreamEveryCut feeds a standby a real replication
// stream (the cut's header frame and records, then records captured
// from a live primary) truncated at every byte offset, and asserts the
// standby applies exactly the records whose frames arrived whole — a
// torn record is never folded and never reaches the standby's log, and
// a cut reaches it whole or not at all — with the follow loop ending in
// a resync-able error, never a false success. The stream
// carries a job split three ways and a range that migrates, so cuts land
// between a record that defines a byte range and the records that name
// it by reference.
func TestStandbyTornStreamEveryCut(t *testing.T) {
	// A real primary generates the stream: bump the epoch, cut a
	// snapshot, then submit jobs so records ship after the cut.
	sink := &captureSink{}
	pwl, err := wal.Open(filepath.Join(t.TempDir(), "primary"), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer pwl.Close()
	m := server.New(server.Config{Addr: "127.0.0.1:0", WAL: pwl, ReplicaSink: sink})
	if err := m.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	var cutFrames frames
	m.ReplicaSnapshot(func(c *server.Cut) {
		if _, err := c.WriteTo(&cutFrames); err != nil {
			t.Fatal(err)
		}
	})
	sink.mu.Lock()
	cutIdx := len(sink.recs)
	sink.mu.Unlock()
	task, err := tasks.New("primecount", nil)
	if err != nil {
		t.Fatal(err)
	}
	var numbers []byte
	for i := 1; i <= 850; i++ {
		numbers = fmt.Appendf(numbers, "%d\n", i)
	}
	ctx := context.Background()
	streamPhone(t, m.Addr(), false)
	streamPhone(t, m.Addr(), false)
	streamPhone(t, m.Addr(), true)
	if err := m.WaitForPhones(ctx, 3); err != nil {
		t.Fatal(err)
	}
	// One job at a time: alone in its round, the breakable one is cut
	// across all three phones.
	for _, job := range []struct {
		input  []byte
		atomic bool
	}{{numbers, false}, {[]byte("13\n17\n19\n"), true}} {
		id, err := m.Submit(task, job.input, job.atomic)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 5; round++ {
			if _, done := m.Result(id); done {
				break
			}
			if _, err := m.RunRound(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if _, done := m.Result(id); !done {
			t.Fatalf("job %d never finished", id)
		}
	}

	head, err := wire.Encode(new(wire.Codec), 0, &cutHeader{Records: len(cutFrames)})
	if err != nil {
		t.Fatal(err)
	}
	stream := wal.EncodeRecord(recSnapshot, head)
	boundaries := []int{len(stream)} // offsets at which a whole frame ends
	for _, f := range cutFrames {
		stream = append(stream, f...)
		boundaries = append(boundaries, len(stream))
	}
	saw := map[uint8]int{}
	sink.mu.Lock()
	for i := cutIdx; i < len(sink.recs); i++ {
		saw[sink.typs[i]]++
		stream = append(stream, wal.EncodeRecord(sink.typs[i], sink.recs[i])...)
		boundaries = append(boundaries, len(stream))
	}
	sink.mu.Unlock()
	// Types as server/wal.go numbers them: 2 submits, the three-way round
	// plus the migrated range's and the second job's, a report per piece
	// and one for the second job, a migrate. (A job's result is derived
	// from its reports, never logged.)
	if saw[1] != 2 || saw[2] < 3 || saw[4] < 4 || saw[6] < 1 {
		t.Fatalf("stream record types %v: want a 3-way split and a migrate", saw)
	}

	for cut := 0; cut <= len(stream); cut++ {
		whole := 0
		for _, b := range boundaries {
			if b <= cut {
				whole++
			}
		}
		wantApplied := int64(0)
		if whole > 0 {
			wantApplied = int64(whole - 1) // minus the cut's header frame
		}
		// The log takes the cut only once all of it arrived.
		installed := wantApplied >= int64(len(cutFrames))
		wantLogged := wantApplied
		if !installed {
			wantLogged = 0
		}

		dir := filepath.Join(t.TempDir(), "standby")
		wl, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		fold := server.NewWALFold()
		s := New(StandbyOptions{Lease: time.Minute})
		us, them := net.Pipe()
		go func() {
			them.Write(stream[:cut])
			them.Close()
		}()
		lastHeard := time.Now()
		err = s.follow(ctx, us, wl, fold, &lastHeard)
		us.Close()

		if fold.Applied() != wantApplied {
			t.Fatalf("cut %d: folded %d records, want %d", cut, fold.Applied(), wantApplied)
		}
		atBoundary := cut == 0
		for _, b := range boundaries {
			if cut == b {
				atBoundary = true
			}
		}
		switch {
		case errors.Is(err, errStandbyWAL):
			t.Fatalf("cut %d: local log failure from a torn stream: %v", cut, err)
		case atBoundary && !errors.Is(err, io.EOF):
			t.Fatalf("cut %d (frame boundary): err %v, want io.EOF", cut, err)
		case !atBoundary && !errors.Is(err, io.ErrUnexpectedEOF):
			t.Fatalf("cut %d (mid-frame): err %v, want ErrUnexpectedEOF", cut, err)
		}
		if installed && fold.Epoch() != 1 {
			t.Fatalf("cut %d: fold epoch %d, want 1 from the primary's cut", cut, fold.Epoch())
		}

		// The standby's own log must hold exactly the applied records:
		// reopen it the way promotion would and count what recovery sees.
		if err := wl.Close(); err != nil {
			t.Fatal(err)
		}
		wl2, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
		if err != nil {
			t.Fatalf("cut %d: reopening standby log: %v", cut, err)
		}
		if got := int64(len(wl2.Recovered())); got != wantLogged {
			t.Fatalf("cut %d: standby log holds %d records, want %d", cut, got, wantLogged)
		}
		if snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.wal")); (len(snaps) > 0) != installed {
			t.Fatalf("cut %d: standby log snapshots %v, want one %v", cut, snaps, installed)
		}
		wl2.Close()
	}
}

// TestStandbyFoldsCodedRecordsOnce: a shipped submit carries its input
// coded, and the standby's fold keeps it as it came, where the frame it
// came in holds it: checked, never unpacked, never copied. Following N
// such records costs the standby their shipped bytes, not their raw
// bytes, and not a copy of their frames too.
func TestStandbyFoldsCodedRecordsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	const jobs = 16
	sink := &captureSink{}
	pwl, err := wal.Open(filepath.Join(t.TempDir(), "primary"), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer pwl.Close()
	m := server.New(server.Config{Addr: "127.0.0.1:0", WAL: pwl, ReplicaSink: sink})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	var cutFrames frames
	m.ReplicaSnapshot(func(c *server.Cut) {
		if _, err := c.WriteTo(&cutFrames); err != nil {
			t.Fatal(err)
		}
	})
	task := tasks.WordCount{Word: "sale"}
	rng := rand.New(rand.NewSource(3))
	raw, shipped := 0, 0
	for range jobs {
		input := tasks.GenText(512, rng)
		if _, err := m.Submit(task, input, false); err != nil {
			t.Fatal(err)
		}
		raw += len(input)
	}
	m.Close() // it has shipped all it will: nothing else allocates while the standby follows
	head, err := wire.Encode(new(wire.Codec), 0, &cutHeader{Records: len(cutFrames)})
	if err != nil {
		t.Fatal(err)
	}
	stream := wal.EncodeRecord(recSnapshot, head)
	for _, f := range cutFrames {
		stream = append(stream, f...)
	}
	sink.mu.Lock()
	for _, f := range sink.frames {
		stream = append(stream, f...)
		shipped += len(f)
	}
	sink.mu.Unlock()
	if len(sink.frames) != jobs || shipped > raw*6/10 {
		t.Fatalf("%d records shipped in %d bytes for %d jobs of %d bytes; want one each, coded", len(sink.frames), shipped, jobs, raw)
	}

	wl, err := wal.Open(filepath.Join(t.TempDir(), "standby"), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer wl.Close()
	fold := server.NewWALFold()
	s := New(StandbyOptions{Lease: time.Minute})
	us, them := net.Pipe()
	defer us.Close()
	go func() {
		them.Write(stream)
		them.Close()
	}()
	lastHeard := time.Now()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = s.follow(context.Background(), us, wl, fold, &lastHeard)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) || fold.Applied() != int64(len(cutFrames)+jobs) {
		t.Fatalf("followed the stream to %v with %d records folded, want io.EOF and %d", err, fold.Applied(), len(cutFrames)+jobs)
	}
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.1*float64(shipped) {
		t.Errorf("following %d coded submits of %d bytes raw (%d shipped) allocated %d bytes, want at most 1.1x shipped",
			jobs, raw, shipped, got)
	} else {
		t.Logf("following %d coded submits of %d bytes raw (%d shipped) allocated %d bytes: %.3fx shipped, %.3fx raw",
			jobs, raw, shipped, got, float64(got)/float64(shipped), float64(got)/float64(raw))
	}
}

// frames keeps each Write as a frame of its own: a Cut writes a record
// a Write.
type frames [][]byte

func (f *frames) Write(b []byte) (int, error) {
	*f = append(*f, bytes.Clone(b))
	return len(b), nil
}

// frameSizes counts the bytes of a Cut's frames and the largest frame.
type frameSizes struct{ total, largest int }

func (s *frameSizes) Write(b []byte) (int, error) {
	s.total += len(b)
	s.largest = max(s.largest, len(b))
	return len(b), nil
}

// runJobs submits each input as its own primecount job (the first
// breakable, the rest atomic) and runs rounds until it has a result.
func runJobs(ctx context.Context, t *testing.T, m *server.Master, inputs ...[]byte) {
	t.Helper()
	task, err := tasks.New("primecount", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, input := range inputs {
		id, err := m.Submit(task, input, i > 0)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 5; round++ {
			if _, done := m.Result(id); done {
				break
			}
			if _, err := m.RunRound(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if _, done := m.Result(id); !done {
			t.Fatalf("job %d never finished", id)
		}
	}
}

func numbers(n int) []byte {
	var b []byte
	for i := 1; i <= n; i++ {
		b = fmt.Appendf(b, "%d\n", i)
	}
	return b
}

// TestShippedBytesAreLoggedBytes: a primary ships each record as the
// frame its log took, CRC included, so the shipped frames, concatenated,
// are its segment file byte for byte.
func TestShippedBytesAreLoggedBytes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "primary")
	pwl, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer pwl.Close()
	sink := &captureSink{}
	m := server.New(server.Config{Addr: "127.0.0.1:0", WAL: pwl, ReplicaSink: sink})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	streamPhone(t, m.Addr(), false)
	streamPhone(t, m.Addr(), true)
	if err := m.WaitForPhones(ctx, 2); err != nil {
		t.Fatal(err)
	}
	runJobs(ctx, t, m, numbers(850), []byte("13\n17\n19\n"))
	m.Close()
	if err := pwl.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v), want one: this primary never compacts", segs, err)
	}
	logged, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	shipped := bytes.Join(sink.frames, nil)
	if len(sink.frames) < 8 || !bytes.Equal(shipped, logged) {
		t.Fatalf("%d shipped frames (%d bytes) are not the %d logged bytes", len(sink.frames), len(shipped), len(logged))
	}
}

// reportLosingDisk refuses the first report record written through any
// segment it wraps.
type reportLosingDisk struct {
	w    io.Writer
	lost *atomic.Bool
}

func (d *reportLosingDisk) Write(p []byte) (int, error) {
	// Type 4 is a report, as server/wal.go numbers records.
	if len(p) >= wal.RecordHeader && p[wal.RecordHeader-1] == 4 && d.lost.CompareAndSwap(false, true) {
		return 0, errors.New("disk refused the report")
	}
	return d.w.Write(p)
}

// TestStandbyResyncsWhenPrimaryReanchors: a primary whose disk loses a
// report record re-anchors its log on a snapshot cut before it writes
// again, and drops its standbys as it does, so each resyncs from a fresh
// cut. A standby left attached would keep the lost report's range open
// for good: no later record names that range, so nothing else makes it
// resync, and it would promote into a state its primary never had.
func TestStandbyResyncsWhenPrimaryReanchors(t *testing.T) {
	dir := t.TempDir()
	var lost atomic.Bool
	pwl, err := wal.Open(filepath.Join(dir, "primary"), wal.Options{Sync: wal.SyncNone,
		WriterHook: func(w io.Writer) io.Writer { return &reportLosingDisk{w: w, lost: &lost} }})
	if err != nil {
		t.Fatal(err)
	}
	defer pwl.Close()
	ship := NewShipper(ShipperOptions{})
	m := server.New(server.Config{Addr: "127.0.0.1:0", WAL: pwl, ReplicaSink: ship})
	ship.BindMaster(m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ship.Serve(ln)
	defer ship.Close()
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The standby follows, redialling whenever its stream drops, until
	// the shipper stops listening.
	swl, err := wal.Open(filepath.Join(dir, "standby"), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer swl.Close()
	fold := server.NewWALFold()
	st := New(StandbyOptions{Lease: time.Minute})
	var attaches atomic.Int32
	followed := make(chan error, 1)
	go func() {
		lastHeard := time.Now()
		for {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				followed <- nil
				return
			}
			attaches.Add(1)
			err = st.follow(ctx, conn, swl, fold, &lastHeard)
			conn.Close()
			if errors.Is(err, errStandbyWAL) {
				followed <- err
				return
			}
		}
	}()
	// The standby is attached before the disk loses the report, so it is
	// the re-anchor that drops it, not a first dial that comes late.
	for !attached(ship) {
		if ctx.Err() != nil {
			t.Fatal("no standby attached")
		}
		time.Sleep(10 * time.Millisecond)
	}

	streamPhone(t, m.Addr(), false)
	streamPhone(t, m.Addr(), false)
	if err := m.WaitForPhones(ctx, 2); err != nil {
		t.Fatal(err)
	}
	runJobs(ctx, t, m, numbers(850), []byte("13\n17\n19\n"))
	if !lost.Load() {
		t.Fatal("the disk lost no report; the script must lose one")
	}
	// Quiesce: a standby is attached and every frame shipped to it is on
	// its socket.
	for ship.Lag() > 0 || !attached(ship) {
		if ctx.Err() != nil {
			t.Fatal("no standby attached")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ship.Close()
	if err := <-followed; err != nil {
		t.Fatal(err)
	}

	var primary, standby bytes.Buffer
	m.ReplicaSnapshot(func(c *server.Cut) {
		if _, err := c.WriteTo(&primary); err != nil {
			t.Fatal(err)
		}
	})
	if err := fold.Snapshot(&standby); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(primary.Bytes(), standby.Bytes()) {
		t.Fatalf("standby diverged from its primary after %d attaches\n standby: %s\n primary: %s",
			attaches.Load(), standby.Bytes(), primary.Bytes())
	}
	if attaches.Load() < 2 {
		t.Fatal("the standby never resynced, so the primary never re-anchored its log")
	}
}

// TestStandbyAttachesToStateLargerThanARecord: a primary whose durable
// state outgrows the largest record a log or stream frame may hold —
// nine 8 MiB jobs, 72 MiB queued, against a 64 MiB bound — still
// attaches a standby. The cut travels as the primary's records, none
// larger than the submit it came from, so the standby folds and logs it
// whole, hears its primary's heartbeats and never promotes beside it;
// and the state it logged folds to the primary's, record for record. The
// input is random bytes, which do not code smaller, so the cut is as
// large as the state.
func TestStandbyAttachesToStateLargerThanARecord(t *testing.T) {
	const jobBytes, jobs = 8 << 20, 9
	dir := t.TempDir()
	pwl, err := wal.Open(filepath.Join(dir, "primary"), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer pwl.Close()
	ship := NewShipper(ShipperOptions{})
	m := server.New(server.Config{Addr: "127.0.0.1:0", WAL: pwl, ReplicaSink: ship})
	ship.BindMaster(m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ship.Serve(ln)
	defer ship.Close()
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	task, err := tasks.New("primecount", nil)
	if err != nil {
		t.Fatal(err)
	}
	input := make([]byte, jobBytes) // one buffer for every job: the master keeps what it is given
	rand.New(rand.NewSource(1)).Read(input)
	for i := 0; i < jobs; i++ {
		if _, err := m.Submit(task, input, true); err != nil {
			t.Fatal(err)
		}
	}
	var size frameSizes
	m.ReplicaSnapshot(func(c *server.Cut) {
		if _, err := c.WriteTo(&size); err != nil {
			t.Fatal(err)
		}
	})
	if size.total <= wal.MaxRecordBytes || size.largest-wal.RecordHeader > jobBytes+64 {
		t.Fatalf("a %d-byte cut whose largest record is %d bytes; want more than %d bytes, no record much past a %d-byte submit",
			size.total, size.largest, wal.MaxRecordBytes, jobBytes)
	}

	const lease = 2 * time.Second
	sdir := filepath.Join(dir, "standby")
	st := New(StandbyOptions{PrimaryAddr: ln.Addr().String(), WALDir: sdir,
		WALOptions: wal.Options{Sync: wal.SyncNone}, Lease: lease,
		MasterConfig: server.Config{Addr: "127.0.0.1:0"}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- st.Run(ctx) }()
	defer func() {
		if pm := st.Master(); pm != nil {
			pm.Close()
			st.Log().Close()
		}
	}()
	synced := func() bool {
		snaps, _ := filepath.Glob(filepath.Join(sdir, "snapshot-*.wal"))
		return len(snaps) > 0
	}
	for deadline := time.Now().Add(30 * time.Second); !synced(); time.Sleep(20 * time.Millisecond) {
		select {
		case err := <-ran:
			if err == nil { // Run returns nil once it has promoted
				err = errors.New("it promoted itself beside a live primary")
			}
			t.Fatalf("the standby stopped before it attached: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the standby never installed the primary's cut")
		}
	}
	select {
	case err := <-ran:
		if err == nil {
			err = errors.New("it promoted itself beside a live primary")
		}
		t.Fatalf("the standby stopped following: %v", err)
	case <-time.After(2 * lease):
	}
	cancel()
	if err := <-ran; !errors.Is(err, context.Canceled) {
		t.Fatalf("standby Run = %v, want it cancelled while following", err)
	}

	// What the standby logged folds to the primary's state.
	swl, err := wal.Open(sdir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer swl.Close()
	fold := server.NewWALFold()
	for i, rec := range swl.Recovered() {
		if err := fold.Apply(rec); err != nil {
			t.Fatalf("standby log record %d: %v", i, err)
		}
	}
	primary, standby := sha256.New(), sha256.New()
	m.ReplicaSnapshot(func(c *server.Cut) {
		if _, err := c.WriteTo(primary); err != nil {
			t.Fatal(err)
		}
	})
	if err := fold.Snapshot(standby); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(primary.Sum(nil), standby.Sum(nil)) {
		t.Fatalf("the standby's logged state (%d records) differs from its primary's", len(swl.Recovered()))
	}
}
