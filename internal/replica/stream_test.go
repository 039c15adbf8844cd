package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cwc/internal/protocol"
	"cwc/internal/server"
	"cwc/internal/tasks"
	"cwc/internal/wal"
)

// captureSink records every record a primary ships.
type captureSink struct {
	mu   sync.Mutex
	typs []uint8
	recs [][]byte
}

func (c *captureSink) Ship(typ uint8, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.typs = append(c.typs, typ)
	c.recs = append(c.recs, append([]byte(nil), payload...))
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
// stream (snapshot frame + records captured from a live primary)
// truncated at every byte offset, and asserts the standby applies
// exactly the records whose frames arrived whole — a torn record is
// never folded and never reaches the standby's log — with the follow
// loop ending in a resync-able error, never a false success. The stream
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
	var snap []byte
	if err := m.ReplicaSnapshot(func(b []byte) { snap = append([]byte(nil), b...) }); err != nil {
		t.Fatal(err)
	}
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

	stream := wal.EncodeRecord(recSnapshot, snap)
	boundaries := []int{len(stream)} // offsets at which a whole frame ends
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
			wantApplied = int64(whole - 1) // minus the snapshot frame
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
		if whole > 0 && fold.Epoch() != 1 {
			t.Fatalf("cut %d: fold epoch %d, want 1 from snapshot", cut, fold.Epoch())
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
		if got := int64(len(wl2.Recovered())); got != wantApplied {
			t.Fatalf("cut %d: standby log holds %d records, want %d", cut, got, wantApplied)
		}
		if (wl2.Snapshot() != nil) != (whole > 0) {
			t.Fatalf("cut %d: standby log snapshot presence %v, want %v", cut, wl2.Snapshot() != nil, whole > 0)
		}
		wl2.Close()
	}
}
