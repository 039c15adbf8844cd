package server

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cwc/internal/obs"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
	"cwc/internal/wal"
)

// A failure report for a range that already has a queued copy — a
// straggler past its deadline that then unplugs — used to be dropped
// whole, checkpoint and all, so the copy restarted from scratch. The
// report's checkpoint now stays on the open range: the next round's
// assign resumes from it, and (it is logged as a migrate record) so does
// a master recovered from the log.
func TestFailureReportKeepsCheckpointWhenCopyQueued(t *testing.T) {
	for _, replay := range []bool{false, true} {
		name := "live"
		if replay {
			name = "replayed"
		}
		t.Run(name, func(t *testing.T) {
			const floor = 500 * time.Millisecond
			dir := t.TempDir()
			wl := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
			// The oracle of walref_test.go rides along: fold and live state
			// must agree at every record, the new migrate record included.
			sink := &oracleSink{t: t, fold: NewWALFold()}
			cfg := Config{Addr: "127.0.0.1:0", WAL: wl, ReplicaSink: sink, DeadlineFloor: floor, DeadlineFactor: 0.001}
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
			// The phone sits on the assignment until the deadline has queued
			// a copy of it, then unplugs: a failure report with a checkpoint.
			reported := make(chan *tasks.Checkpoint, 1)
			go scriptedPhone(dialFake(t, m, "HTC G2", 806), func(f *fakePhone, msg *protocol.Message) {
				for m.PendingItems() == 0 && ctx.Err() == nil {
					time.Sleep(5 * time.Millisecond)
				}
				ck := checkpointAt(msg)
				replyFailure(f, msg, ck)
				reported <- ck
			})
			rep, err := m.RunRound(ctx)
			if err != nil {
				t.Fatal(err)
			}
			ck := <-reported
			sink.check("after the report")
			if len(rep.Stragglers) != 1 || m.PendingItems() != 1 {
				t.Fatalf("stragglers %v, %d pending: the report did not find a queued copy (abandoned first?)",
					rep.Stragglers, m.PendingItems())
			}

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
				t.Fatalf("the copy shipped with resume %+v, want offset >= the report's %d", msg.Resume, ck.Offset)
			}
			if got, ok := m.Result(id); !ok || !bytes.Equal(got, want) {
				t.Fatalf("result = %q (%v), want %q", got, ok, want)
			}
		})
	}
}

// rangeScript tells every phone of TestOpenTableIsBoundedByWorkInFlight
// how to treat the next assignments: the first `armed` of them get the
// cycle's special treatment, the rest an honest result.
type rangeScript struct {
	mu        sync.Mutex
	mode      string
	armed     int
	roundOver chan struct{} // closed once the cycle's first round returned
}

func (s *rangeScript) behave(f *fakePhone, msg *protocol.Message) {
	s.mu.Lock()
	mode, over := "result", s.roundOver
	if s.armed > 0 {
		s.armed--
		mode = s.mode
	}
	s.mu.Unlock()
	switch mode {
	case "partial":
		replyFailure(f, msg, checkpointAt(msg))
	case "migrate":
		streamThenVanish(f, msg)
	case "deadletter":
		replyFailure(f, msg, nil)
	case "abandon":
		// Sit on it until the round has given up on this phone, then
		// deliver: a late result for a detached attempt.
		<-over
		replyResult(f, msg)
	default:
		replyResult(f, msg)
	}
}

// Per-key state is bounded by the work in flight: whatever happens to a
// byte range — a result, a failure folded into a partial result, a whole
// migration, a straggler abandoned whose result arrives late, a dead
// letter, a k=2 vote — once nothing is queued or running the open table
// and the attempt table are empty. (The maps this table replaced kept an
// entry per key ever issued.)
func TestOpenTableIsBoundedByWorkInFlight(t *testing.T) {
	const floor = 250 * time.Millisecond
	reg := obs.NewRegistry()
	lowRetryBudget(t)
	m := startMaster(t, Config{DeadlineFloor: floor, DeadlineFactor: 0.001, Metrics: reg})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	script := &rangeScript{}
	// Every failure report costs its phone the connection: top the fleet
	// up before each cycle.
	ensurePhones := func(n int) {
		alive := 0
		for _, p := range m.Phones() {
			if p.Alive {
				alive++
			}
		}
		for ; alive < n; alive++ {
			go scriptedPhone(dialFake(t, m, "Nexus S", 1000), script.behave)
		}
		if err := m.WaitForPhones(ctx, n); err != nil {
			t.Fatal(err)
		}
	}
	modes := []struct {
		name     string
		armed    int
		replicas int
		finishes bool
	}{
		{"result", 0, 1, true},
		{"partial", 1, 1, true},
		{"migrate", 1, 1, true},
		{"abandon", 1, 1, true},
		{"deadletter", 2, 1, false},
		{"vote", 0, 2, true},
	}
	rounds, issued := 0, int64(0)
	for cycle := 0; cycle < 4*len(modes); cycle++ {
		mode := modes[cycle%len(modes)]
		ensurePhones(2)
		m.do(func() { m.cfg.VerifyReplicas = mode.replicas })
		script.mu.Lock()
		script.mode, script.armed, script.roundOver = mode.name, mode.armed, make(chan struct{})
		over := script.roundOver
		script.mu.Unlock()
		input := numberLines(1000*cycle+1, 1000*cycle+400)
		id, err := m.Submit(tasks.PrimeCount{}, input, true)
		if err != nil {
			t.Fatal(err)
		}
		dead := len(m.DeadLetters())
		for first := true; ; first = false {
			_, err := m.RunRound(ctx)
			if first {
				close(over)
			}
			if err == ErrNothingToDo {
				break
			}
			if err != nil {
				t.Fatalf("cycle %d (%s): %v", cycle, mode.name, err)
			}
			rounds++
			if mode.name == "abandon" {
				// The late result settles the key outside any round.
				waitResult(t, m, id, 20*time.Second)
			}
			ensurePhones(2)
		}
		if mode.name == "partial" {
			// The failure was folded into a partial result, not migrated.
			remainder := false
			for _, ev := range m.cfg.Tracer.Span(jobSpan(id)) {
				remainder = remainder || ev.Kind == obs.KindRequeue && strings.HasPrefix(ev.Detail, "failure remainder")
			}
			if !remainder {
				t.Errorf("cycle %d: no remainder was re-queued; the partial-result path was not taken", cycle)
			}
		}
		if mode.finishes {
			if got := waitResult(t, m, id, 20*time.Second); !bytes.Equal(got, groundTruth(t, tasks.PrimeCount{}, input)) {
				t.Errorf("cycle %d (%s): result %q", cycle, mode.name, got)
			}
		} else if len(m.DeadLetters()) != dead+1 {
			t.Errorf("cycle %d (%s): %d dead letters, want %d", cycle, mode.name, len(m.DeadLetters()), dead+1)
		}
		var open, attempts, pending int
		m.do(func() { open, attempts, pending, issued = len(m.open), len(m.attempts), len(m.pending), m.nextKey })
		if open != 0 || attempts != 0 || pending != 0 {
			t.Errorf("cycle %d (%s): quiescent master holds %d open ranges, %d attempts, %d queued items",
				cycle, mode.name, open, attempts, pending)
		}
	}
	if rounds < 20 || issued < int64(4*len(modes)) {
		t.Errorf("%d rounds issued %d keys; the script is shorter than it claims", rounds, issued)
	}
	for _, fam := range []string{"cwc_results_total", "cwc_failures_total", "cwc_checkpoint_folds_total",
		"cwc_abandons_total", "cwc_dead_letters_total", "cwc_verify_votes_total"} {
		if reg.Counter(fam).Value() < 4 {
			t.Errorf("%s = %d; a mode of the script no longer takes its path", fam, reg.Counter(fam).Value())
		}
	}
}

// newestSnapshot reads the snapshot the last compaction wrote.
func newestSnapshot(t *testing.T, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "snapshot-*.wal"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no snapshot in %s (%v)", dir, err)
	}
	sort.Strings(names)
	b, err := os.ReadFile(names[len(names)-1])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A snapshot cut mid-round finds a byte range wherever it is: executing,
// prefetched behind the executing one, or still unshipped in the same
// phone's queue. CompactWAL and ReplicaSnapshot each hold all three
// exactly once, and a fold primed from the cut accepts the rest of the
// round's records, agreeing with the live master at every one of them
// (the oracle of walref_test.go).
func TestMidRoundSnapshotFindsEveryRange(t *testing.T) {
	dir := t.TempDir()
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncNone})
	sink := &oracleSink{t: t, fold: NewWALFold()}
	m := New(Config{Addr: "127.0.0.1:0", WAL: wl, ReplicaSink: sink})
	sink.m = m
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	f := dialFake(t, m, "HTC G2", 806)
	inputs := map[int][]byte{}
	for j := 0; j < 3; j++ {
		input := numberLines(1000*j+1, 1000*j+300)
		id, err := m.Submit(tasks.PrimeCount{}, input, true)
		if err != nil {
			t.Fatal(err)
		}
		inputs[id] = input
	}
	// The phone takes the two assignments its window allows and holds them
	// until the test has cut its snapshots.
	held, release := make(chan struct{}), make(chan struct{})
	var got []*protocol.Message
	go scriptedPhone(f, func(f *fakePhone, msg *protocol.Message) {
		got = append(got, msg)
		if len(got) == 2 {
			close(held)
			<-release
			replyResult(f, got[0])
			replyResult(f, got[1])
		} else if len(got) > 2 {
			replyResult(f, msg)
		}
	})
	roundDone := make(chan error, 1)
	go func() {
		_, err := m.RunRound(ctx)
		roundDone <- err
	}()
	select {
	case <-held:
	case <-ctx.Done():
		t.Fatal("the phone never held two assignments")
	}

	var keys []int64
	var attempts int
	m.do(func() {
		for key := range m.open {
			keys = append(keys, key)
		}
		attempts = len(m.attempts)
	})
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) != 3 || attempts != 2 {
		t.Fatalf("mid-round: open table %v, %d attempts; want three ranges, two of them shipped", keys, attempts)
	}
	checkCut := func(what string, b []byte) {
		t.Helper()
		var fresh, open []*walCutItem
		for _, rec := range cutRecords(t, b) {
			if rec.Type != walRecItem {
				continue
			}
			v, err := decodeWAL(rec)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if it := v.(*walCutItem); it.Key != 0 {
				open = append(open, it)
			} else {
				fresh = append(fresh, it)
			}
		}
		if len(fresh) != 0 || len(open) != 3 {
			t.Fatalf("%s holds %d fresh items and %d open ranges, want 0 and 3", what, len(fresh), len(open))
		}
		seen := map[int]bool{}
		for i, it := range open {
			input, err := it.Input.Raw()
			if err != nil {
				t.Fatalf("%s: open[%d]: %v", what, i, err)
			}
			if it.Key != keys[i] || seen[it.JobID] || !bytes.Equal(input, inputs[it.JobID]) {
				t.Errorf("%s: open[%d] = key %d job %d (%d bytes); want key %d with a job's whole input, each job once",
					what, i, it.Key, it.JobID, len(input), keys[i])
			}
			seen[it.JobID] = true
		}
	}
	if err := m.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	checkCut("CompactWAL's snapshot", newestSnapshot(t, dir))
	beforeCut := 0
	m.ReplicaSnapshot(func(c *Cut) {
		b := cutBytes(t, c)
		checkCut("ReplicaSnapshot's cut", b)
		sink.mu.Lock()
		defer sink.mu.Unlock()
		foldCut(t, sink.fold, b)
		beforeCut = len(sink.typs)
	})

	close(release)
	if err := <-roundDone; err != nil {
		t.Fatal(err)
	}
	sink.check("after the round")
	sink.mu.Lock()
	defer sink.mu.Unlock()
	after := map[uint8]int{}
	for _, typ := range sink.typs[beforeCut:] {
		after[typ]++
	}
	if after[walRecReport] != 3 {
		t.Errorf("records folded after the cut: %v; want three reports", after)
	}
}
