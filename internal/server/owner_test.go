package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cwc/internal/tasks"
	"cwc/internal/wal"
)

// callEveryEntryPoint calls every exported Master method that reads or
// changes the master's state, and the admin plane's views of it, once
// each, with job as the job to ask about; it submits one job and returns
// its ID (0 if the submission failed).
func callEveryEntryPoint(m *Master, job int) int {
	id, _ := m.Submit(tasks.PrimeCount{}, numberLines(1, 50), true)
	m.Result(job)
	m.JobFailure(job)
	m.PendingItems()
	m.Phones()
	done, cancel := context.WithCancel(context.Background())
	cancel()
	_ = m.WaitForPhones(done, 1)
	_ = m.MeasureBandwidths(done)
	m.Epoch()
	_, _ = m.BumpEpoch()
	_ = m.CompactWAL()
	_ = m.RecoverWAL() // refused: the master has state
	m.ReplicaSnapshot(func(c *Cut) { _ = c.Len() })
	m.LastSched()
	m.DeadLetters()
	m.OfflineFailures()
	m.StreamedCheckpoints()
	m.Reputation(1)
	m.Quarantined(1)
	m.QuarantinedPhones()
	m.DrainState(1)
	for _, get := range []struct {
		path    string
		handler http.HandlerFunc
	}{
		{"/metrics", m.handleMetrics},
		{"/statusz", m.handleStatusz},
		{fmt.Sprintf("/debug/timeline?job=%d", job), m.handleDebugTimeline},
		{"/debug/sched", m.handleDebugSched},
	} {
		get.handler(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, get.path, nil))
	}
	return id
}

// returns fails t unless call returns within a generous bound.
func returns(t *testing.T, when string, call func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		call()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: a call did not return", when)
	}
}

// The master's state has one owner: the loop while it runs, and else
// whoever holds the state's token. Every entry point is called before
// Start (on a master recovering a log, as the benchmark's recovery does),
// from four goroutines while RunLoop runs rounds on three fake phones,
// after Close and after Kill. Every call returns, and under -race the
// detector sees no access from outside the owner.
func TestStateHasOneOwner(t *testing.T) {
	dir := t.TempDir()
	seed := New(Config{WAL: openWAL(t, dir, wal.Options{Sync: wal.SyncNone})})
	first, err := seed.Submit(tasks.PrimeCount{}, numberLines(1, 50), true)
	if err != nil {
		t.Fatal(err)
	}
	seed.cfg.WAL.Close()

	cfg := Config{Addr: "127.0.0.1:0", WAL: openWAL(t, dir, wal.Options{Sync: wal.SyncNone})}
	m := New(cfg)
	returns(t, "before Start", func() {
		if err := m.RecoverWAL(); err != nil {
			t.Error(err)
		}
		callEveryEntryPoint(m, first)
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	for range 3 {
		go scriptedPhone(dialFake(t, m, "HTC G2", 806), replyResult)
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	if err := m.WaitForPhones(ctx, 3); err != nil {
		t.Fatal(err)
	}
	looped := make(chan error, 1)
	go func() { looped <- m.RunLoop(ctx, 10*time.Millisecond, nil) }()

	var wg sync.WaitGroup
	ids := make([][]int, 4)
	returns(t, "while RunLoop runs", func() {
		for g := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 5 {
					if id := callEveryEntryPoint(m, first); id != 0 {
						ids[g] = append(ids[g], id)
					}
				}
			}()
		}
		wg.Wait()
	})
	// The rounds ran: every job submitted meanwhile has its result.
	for _, mine := range ids {
		if len(mine) != 5 {
			t.Fatalf("%d of 5 submissions acknowledged", len(mine))
		}
		for _, id := range mine {
			waitResult(t, m, id, 30*time.Second)
		}
	}
	stop()
	if err := <-looped; err != context.Canceled {
		t.Errorf("RunLoop returned %v, want context.Canceled", err)
	}

	m.Close()
	returns(t, "after Close", func() { callEveryEntryPoint(m, first) })

	k := startMaster(t, Config{WAL: openWAL(t, t.TempDir(), wal.Options{Sync: wal.SyncNone})})
	go scriptedPhone(dialFake(t, k, "HTC G2", 806), replyResult)
	returns(t, "before Kill", func() { callEveryEntryPoint(k, first) })
	k.Kill()
	returns(t, "after Kill", func() { callEveryEntryPoint(k, first) })
}
