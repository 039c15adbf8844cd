package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The black-box flight recorder is a second Tracer ring: log lines reach
// it through Logger.SetTap(rec.Log), span events through
// Tracer.SetTee(rec.Record).

func TestBlackboxRingBounds(t *testing.T) {
	rec := NewTracer(64)
	for i := 0; i < 200; i++ {
		rec.Log(fmt.Sprintf("line %d", i))
	}
	if got := rec.Total(); got != 200 {
		t.Fatalf("Total = %d, want 200", got)
	}
	snap := rec.Recent(1000)
	if len(snap) != 64 {
		t.Fatalf("ring kept %d entries, want 64", len(snap))
	}
	if snap[0].Detail != "line 136" || snap[63].Detail != "line 199" {
		t.Fatalf("ring window = [%s .. %s], want [line 136 .. line 199]",
			snap[0].Detail, snap[63].Detail)
	}
}

func TestBlackboxTapsLoggerAndTracer(t *testing.T) {
	rec := NewTracer(64)
	var sink bytes.Buffer
	logger := NewLogger(&sink, LevelInfo).With("app", "test")
	logger.SetTap(rec.Log)
	tracer := NewTracer(16)
	tracer.SetTee(rec.Record)

	logger.Infof("hello %d", 42)
	tracer.Record(SpanEvent{Span: "j1", Kind: KindAssign, Job: 1, Phone: 3})

	snap := rec.Recent(1000)
	if len(snap) != 2 {
		t.Fatalf("recorded %d entries, want 2", len(snap))
	}
	if snap[0].Kind != KindLog || !strings.Contains(snap[0].Detail, "hello 42") || snap[0].TS.IsZero() {
		t.Fatalf("log entry = %+v", snap[0])
	}
	if snap[1].Kind != KindAssign || snap[1].Span != "j1" || snap[1].Phone != 3 {
		t.Fatalf("trace entry = %+v", snap[1])
	}
	// Detaching stops the shadowing.
	logger.SetTap(nil)
	tracer.SetTee(nil)
	logger.Infof("after detach")
	tracer.Record(SpanEvent{Span: "j2", Kind: KindResult})
	if got := rec.Total(); got != 2 {
		t.Fatalf("entries after detach = %d, want 2", got)
	}
}

func TestBlackboxDumpFileJSONL(t *testing.T) {
	rec := NewTracer(64)
	rec.Log("first")
	rec.Record(SpanEvent{TS: time.Unix(1, 0), Span: "j9", Kind: KindPromote, Epoch: 2})
	dir := t.TempDir()
	stale := filepath.Join(dir, "blackbox.jsonl")
	if err := os.WriteFile(stale, []byte("left over from an earlier, longer dump\n\n\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Over a stale file (truncated) and to a fresh path alike.
	for _, path := range []string{stale, filepath.Join(dir, "fresh.jsonl")} {
		if err := rec.DumpFile(path); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var entries []SpanEvent
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var e SpanEvent
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("%s line %d not parseable: %v", path, len(entries)+1, err)
			}
			entries = append(entries, e)
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 {
			t.Fatalf("%s has %d lines, want 2", path, len(entries))
		}
		if entries[0].Kind != KindLog || entries[0].Detail != "first" ||
			entries[1].Kind != KindPromote || entries[1].Epoch != 2 {
			t.Fatalf("dump = %+v", entries)
		}
	}
}

func TestBlackboxNilSafe(t *testing.T) {
	var rec *Tracer
	rec.Log("x")
	rec.Record(SpanEvent{})
	if rec.Total() != 0 || rec.Recent(10) != nil {
		t.Fatal("nil recorder should be inert")
	}
	if err := rec.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := rec.DumpFile(""); err != nil {
		t.Fatal(err)
	}
}
