package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cleanModule is the smallest module the suite passes: every package,
// type, constant, method and doc file an analyzer is built around, and
// nothing else.
var cleanModule = map[string]string{
	"go.mod": "module cwc\n",
	"internal/protocol/protocol.go": `package protocol

type Type string

const (
	TypeWelcome    Type = "welcome"
	TypeResult     Type = "result"
	TypeFailure    Type = "failure"
	TypeCheckpoint Type = "checkpoint"
)

type EventKind string

const EventStart EventKind = "start"

type Message struct {
	Type  Type
	Epoch int64
}

type Conn struct{}

func (c *Conn) Send(m *Message) error   { return nil }
func (c *Conn) Recv() (*Message, error) { return nil, nil }
`,
	"internal/server/server.go": `package server

import "cwc/internal/protocol"

type walEpochRec struct{ Epoch int64 }

var frames = []protocol.Type{protocol.TypeWelcome, protocol.TypeResult, protocol.TypeFailure, protocol.TypeCheckpoint}
`,
	"internal/worker/worker.go": `package worker

import "cwc/internal/protocol"

var frames = []protocol.Type{protocol.TypeWelcome, protocol.TypeResult, protocol.TypeFailure, protocol.TypeCheckpoint}
`,
	"internal/replica/replica.go": "package replica\n",
	"internal/obs/obs.go":         "package obs\n",
	"internal/wal/wal.go":         "package wal\n",
	"internal/core/core.go":       "package core\n",
	"internal/lp/lp.go":           "package lp\n",
	"internal/predict/predict.go": "package predict\n",
	"cmd/cwc-server/main.go":      "package main\n",
	"cmd/cwc-worker/main.go":      "package main\n",
	"docs/observability.md":       "# Observability\n",
}

// unfenced mints a fenced frame without its epoch: one finding.
const unfenced = `package server

import "cwc/internal/protocol"

func mint() protocol.Message { return protocol.Message{Type: protocol.TypeResult} }
`

func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, body := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// The command's whole contract: 0 and silence for a clean module, 1 and
// one file:line line per finding, 2 when the module cannot be loaded.
func TestExitStatus(t *testing.T) {
	var out, errw bytes.Buffer
	if got := run(writeModule(t, cleanModule), &out, &errw); got != 0 || out.Len() != 0 {
		t.Errorf("clean module: status %d, want 0 and no output\n%s%s", got, &out, &errw)
	}

	dirty := map[string]string{"internal/server/mint.go": unfenced}
	for rel, body := range cleanModule {
		dirty[rel] = body
	}
	out.Reset()
	root := writeModule(t, dirty)
	if got := run(root, &out, &errw); got != 1 {
		t.Errorf("module with a finding: status %d, want 1\n%s", got, &errw)
	}
	want := filepath.Join(root, "internal/server/mint.go") + ":5:39: [epoch] TypeResult frame minted without Epoch"
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], want) {
		t.Errorf("findings printed:\n%swant one line starting %q", &out, want)
	}

	out.Reset()
	if got := run(t.TempDir(), &out, &errw); got != 2 || out.Len() != 0 {
		t.Errorf("directory with no go.mod: status %d, want 2 and no findings\n%s", got, &out)
	}
}
