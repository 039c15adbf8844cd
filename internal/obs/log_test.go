package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestLoggerLevelsAndFields(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Debugf("dropped")
	l.Infof("kept %d", 1)
	l.With("phone", 3, "round", 2).Warnf("slow")
	l.Errorf("bad thing")

	out := buf.String()
	if strings.Contains(out, "dropped") {
		t.Error("debug line survived an info-level logger")
	}
	for _, want := range []string{
		`level=info msg="kept 1"`,
		`level=warn phone=3 round=2 msg="slow"`,
		`level=error msg="bad thing"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q\n---\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "ts=") {
			t.Errorf("line missing timestamp field: %s", line)
		}
	}
}

func TestLoggerSetLevelSharedAcrossChildren(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelWarn)
	child := l.With("phone", 7)
	child.Infof("dropped")
	l.SetLevel(LevelDebug)
	child.Debugf("kept")
	out := buf.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, "kept") {
		t.Errorf("SetLevel did not propagate to children:\n%s", out)
	}
}

func TestLoggerValueQuoting(t *testing.T) {
	var buf bytes.Buffer
	NewLogger(&buf, LevelInfo).With("model", "HTC Desire HD", "n", 4).Infof("hi")
	if !strings.Contains(buf.String(), `model="HTC Desire HD" n=4`) {
		t.Errorf("fields with spaces not quoted: %s", buf.String())
	}
}

func TestLoggerPrintfIsInfo(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Infof("compat %s", "line")
	if !strings.Contains(buf.String(), `level=info msg="compat line"`) {
		t.Errorf("Infof did not log at info: %s", buf.String())
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Infof("no panic")
	l.With("k", "v").Errorf("still none")
	if l.Enabled(LevelError) {
		t.Error("nil logger claims to be enabled")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "": LevelInfo,
		"warn": LevelWarn, "warning": LevelWarn, "error": LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

func TestDiscardDropsEverything(t *testing.T) {
	l := Discard()
	if l.Enabled(LevelError) {
		t.Error("Discard logger enabled at error level")
	}
	l.Errorf("into the void") // must not panic
}
