package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a log severity.
type Level int32

// Levels, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// ParseLevel maps a -log-level flag value to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// logCore is the shared sink of a logger family: one writer, one mutex,
// one minimum level, however many field-scoped children.
type logCore struct {
	mu  sync.Mutex
	w   io.Writer // guarded by mu
	min atomic.Int32
	tap atomic.Pointer[func(string)]
}

// Logger writes structured, leveled lines:
//
//	ts=2012-12-10T22:30:00.000Z level=info phone=3 round=2 msg="..."
//
// With returns field-scoped children sharing the parent's writer and
// level, so "the phone-3 logger" can be passed down a call chain and
// every line it emits carries phone=3. All methods are safe for
// concurrent use and on a nil receiver (no-ops).
type Logger struct {
	core   *logCore
	fields string // pre-rendered " k=v k=v" suffix
}

// NewLogger returns a logger writing to w at the given minimum level.
func NewLogger(w io.Writer, min Level) *Logger {
	core := &logCore{w: w}
	core.min.Store(int32(min))
	return &Logger{core: core}
}

// Discard returns a logger that drops everything; the nil-config
// default for servers and workers.
func Discard() *Logger { return NewLogger(io.Discard, LevelError+1) }

// SetLevel changes the minimum level for this logger and every relative
// sharing its core.
func (l *Logger) SetLevel(min Level) {
	if l != nil {
		l.core.min.Store(int32(min))
	}
}

// Enabled reports whether a line at the given level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && int32(level) >= l.core.min.Load()
}

// SetTap attaches a callback invoked (outside the writer lock) with
// every line this logger family emits — the hook a black-box recorder
// uses to shadow the log stream. Shared by every relative of this
// logger's core; pass nil to detach.
func (l *Logger) SetTap(fn func(line string)) {
	if l == nil {
		return
	}
	if fn == nil {
		l.core.tap.Store(nil)
		return
	}
	l.core.tap.Store(&fn)
}

// With returns a child logger whose lines carry the given key/value
// pairs as fields. Values are rendered with %v; strings containing
// spaces are quoted.
func (l *Logger) With(kv ...any) *Logger {
	if l == nil {
		return nil
	}
	var b strings.Builder
	b.WriteString(l.fields)
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		fmt.Fprintf(&b, "%v=%s", kv[i], renderValue(kv[i+1]))
	}
	return &Logger{core: l.core, fields: b.String()}
}

func renderValue(v any) string {
	s := fmt.Sprintf("%v", v)
	if strings.ContainsAny(s, " \t\"=") {
		return fmt.Sprintf("%q", s)
	}
	if s == "" {
		return `""`
	}
	return s
}

func (l *Logger) emit(level Level, format string, args ...any) {
	if !l.Enabled(level) {
		return
	}
	msg := fmt.Sprintf(format, args...)
	line := fmt.Sprintf("ts=%s level=%s%s msg=%q\n",
		time.Now().UTC().Format("2006-01-02T15:04:05.000Z"), level, l.fields, msg)
	if fn := l.core.tap.Load(); fn != nil {
		(*fn)(strings.TrimRight(line, "\n"))
	}
	l.core.mu.Lock()
	_, _ = io.WriteString(l.core.w, line)
	l.core.mu.Unlock()
}

// Debugf logs at debug level.
func (l *Logger) Debugf(format string, args ...any) { l.emit(LevelDebug, format, args...) }

// Infof logs at info level.
func (l *Logger) Infof(format string, args ...any) { l.emit(LevelInfo, format, args...) }

// Warnf logs at warn level.
func (l *Logger) Warnf(format string, args ...any) { l.emit(LevelWarn, format, args...) }

// Errorf logs at error level.
func (l *Logger) Errorf(format string, args ...any) { l.emit(LevelError, format, args...) }

// SortedFields is a small helper for tests and debug dumps: it renders
// a map as deterministic "k=v" pairs.
func SortedFields(m map[string]any) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%s", k, renderValue(m[k]))
	}
	return strings.Join(parts, " ")
}
