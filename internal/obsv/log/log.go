// Package log is the simulator's structured event log: leveled JSONL
// records with stable field order, written for the long-sweep post-mortem
// — which job panicked three hours in, which cache entry was corrupt,
// which DAG nodes never ran after a failure.
//
// One line is one event:
//
//	{"ts":"2026-08-08T12:00:00.000000001Z","level":"info","subsystem":"engine",
//	 "msg":"job done","index":42,"seconds":0.0013}
//
// The fixed prefix (ts, level, subsystem, msg) is followed by the event's
// own key/value pairs, in call order — the encoder is hand-rolled so field
// order is stable and greppable, unlike encoding/json's map serialization.
//
// The package follows obsv's contract: stdlib only, every method nil-safe
// (a nil *Logger drops events without reading the clock), and logging
// never changes what the simulator computes — subsystems write to the
// log, they never read from it. Because instrumentation spans package
// boundaries (engine workers, cache lookups, pipeline stages), the
// process carries one default logger (SetDefault/Default), disabled
// until a CLI's -log flag installs a real one; recording sites pay an
// atomic load and a nil check when it is off.
package log

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders event severities.
type Level int32

// Levels, least to most severe. Debug carries per-job and per-lookup
// events (high volume); Info marks run lifecycle; Warn marks degraded
// but recovered conditions (corrupt cache entries, skipped DAG nodes);
// Error marks failures.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the level's lowercase name.
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

// ParseLevel converts a level name ("debug", "info", "warn", "error") to
// a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return 0, fmt.Errorf("log: unknown level %q (want debug, info, warn or error)", s)
}

// Logger writes leveled JSONL events to one writer, one uninterleaved
// line per event. All methods are safe for concurrent use and nil-safe.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
}

// New returns a logger writing events at or above level to w.
func New(w io.Writer, level Level) *Logger {
	return &Logger{w: w, level: level}
}

// Enabled reports whether events at lv would be written; false on nil.
func (l *Logger) Enabled(lv Level) bool { return l != nil && lv >= l.level }

// Debug, Info, Warn and Error emit one event from the named subsystem.
// kv is alternating keys and values; errors become their message string.
func (l *Logger) Debug(subsystem, msg string, kv ...any) { l.log(LevelDebug, subsystem, msg, kv) }

// Info emits a run-lifecycle event.
func (l *Logger) Info(subsystem, msg string, kv ...any) { l.log(LevelInfo, subsystem, msg, kv) }

// Warn emits a degraded-but-recovered event.
func (l *Logger) Warn(subsystem, msg string, kv ...any) { l.log(LevelWarn, subsystem, msg, kv) }

// Error emits a failure event.
func (l *Logger) Error(subsystem, msg string, kv ...any) { l.log(LevelError, subsystem, msg, kv) }

func (l *Logger) log(lv Level, subsystem, msg string, kv []any) {
	if !l.Enabled(lv) {
		return
	}
	buf := make([]byte, 0, 192)
	buf = append(buf, `{"ts":`...)
	buf = strconv.AppendQuote(buf, time.Now().UTC().Format(time.RFC3339Nano))
	buf = append(buf, `,"level":`...)
	buf = strconv.AppendQuote(buf, lv.String())
	buf = append(buf, `,"subsystem":`...)
	buf = strconv.AppendQuote(buf, subsystem)
	buf = append(buf, `,"msg":`...)
	buf = strconv.AppendQuote(buf, msg)
	buf = appendFields(buf, kv)
	buf = append(buf, '}', '\n')
	l.mu.Lock()
	_, _ = l.w.Write(buf)
	l.mu.Unlock()
}

// appendFields encodes alternating key/value pairs as `,"key":value`
// runs. A trailing key without a value is paired with null; a non-string
// key is stringified, so a malformed call site degrades to an odd-looking
// line, never a panic or an invalid document.
func appendFields(buf []byte, kv []any) []byte {
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		buf = append(buf, ',')
		buf = strconv.AppendQuote(buf, key)
		buf = append(buf, ':')
		if i+1 < len(kv) {
			buf = appendValue(buf, kv[i+1])
		} else {
			buf = append(buf, `null`...)
		}
	}
	return buf
}

// appendValue encodes one value as JSON. Errors log their message;
// anything json.Marshal rejects degrades to its fmt representation.
func appendValue(buf []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		return strconv.AppendQuote(buf, x)
	case int:
		return strconv.AppendInt(buf, int64(x), 10)
	case int64:
		return strconv.AppendInt(buf, x, 10)
	case error:
		return strconv.AppendQuote(buf, x.Error())
	}
	data, err := json.Marshal(v)
	if err != nil {
		return strconv.AppendQuote(buf, fmt.Sprint(v))
	}
	return append(buf, data...)
}

// defaultLogger is the process-wide logger recording sites read; nil
// until a CLI installs one.
var defaultLogger atomic.Pointer[Logger]

// SetDefault installs the process-wide logger; nil disables logging.
func SetDefault(l *Logger) { defaultLogger.Store(l) }

// Default returns the process-wide logger, nil when logging is disabled.
// The result is safe to call either way.
func Default() *Logger { return defaultLogger.Load() }

// Setup opens path ("stderr" and "-" select standard error), installs a
// default logger at the named level, and returns a close function that
// flushes the file and uninstalls the logger. This is the -log/-log-level
// flag wiring shared by the CLIs.
func Setup(path, level string) (func() error, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	if path == "-" || path == "stderr" {
		SetDefault(New(os.Stderr, lv))
		return func() error { SetDefault(nil); return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("log: %w", err)
	}
	SetDefault(New(f, lv))
	return func() error {
		SetDefault(nil)
		if err := f.Close(); err != nil {
			return fmt.Errorf("log: %w", err)
		}
		return nil
	}, nil
}
