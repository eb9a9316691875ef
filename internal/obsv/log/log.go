// Package log is the simulator's structured event log: leveled JSONL
// records written for the long-sweep post-mortem — which job panicked
// three hours in, which cache entry was corrupt, which DAG nodes never ran
// after a failure.
//
// One line is one event:
//
//	{"ts":"2026-08-08T12:00:00.000000001Z","level":"info","msg":"job done",
//	 "subsystem":"engine","index":42,"seconds":0.0013}
//
// The fixed prefix (ts, level, msg, subsystem) is followed by the event's
// own key/value pairs, in call order; a call passes its subsystem as its
// first field. log/slog's JSON handler writes the lines, so every line is
// valid JSON whatever a layer name holds.
//
// The package follows obsv's contract: stdlib only, and logging never
// changes what the simulator computes — subsystems write to the log, they
// never read from it. Because instrumentation spans package boundaries
// (engine workers, cache lookups, pipeline stages), the process carries
// one default logger (SetDefault/Default) that discards every event until
// a CLI's -log flag installs a real one; recording sites pay an atomic
// load and a level check when it is off.
package log

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// Levels, least to most severe. Debug carries per-job and per-lookup
// events (high volume); Info marks run lifecycle; Warn marks degraded
// but recovered conditions (corrupt cache entries, skipped DAG nodes);
// Error marks failures.
const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
)

// ParseLevel converts a level name (debug, info, warn or error) to a level.
func ParseLevel(s string) (slog.Level, error) {
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

// New returns a logger writing events at or above level to w, one JSON
// object per line. It is safe for concurrent use.
func New(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level, ReplaceAttr: envelope}))
}

// envelope writes the handler's own time as "ts" (UTC, RFC3339Nano) and
// its own level in lower case. It checks the value's kind first, so a
// call-site field that is merely named "time" or "level" passes through.
func envelope(_ []string, a slog.Attr) slog.Attr {
	switch a.Key {
	case slog.TimeKey:
		if a.Value.Kind() == slog.KindTime {
			return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
		}
	case slog.LevelKey:
		if lv, ok := a.Value.Any().(slog.Level); ok {
			return slog.String(slog.LevelKey, strings.ToLower(lv.String()))
		}
	}
	return a
}

var (
	installed atomic.Pointer[slog.Logger] // nil until a CLI installs one
	// discard is Default with nothing installed: above every level, so
	// no event is ever formatted.
	discard = New(io.Discard, LevelError+1)
)

// SetDefault installs the process-wide logger; nil uninstalls it.
func SetDefault(l *slog.Logger) { installed.Store(l) }

// Default returns the process-wide logger; never nil.
func Default() *slog.Logger {
	if l := installed.Load(); l != nil {
		return l
	}
	return discard
}

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
