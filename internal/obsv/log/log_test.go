package log

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// decodeLines parses every JSONL line into a map.
func decodeLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestEventShape(t *testing.T) {
	var buf bytes.Buffer
	lg := New(&buf, LevelDebug)
	lg.Info("job done", "subsystem", "engine", "index", 3, "seconds", 0.25, "err", fmt.Errorf("boom"))

	events := decodeLines(t, &buf)
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	e := events[0]
	for key, want := range map[string]any{
		"level":     "info",
		"subsystem": "engine",
		"msg":       "job done",
		"index":     float64(3),
		"seconds":   0.25,
		"err":       "boom",
	} {
		if e[key] != want {
			t.Errorf("event[%q] = %v, want %v", key, e[key], want)
		}
	}
	if e["ts"] == nil {
		t.Error("event missing ts")
	}
}

func TestFieldOrderIsStable(t *testing.T) {
	var buf bytes.Buffer
	New(&buf, LevelDebug).Info("layer", "subsystem", "core", "zebra", 1, "alpha", 2)
	line := buf.String()
	for _, seq := range [][2]string{
		{`"ts"`, `"level"`}, {`"level"`, `"msg"`}, {`"msg"`, `"subsystem"`},
		{`"subsystem"`, `"zebra"`}, {`"zebra"`, `"alpha"`},
	} {
		if strings.Index(line, seq[0]) >= strings.Index(line, seq[1]) {
			t.Errorf("field %s does not precede %s in %q", seq[0], seq[1], line)
		}
	}
}

func TestLevelGate(t *testing.T) {
	var buf bytes.Buffer
	lg := New(&buf, LevelWarn)
	lg.Debug("dropped")
	lg.Info("dropped")
	lg.Warn("kept")
	lg.Error("kept")
	if got := len(decodeLines(t, &buf)); got != 2 {
		t.Fatalf("events = %d, want 2", got)
	}
	if lg.Enabled(context.Background(), LevelInfo) || !lg.Enabled(context.Background(), LevelError) {
		t.Error("Enabled gate wrong")
	}
}

func TestUninstalledDefaultDiscards(t *testing.T) {
	lg := Default()
	if lg == nil {
		t.Fatal("Default returned nil with nothing installed")
	}
	lg.Debug("m")
	lg.Info("m")
	lg.Warn("m")
	lg.Error("m", "k", 1)
	if lg.Enabled(context.Background(), LevelError) {
		t.Error("uninstalled default reports enabled")
	}
}

func TestOddPairsAndBadKeysDegrade(t *testing.T) {
	var buf bytes.Buffer
	// Through a slice: vet rejects these pairs written out in a call.
	for _, kv := range [][]any{{"dangling"}, {42, "v"}} {
		New(&buf, LevelDebug).Info("m", kv...)
	}
	for _, e := range decodeLines(t, &buf) { // both lines must stay valid JSON
		if e["msg"] != "m" {
			t.Errorf("msg lost: %v", e)
		}
	}
}

func TestEscaping(t *testing.T) {
	var buf bytes.Buffer
	New(&buf, LevelDebug).Info("quote\"new\nline", "k\"ey", "v\\al")
	events := decodeLines(t, &buf)
	if events[0]["msg"] != "quote\"new\nline" {
		t.Errorf("msg round-trip failed: %q", events[0]["msg"])
	}
	if events[0]["k\"ey"] != "v\\al" {
		t.Errorf("key/value round-trip failed: %v", events[0])
	}

	// Control characters and invalid UTF-8 in a layer name still make a
	// valid line; invalid bytes read back as U+FFFD.
	for name, want := range map[string]string{
		"fc\abell": "fc\abell", "vt\v": "vt\v", "ctl\x01": "ctl\x01",
		"del\x7f": "del\x7f", "bad\xff": "bad\uFFFD",
	} {
		buf.Reset()
		New(&buf, LevelDebug).Debug(name, "subsystem", "core", "layer", name)
		e := decodeLines(t, &buf)[0]
		if e["msg"] != want || e["layer"] != want {
			t.Errorf("%q: msg %q, layer %q; want %q", name, e["msg"], e["layer"], want)
		}
	}

	// Fields merely named like the envelope's own pass through untouched.
	buf.Reset()
	New(&buf, LevelDebug).Info("m", "time", 5, "level", "loud")
	line := buf.String()
	for _, want := range []string{`"level":"info"`, `"time":5`, `"level":"loud"`} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q lacks %s", line, want)
		}
	}
}

func TestConcurrentUseKeepsLinesIntact(t *testing.T) {
	var buf bytes.Buffer
	lg := New(&buf, LevelDebug)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lg.Debug("job", "subsystem", "engine", "goroutine", g, "index", i)
			}
		}(g)
	}
	wg.Wait()
	if got := len(decodeLines(t, &buf)); got != 400 {
		t.Fatalf("events = %d, want 400", got)
	}
}

func TestParseLevel(t *testing.T) {
	for name, want := range map[string]slog.Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError,
	} {
		got, err := ParseLevel(name)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted junk")
	}
}

func TestDefaultInstallAndReset(t *testing.T) {
	if Default() != discard {
		t.Fatal("default logger should start as the discarding one")
	}
	var buf bytes.Buffer
	lg := New(&buf, LevelInfo)
	SetDefault(lg)
	if Default() != lg {
		t.Fatal("SetDefault did not install")
	}
	Default().Info("hello")
	if len(decodeLines(t, &buf)) != 1 {
		t.Fatal("default logger dropped the event")
	}
	SetDefault(nil)
	if Default() != discard {
		t.Fatal("SetDefault(nil) did not uninstall")
	}
}
