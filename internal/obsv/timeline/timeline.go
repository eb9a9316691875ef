// Package timeline exports the simulator's two clocks as one Chrome Trace
// Event JSON file, viewable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// The file interleaves two Perfetto "processes", one per clock domain:
//
//   - pid 1, "simulated machine": the timestamp axis is the simulated
//     cycle (one cycle rendered as one microsecond). Duration events mark
//     each layer and each fold of the systolic schedule, stall intervals
//     mark where a bounded DRAM link would halt the array, and counter
//     tracks sample every SRAM and DRAM stream's demand bandwidth per
//     fixed cycle window.
//   - pid 2, "host engine": wall-clock time. One duration event per
//     engine job (layer, grid point or partition task), placed on its
//     worker's thread from the existing obsv.Span records.
//
// Everything is built for the simulator's streaming discipline: counters
// aggregate trace.Run batches in O(segments) via trace.RunWords, per-layer
// events are buffered in a LayerRecorder and emitted only after the
// engine's deterministic join, and the Writer serializes events
// incrementally under a mutex so concurrent emitters stay valid JSON.
package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"scalesim/internal/obsv"
)

// DefaultWindow is the counter sampling granularity in cycles.
const DefaultWindow = 64

// Options tunes a Writer.
type Options struct {
	// Window is the counter sampling window in cycles (default
	// DefaultWindow).
	Window int64
}

// Writer streams Chrome Trace Event JSON: a plain array of event objects,
// each carrying at least ph/ts/pid. Safe for concurrent use; events from
// concurrent emitters interleave, which the format permits (viewers order
// by timestamp per track).
type Writer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	window int64
	first  bool
	events int64
	pids   int64
	peaks  map[string]float64
	err    error
}

// New wraps w in a timeline writer. Call Close to terminate the JSON
// array and flush.
func New(w io.Writer, opt Options) *Writer {
	window := opt.Window
	if window <= 0 {
		window = DefaultWindow
	}
	return &Writer{
		w:      bufio.NewWriterSize(w, 1<<16),
		window: window,
		first:  true,
		peaks:  make(map[string]float64),
	}
}

// Window returns the counter sampling window in cycles.
func (t *Writer) Window() int64 { return t.window }

// event is one Trace Event object. Every event carries ph, ts and pid
// (the fields the format's consumers key on); ts is microseconds — the
// machine domain maps one simulated cycle to one microsecond.
type event struct {
	Name string         `json:"name,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// emit serializes one event; callers hold the mutex.
func (t *Writer) emit(e *event) {
	if t.err != nil {
		return
	}
	data, err := json.Marshal(e)
	if err != nil {
		t.err = fmt.Errorf("timeline: %w", err)
		return
	}
	if t.first {
		t.first = false
		if _, t.err = t.w.WriteString("[\n"); t.err != nil {
			return
		}
	} else if _, t.err = t.w.WriteString(",\n"); t.err != nil {
		return
	}
	if _, t.err = t.w.Write(data); t.err != nil {
		return
	}
	t.events++
}

// Process allocates the next pid and names it with a process_name
// metadata event. The first call returns pid 1.
func (t *Writer) Process(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pids++
	pid := t.pids
	t.emit(&event{Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": name}})
	return pid
}

// Thread names a thread (track) within a process.
func (t *Writer) Thread(pid, tid int64, name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emit(&event{Name: "thread_name", Ph: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": name}})
}

// Span emits one complete ("X") duration event. Durations below one tick
// are clamped to one so viewers render them.
func (t *Writer) Span(pid, tid int64, name string, ts, dur int64, args map[string]any) {
	if dur < 1 {
		dur = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emit(&event{Name: name, Ph: "X", TS: ts, Dur: dur, PID: pid, TID: tid, Args: args})
}

// Counter emits one counter ("C") sample on the named track and keeps the
// per-track peak for the run manifest.
func (t *Writer) Counter(pid int64, track string, ts int64, value float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emit(&event{Name: track, Ph: "C", TS: ts, PID: pid,
		Args: map[string]any{"words/cycle": value}})
	if value > t.peaks[track] {
		t.peaks[track] = value
	}
}

// Summary condenses the export so far into a run manifest's timeline
// block: the events written, the counter window, each counter track's
// peak, and the share of stalled runtime of every entry that stalled. A
// nil Writer (no timeline) has no summary.
func (t *Writer) Summary(entries []obsv.LayerMetrics) *obsv.TimelineSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	s := &obsv.TimelineSummary{Events: t.events, WindowCycles: t.window}
	if len(t.peaks) > 0 {
		s.PeakWordsPerCycle = make(map[string]float64, len(t.peaks))
		for k, v := range t.peaks {
			s.PeakWordsPerCycle[k] = v
		}
	}
	t.mu.Unlock()
	for _, e := range entries {
		if e.StallCycles > 0 {
			s.LayerStalls = append(s.LayerStalls, obsv.LayerStall{Index: e.Index, Name: e.Name,
				StallFraction: float64(e.StallCycles) / float64(e.Cycles+e.StallCycles)})
		}
	}
	return s
}

// Close terminates the JSON array and flushes, returning the first error
// seen on the stream.
func (t *Writer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	if t.first {
		if _, err := t.w.WriteString("[]"); err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
		t.first = false
		return t.w.Flush()
	}
	if _, err := t.w.WriteString("\n]\n"); err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	return t.w.Flush()
}
