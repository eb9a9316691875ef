// Package obsv is the simulator's instrumentation layer: a metrics
// registry (counters, gauges, timing histograms with p50/p95/p99), span
// recording for the execution engine's scheduler, per-run phase timers,
// live progress reporting, a pprof server helper, and a machine-readable
// run manifest that snapshots all of it as one JSON document.
//
// The package depends only on the standard library and is built around a
// single rule: observability must never change what the simulator
// computes. Every recording type is safe for concurrent use, everything
// is nil-safe — calling any method on a nil *Recorder, *Registry,
// *Counter, *Gauge, *Histogram or *Progress is a no-op — and the
// execution engine emits its spans after the deterministic in-order join,
// so traces and aggregates are byte-identical whether instrumentation is
// attached or not. Disabled means nil, and nil means the hot path pays a
// pointer comparison, not a clock read.
package obsv

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Hash returns a stable identifier for a configuration value:
// "sha256:<hex>" over the value's Go-syntax representation. Two runs with
// identical configurations produce identical hashes within one build of
// the tool, which is what a manifest needs to group comparable runs.
func Hash(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", v)))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// PhaseTiming is one named run phase's wall-clock cost, in completion
// order.
type PhaseTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Recorder bundles everything one run records: the metrics registry, the
// engine span recorder, phase timers, per-layer wall timings and Go
// runtime deltas. A nil *Recorder is the disabled state — every method is
// a no-op and Manifest still produces a valid (runtime-stats-only)
// document.
type Recorder struct {
	mu       sync.Mutex
	reg      Registry
	spans    SpanRecorder
	start    time.Time
	startMem runtime.MemStats
	phases   []PhaseTiming
	layers   map[int]float64 // unit index -> wall seconds
	hwm      int
}

// NewRecorder starts a recorder: the run clock and the runtime baselines
// (allocations, GC) are captured now so the manifest reports deltas over
// the instrumented run rather than process-lifetime totals.
func NewRecorder() *Recorder {
	r := &Recorder{start: time.Now(), layers: make(map[int]float64)}
	runtime.ReadMemStats(&r.startMem)
	r.sample()
	return r
}

// Enabled reports whether instrumentation is attached.
func (r *Recorder) Enabled() bool { return r != nil }

// Metrics returns the recorder's registry, or nil when disabled; both
// cases are safe to record into.
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return &r.reg
}

// SpanSink returns the sink the execution engine should emit spans to, or
// nil when disabled. (A plain &r.spans would be a non-nil interface even
// for a nil recorder, defeating the engine's fast path.)
func (r *Recorder) SpanSink() SpanSink {
	if r == nil {
		return nil
	}
	return &r.spans
}

// Spans returns the recorded engine spans in emission order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans.Spans()
}

var noop = func() {}

// Phase starts a named wall-clock phase and returns its stop function.
// Phases are recorded in completion order; a nil recorder returns a
// shared no-op without reading the clock.
func (r *Recorder) Phase(name string) func() {
	if r == nil {
		return noop
	}
	t0 := time.Now()
	return func() {
		d := time.Since(t0)
		r.mu.Lock()
		r.phases = append(r.phases, PhaseTiming{Name: name, Seconds: d.Seconds()})
		r.mu.Unlock()
		r.sample()
	}
}

// Time starts a timer that observes its duration (in seconds) into the
// registry histogram of the given name when stopped. Unlike Phase, the
// samples aggregate: one histogram collects every layer's compute time.
func (r *Recorder) Time(name string) func() {
	if r == nil {
		return noop
	}
	t0 := time.Now()
	return func() { r.reg.Histogram(name).Observe(time.Since(t0).Seconds()) }
}

// ObserveLayer records one unit of work's wall-clock cost under its index
// in the execution order, where Record finds it. Safe to call from
// concurrent workers, in any completion order.
func (r *Recorder) ObserveLayer(index int, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.layers[index] = d.Seconds()
	r.mu.Unlock()
	r.sample()
}

// LayerSeconds returns the recorded wall-clock cost of the unit at index,
// or zero when disabled or unrecorded.
func (r *Recorder) LayerSeconds(index int) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.layers[index]
}

// sample updates the goroutine high-water mark. The recorder samples
// opportunistically — at phase stops, layer completions and manifest
// snapshots — instead of running a background poller, so attaching
// instrumentation never spawns goroutines of its own.
func (r *Recorder) sample() {
	n := runtime.NumGoroutine()
	r.mu.Lock()
	if n > r.hwm {
		r.hwm = n
	}
	r.mu.Unlock()
}
