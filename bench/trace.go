package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"scalesim/internal/trace"
)

// span is one interval at a layer boundary, recorded by the harness around
// a call into a module's public API. Spans of one request (an HTTP
// request, a simulated node, a fig12 point) share Req; Parent is the ID of
// the span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    string `json:"req"`
	// Name is "<layer>.<what>"; the part before the dot is the module.
	Name string `json:"name"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Busy is the time spent inside the span. For a plain span it is
	// End-Start; a shim that stands for many calls between Start and End
	// reports the time inside those calls.
	Busy int64 `json:"busy_ns"`
	// Counts are the work done inside the span, counted where it happened.
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// add stores a span and returns its ID.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// reserve allocates a span ID before its interval is known, so children
// recorded meanwhile can name their parent; fill completes it.
func (t *tracer) reserve(parent int, req, name string) int {
	return t.add(span{Parent: parent, Req: req, Name: name})
}

func (t *tracer) fill(id int, start, end time.Time, counts map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Start, s.End = t.since(start), t.since(end)
	s.Busy = s.End - s.Start
	s.Counts = counts
}

// timed records a plain span around f.
func (t *tracer) timed(parent int, req, name string, f func() error) (int, error) {
	id := t.reserve(parent, req, name)
	start := time.Now()
	err := f()
	t.fill(id, start, time.Now(), nil)
	return id, err
}

// selfTimes returns each span's self time: its busy time minus the busy
// time of the spans it caused. By construction children plus self equal
// the span.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.Busy
		if s.Parent != 0 {
			self[s.Parent] -= s.Busy
		}
	}
	return self
}

// rollup sums, per span name, the self time, busy time, span count and
// counts of all spans.
type rollup struct {
	self, busy int64
	spans      int64
	counts     map[string]int64
}

func rollupByName(spans []span) map[string]*rollup {
	self := selfTimes(spans)
	out := map[string]*rollup{}
	for _, s := range spans {
		r := out[s.Name]
		if r == nil {
			r = &rollup{counts: map[string]int64{}}
			out[s.Name] = r
		}
		r.self += self[s.ID]
		r.busy += s.Busy
		r.spans++
		for k, v := range s.Counts {
			r.counts[k] += v
		}
	}
	return out
}

// get returns the named rollup or an empty one, so metric code reads
// absent layers as zero.
func get(m map[string]*rollup, name string) *rollup {
	if r := m[name]; r != nil {
		return r
	}
	return &rollup{counts: map[string]int64{}}
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// write stores the spans as JSON under bench/out and says where.
func (t *tracer) write(root, workload string) error {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, workload+".trace.json")
	t.mu.Lock()
	data, err := json.Marshal(map[string]any{"schema": "scalesim.bench.trace/v1", "workload": workload, "spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	fmt.Printf("bench: %d spans written to %s\n", len(t.spans), path)
	return os.WriteFile(path, data, 0o644)
}

// sampleEvery is the stride at which a shim reads the clock. The systolic
// array calls its sinks once per simulated cycle per stream (15 million
// calls on ResNet50) and a clock pair costs about 100 ns here, so timing
// every call would double the run it measures. A prime stride keeps the
// sample from locking onto the power-of-two periods of folds and rows.
const sampleEvery = 29

// clockCost is what a timed interval reads when nothing happens inside
// it: the part of a clock pair that falls between the two readings. A
// sink call costs about 200 ns, so leaving this in would overstate every
// shim by a quarter. Calibrated once at start-up as the median of many
// empty intervals.
var clockCost = func() time.Duration {
	const n = 20001
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}()

// shim wraps a trace consumer, counting every call and timing a sample of
// them. It stands between two modules and is the only place the harness
// observes their traffic: timed between memory and the DRAM-side
// consumers, counting only (newCounter) between systolic and memory.
// Words are not counted here: the modules' own reports carry them.
type shim struct {
	inner trace.Consumer
	runs  trace.RunConsumer
	every int64

	calls, runsN int64
	sampled      int64
	busy         time.Duration
	first, last  time.Time
}

func newShim(c trace.Consumer) *shim {
	return &shim{inner: c, runs: trace.Runs(c), every: sampleEvery}
}

// newCounter is a shim that never reads the clock.
func newCounter(c trace.Consumer) *shim {
	return &shim{inner: c, runs: trace.Runs(c)}
}

// due counts a call and reports whether to time it: the first stride of
// calls all (so a short stream is measured exactly), then every stride-th.
func (s *shim) due() bool {
	s.calls++
	return s.every > 0 && (s.calls <= s.every || s.calls%s.every == 0)
}

func (s *shim) observe(t0 time.Time) {
	now := time.Now()
	s.busy += max(0, now.Sub(t0)-clockCost)
	s.sampled++
	if s.first.IsZero() {
		s.first = t0
	}
	s.last = now
}

// Consume implements trace.Consumer.
func (s *shim) Consume(cycle int64, addrs []int64) {
	s.runsN++
	if !s.due() {
		s.inner.Consume(cycle, addrs)
		return
	}
	t0 := time.Now()
	s.inner.Consume(cycle, addrs)
	s.observe(t0)
}

// ConsumeRuns implements trace.RunConsumer.
func (s *shim) ConsumeRuns(cycle int64, runs []trace.Run) {
	s.runsN += int64(len(runs))
	if !s.due() {
		s.runs.ConsumeRuns(cycle, runs)
		return
	}
	t0 := time.Now()
	s.runs.ConsumeRuns(cycle, runs)
	s.observe(t0)
}

// take turns what the shim saw since the last take into a span under
// parent and resets it. Busy is the sampled time scaled to all calls.
// every sets the stride for the next phase (1 = time every call, for
// phases of a few large calls such as the end-of-layer drain).
func (s *shim) take(t *tracer, parent int, req, name string, every int64) int {
	var busy int64
	if s.sampled > 0 {
		busy = int64(float64(s.busy) * float64(s.calls) / float64(s.sampled))
	}
	sp := span{Parent: parent, Req: req, Name: name, Busy: busy,
		Counts: map[string]int64{"calls": s.calls, "runs": s.runsN}}
	if !s.first.IsZero() {
		sp.Start, sp.End = t.since(s.first), t.since(s.last)
	}
	id := t.add(sp)
	*s = shim{inner: s.inner, runs: s.runs, every: every}
	return id
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
