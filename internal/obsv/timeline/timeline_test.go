package timeline

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"scalesim/internal/obsv"
	"scalesim/internal/trace"
)

// decode unmarshals a finished timeline into event maps, failing the test
// on malformed JSON or events missing the required ph/ts/pid keys.
func decode(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("timeline is not a JSON array: %v\n%s", err, data)
	}
	for i, e := range events {
		for _, key := range []string{"ph", "ts", "pid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, e)
			}
		}
	}
	return events
}

func TestWriterEmitsWellFormedTraceEvents(t *testing.T) {
	var buf bytes.Buffer
	w := New(&buf, Options{Window: 32})
	if w.Window() != 32 {
		t.Fatalf("Window() = %d, want 32", w.Window())
	}
	machine := w.Process("simulated machine")
	if machine != 1 {
		t.Fatalf("first pid = %d, want 1", machine)
	}
	host := w.Process("host engine")
	if host != 2 {
		t.Fatalf("second pid = %d, want 2", host)
	}
	w.Thread(machine, TIDArray, "array")
	w.Span(machine, TIDArray, "Conv1", 0, 100, map[string]any{"index": 0})
	w.Span(machine, TIDArray, "tick", 5, 0, nil) // dur clamps to 1
	w.Counter(machine, TrackDRAMRead, 0, 2.5)
	w.Counter(machine, TrackDRAMRead, 64, 1.0)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	events := decode(t, buf.Bytes())
	sum := w.Summary([]obsv.LayerMetrics{
		{Index: 0, Name: "Conv1", Cycles: 100},
		{Index: 1, Name: "Conv2", Cycles: 30, StallCycles: 10},
	})
	if int64(len(events)) != sum.Events || sum.WindowCycles != 32 {
		t.Fatalf("decoded %d events, summary %+v", len(events), sum)
	}
	if want := []obsv.LayerStall{{Index: 1, Name: "Conv2", StallFraction: 0.25}}; !reflect.DeepEqual(sum.LayerStalls, want) {
		t.Fatalf("layer stalls %+v, want %+v", sum.LayerStalls, want)
	}
	if (*Writer)(nil).Summary(nil) != nil {
		t.Fatal("a nil Writer has a summary")
	}
	pids := map[float64]bool{}
	var sawX, sawC, sawM bool
	for _, e := range events {
		pids[e["pid"].(float64)] = true
		switch e["ph"] {
		case "X":
			sawX = true
			if e["name"] == "tick" && e["dur"].(float64) != 1 {
				t.Errorf("zero-duration span not clamped: %v", e)
			}
		case "C":
			sawC = true
		case "M":
			sawM = true
		}
	}
	if !sawX || !sawC || !sawM {
		t.Fatalf("missing phases: X=%v C=%v M=%v", sawX, sawC, sawM)
	}
	if len(pids) != 2 {
		t.Fatalf("got %d distinct pids, want 2", len(pids))
	}
	if peak := sum.PeakWordsPerCycle[TrackDRAMRead]; peak != 2.5 {
		t.Fatalf("peak = %v, want 2.5", peak)
	}
}

func TestWriterEmptyCloseIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	w := New(&buf, Options{})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if events := decode(t, buf.Bytes()); len(events) != 0 {
		t.Fatalf("empty writer produced %d events", len(events))
	}
}

func TestSamplerWindowsAndEmit(t *testing.T) {
	s := NewSampler(10)
	s.Add(3, 5)
	s.Add(7, 5)                                                    // same window as cycle 3
	s.Add(25, 20)                                                  // window 2; window 1 stays empty
	s.Consume(25, []int64{1, 2})                                   // +2 words via the element path
	s.ConsumeRuns(31, []trace.Run{{Base: 0, Stride: 1, Count: 8}}) // window 3

	if got := s.Total(); got != 40 {
		t.Fatalf("Total = %d, want 40", got)
	}
	first, last := s.Bounds()
	if first != 3 || last != 31 {
		t.Fatalf("Bounds = (%d, %d), want (3, 31)", first, last)
	}
	if got := s.PeakBytesPerCycle(); got != 2.2 {
		t.Fatalf("peak = %v, want 2.2", got)
	}

	var buf bytes.Buffer
	w := New(&buf, Options{Window: 10})
	pid := w.Process("p")
	s.Emit(w, pid, "track", 100)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	type sample struct{ ts, v float64 }
	var samples []sample
	for _, e := range decode(t, buf.Bytes()) {
		if e["ph"] != "C" {
			continue
		}
		samples = append(samples, sample{
			ts: e["ts"].(float64),
			v:  e["args"].(map[string]any)["words/cycle"].(float64),
		})
	}
	// Windows 0..3 hold 10, 0, 22, 8 words -> 1.0, 0, 2.2, 0.8 w/c, offset
	// by 100, plus the closing zero at the next window boundary.
	want := []sample{{100, 1.0}, {110, 0}, {120, 2.2}, {130, 0.8}, {140, 0}}
	if len(samples) != len(want) {
		t.Fatalf("got %d samples %v, want %v", len(samples), samples, want)
	}
	for i, s := range samples {
		if s != want[i] {
			t.Fatalf("sample %d = %v, want %v", i, s, want[i])
		}
	}
}

func TestSamplerOutOfOrderFrontGrowth(t *testing.T) {
	s := NewSampler(10)
	s.Add(50, 4)
	s.Add(12, 6) // earlier window arrives late
	if got := s.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	first, last := s.Bounds()
	if first != 12 || last != 50 {
		t.Fatalf("Bounds = (%d, %d), want (12, 50)", first, last)
	}
	if got := s.PeakBytesPerCycle(); got != 0.6 {
		t.Fatalf("peak = %v, want 0.6", got)
	}
}

// TestRecorderStallIntervals: the analyzer a recorder installs localizes
// its stalls — interval recording is on, every interval is positive and
// together they account for the stall total.
func TestRecorderStallIntervals(t *testing.T) {
	rec := NewLayerRecorder("L", 0, 64)
	p := rec.Stall(trace.NewStallAnalyzer(2.5))
	// A bursty demand schedule: heavy prefetch, idle gap, steady tail.
	for c := int64(0); c < 50; c++ {
		p.Add(c, 9)
	}
	for c := int64(200); c < 400; c += 2 {
		p.Add(c, 3)
	}
	p.Add(1000, 100)
	if len(p.Intervals()) == 0 {
		t.Fatal("bursty feed produced no intervals")
	}
	if got, want := rec.StallCycles(), p.StallCycles(); got != want || want == 0 {
		t.Fatalf("recorder StallCycles = %d, analyzer says %d", got, want)
	}
	var total int64
	for _, iv := range p.Intervals() {
		if iv.Dur <= 0 {
			t.Fatalf("non-positive interval %+v", iv)
		}
		total += iv.Dur
	}
	// Interval durations carry the integer part of each lag increase; the
	// fractional carry keeps the sum within one cycle of the exact total.
	if diff := p.StallCycles() - total; diff < 0 || diff > 1 {
		t.Fatalf("intervals sum to %d, StallCycles = %d", total, p.StallCycles())
	}
}

func TestLayerRecorderEmit(t *testing.T) {
	rec := NewLayerRecorder("Conv1", 0, 10)
	rec.Sampler(TrackSRAMIfmapRead).Add(0, 30)
	rec.Sampler(TrackDRAMRead).Add(0, 25)
	rec.Sampler(TrackDRAMRead).Add(90, 5)
	p := rec.Stall(trace.NewStallAnalyzer(1))
	p.Add(0, 25)
	rec.AddFold(0, 0, 8, 8, 0, 60)
	rec.AddFold(0, 1, 8, 4, 60, 40)
	rec.Finish(100, 12)

	var buf bytes.Buffer
	w := New(&buf, Options{Window: 10})
	pid := w.Process("m")
	rec.Emit(w, pid, DefaultPlacement(1000))
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var layer, folds, drain, stalls, counters int
	for _, e := range decode(t, buf.Bytes()) {
		name, _ := e["name"].(string)
		switch {
		case e["ph"] == "C":
			counters++
		case name == "Conv1":
			layer++
			if e["ts"].(float64) != 1000 || e["dur"].(float64) != 100 {
				t.Errorf("layer span misplaced: %v", e)
			}
		case strings.HasPrefix(name, "fold "):
			folds++
			if e["tid"].(float64) != TIDArray {
				t.Errorf("fold span off the array thread: %v", e)
			}
		case strings.Contains(name, "drain"):
			drain++
			if e["tid"].(float64) != TIDDRAM || e["ts"].(float64) != 1100 {
				t.Errorf("drain span misplaced: %v", e)
			}
		case name == "stall":
			stalls++
			if e["tid"].(float64) != TIDStalls {
				t.Errorf("stall span off the stall thread: %v", e)
			}
		}
	}
	if layer != 1 || folds != 2 || drain != 1 || stalls == 0 || counters == 0 {
		t.Fatalf("layer=%d folds=%d drain=%d stalls=%d counters=%d",
			layer, folds, drain, stalls, counters)
	}
}

func TestLayerRecorderPlacementDisablesGroups(t *testing.T) {
	rec := NewLayerRecorder("p0", 0, 10)
	rec.Sampler(TrackDRAMRead).Add(0, 10)
	rec.Finish(50, 5)

	var buf bytes.Buffer
	w := New(&buf, Options{Window: 10})
	pid := w.Process("m")
	rec.Emit(w, pid, Placement{Array: 3, DRAM: -1, Stall: -1, TrackPrefix: "p0."})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, e := range decode(t, buf.Bytes()) {
		name, _ := e["name"].(string)
		if strings.Contains(name, "drain") || strings.Contains(name, "dram read") {
			t.Fatalf("disabled DRAM group still emitted: %v", e)
		}
		if e["ph"] == "X" && e["tid"].(float64) != 3 {
			t.Fatalf("span off the placement thread: %v", e)
		}
		if e["ph"] == "C" && !strings.HasPrefix(name, "p0.") {
			t.Fatalf("counter track missing prefix: %v", e)
		}
	}
}

func TestEmitEngineSpans(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	spans := []obsv.Span{
		{Index: 0, Worker: 0, Exec: 5 * time.Millisecond, Enqueued: base,
			QueueWait: time.Millisecond, Join: 2 * time.Millisecond},
		{Index: 1, Worker: 1, Exec: 3 * time.Millisecond,
			Enqueued: base.Add(time.Millisecond), Err: true},
	}
	var buf bytes.Buffer
	w := New(&buf, Options{})
	EmitEngineSpans(w, spans, func(i int) string { return "layer" })
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var threads, jobs int
	for _, e := range decode(t, buf.Bytes()) {
		switch e["ph"] {
		case "M":
			if e["name"] == "thread_name" {
				threads++
			}
		case "X":
			jobs++
			args := e["args"].(map[string]any)
			idx := int(args["index"].(float64))
			if idx == 0 {
				// Enqueued at base + 1ms queue wait -> starts at ts 1000us.
				if e["ts"].(float64) != 1000 || e["dur"].(float64) != 5000 {
					t.Errorf("job 0 misplaced: %v", e)
				}
			}
			if idx == 1 && args["err"] != true {
				t.Errorf("failed job not flagged: %v", e)
			}
		}
	}
	if threads != 2 || jobs != 2 {
		t.Fatalf("threads=%d jobs=%d, want 2/2", threads, jobs)
	}
}

// denseSampler is the dense-slice windowed counter Sampler used to be, kept
// as the reference its meter-backed Emit is compared against.
type denseSampler struct {
	window, base       int64
	counts             []int64
	total, first, last int64
	seen               bool
}

func (s *denseSampler) add(cycle, words int64) {
	if words <= 0 {
		return
	}
	w := cycle / s.window
	if !s.seen {
		s.seen, s.base, s.first, s.last = true, w, cycle, cycle
	}
	s.first, s.last = min(s.first, cycle), max(s.last, cycle)
	idx := w - s.base
	if idx < 0 {
		grown := make([]int64, int64(len(s.counts))-idx)
		copy(grown[-idx:], s.counts)
		s.counts, s.base, idx = grown, w, 0
	}
	if n := idx + 1 - int64(len(s.counts)); n > 0 {
		s.counts = append(s.counts, make([]int64, n)...)
	}
	s.counts[idx] += words
	s.total += words
}

func (s *denseSampler) peak() float64 {
	var peak int64
	for _, c := range s.counts {
		peak = max(peak, c)
	}
	return float64(peak) / float64(s.window)
}

func (s *denseSampler) emit(w *Writer, pid int64, track string, offset int64) {
	if !s.seen {
		return
	}
	prev := math.Inf(-1)
	for i, c := range s.counts {
		v := float64(c) / float64(s.window)
		if v == prev {
			continue
		}
		w.Counter(pid, track, offset+(s.base+int64(i))*s.window, v)
		prev = v
	}
	if prev != 0 {
		w.Counter(pid, track, offset+(s.base+int64(len(s.counts)))*s.window, 0)
	}
}

// TestSamplerEmitAgainstDenseReference: random windows, gaps between active
// windows, cycles arriving before the first window seen, equal neighbouring
// windows and offsets must all reach the timeline byte for byte as the
// dense slice put them there.
func TestSamplerEmitAgainstDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 300; trial++ {
		window := []int64{1, 7, 64, 100}[rng.Intn(4)]
		s, ref := NewSampler(window), &denseSampler{window: window}
		cycle := rng.Int63n(50 * window)
		for n := rng.Intn(60); n > 0; n-- {
			switch rng.Intn(6) {
			case 0: // a gap of whole windows
				cycle += window * (2 + rng.Int63n(5))
			case 1: // out of order, possibly in front of everything so far
				cycle = max(0, cycle-rng.Int63n(6*window))
			default:
				cycle += rng.Int63n(window + 1)
			}
			words := rng.Int63n(4) * window / 2 // zero, and equal counts in neighbouring windows
			if rng.Intn(3) == 0 {
				words = rng.Int63n(40)
			}
			s.Add(cycle, words)
			ref.add(cycle, words)
		}
		if s.Active() != ref.seen || s.Total() != ref.total || s.PeakBytesPerCycle() != ref.peak() {
			t.Fatalf("trial %d: active %t total %d peak %v, reference %t %d %v",
				trial, s.Active(), s.Total(), s.PeakBytesPerCycle(), ref.seen, ref.total, ref.peak())
		}
		if first, last := s.Bounds(); first != ref.first || last != ref.last {
			t.Fatalf("trial %d: bounds (%d, %d), reference (%d, %d)", trial, first, last, ref.first, ref.last)
		}
		offset := rng.Int63n(1000)
		var got, want bytes.Buffer
		for _, side := range []struct {
			buf  *bytes.Buffer
			emit func(*Writer, int64, string, int64)
		}{{&got, s.Emit}, {&want, ref.emit}} {
			w := New(side.buf, Options{Window: window})
			side.emit(w, w.Process("p"), "track", offset)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d (window %d): timelines differ\n got %s\nwant %s", trial, window, got.Bytes(), want.Bytes())
		}
	}
}
