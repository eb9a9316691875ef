package timeline

import (
	"fmt"

	"scalesim/internal/trace"
)

// Counter track names of the per-layer bandwidth series: the three SRAM
// streams, the merged DRAM read/write interface, and the three
// per-operand DRAM streams (the original tool's six trace files beyond
// the merged pair).
const (
	TrackSRAMIfmapRead  = "sram.ifmap_read"
	TrackSRAMFilterRead = "sram.filter_read"
	TrackSRAMOfmapWrite = "sram.ofmap_write"
	TrackDRAMRead       = "dram.read"
	TrackDRAMWrite      = "dram.write"
	TrackDRAMIfmapRead  = "dram.ifmap_read"
	TrackDRAMFilterRead = "dram.filter_read"
	TrackDRAMOfmapWrite = "dram.ofmap_write"
)

// Tracks lists every counter track in canonical emission order.
var Tracks = []string{
	TrackSRAMIfmapRead, TrackSRAMFilterRead, TrackSRAMOfmapWrite,
	TrackDRAMRead, TrackDRAMWrite,
	TrackDRAMIfmapRead, TrackDRAMFilterRead, TrackDRAMOfmapWrite,
}

// Thread ids of the simulated-machine process.
const (
	// TIDArray carries the layer and fold spans.
	TIDArray = 0
	// TIDDRAM carries the DRAM interface phases (prefetch span, drain).
	TIDDRAM = 1
	// TIDStalls carries the bounded-link stall intervals.
	TIDStalls = 2
)

// arraySpan is one child of the layer span on the array thread, placed on
// the layer-local cycle axis: a fold of the systolic schedule (rows x cols
// is the mapped array extent) or a pass of a vector-unit operator (no
// extent).
type arraySpan struct {
	name                      string
	start, cycles, rows, cols int64
}

// LayerRecorder buffers one layer's (or partition's) machine-domain
// events while the layer simulates on a worker goroutine. Nothing is
// written until Emit, which the caller invokes after the engine's
// deterministic join with the layer's serialized cycle offset — so the
// timeline never perturbs execution order or results.
//
// A recorder is used by exactly one job; it is not safe for concurrent
// use (matching the engine's one-SinkSet-per-job discipline).
type LayerRecorder struct {
	// Name labels the layer span.
	Name string
	// Index is the job's position in the execution order.
	Index int

	window     int64
	samplers   map[string]*Sampler
	stall      *trace.StallAnalyzer
	spans      []arraySpan
	op         string
	cycles     int64
	drainWords int64
}

// NewLayerRecorder builds a recorder with the given counter window.
func NewLayerRecorder(name string, index int, window int64) *LayerRecorder {
	if window <= 0 {
		window = DefaultWindow
	}
	return &LayerRecorder{
		Name:     name,
		Index:    index,
		window:   window,
		samplers: make(map[string]*Sampler),
	}
}

// Sampler returns the counter sampler for a track, creating it on first
// use; attach it to the matching trace stream.
func (r *LayerRecorder) Sampler(track string) *Sampler {
	s, ok := r.samplers[track]
	if !ok {
		s = NewSampler(r.window)
		r.samplers[track] = s
	}
	return s
}

// Stall adopts the layer's stall analyzer for a bounded DRAM link and
// switches interval recording on for it (which leaves its StallCycles as
// they were); the caller attaches it to both DRAM streams, before any
// traffic.
func (r *LayerRecorder) Stall(a *trace.StallAnalyzer) *trace.StallAnalyzer {
	r.stall = a
	a.RecordIntervals(r.window)
	return a
}

// AddFold records one fold of the systolic schedule.
func (r *LayerRecorder) AddFold(fr, fc, rows, cols, start, cycles int64) {
	r.spans = append(r.spans, arraySpan{fmt.Sprintf("fold %d,%d", fr, fc), start, cycles, rows, cols})
}

// AddPass records one pass of a vector-unit operator.
func (r *LayerRecorder) AddPass(label string, start, cycles int64) {
	r.spans = append(r.spans, arraySpan{name: "pass " + label, start: start, cycles: cycles})
}

// SetOp tags the recorder with the node's operator kind; it is attached
// to the layer span's arguments so the viewer can tell vector operators
// from systolic layers.
func (r *LayerRecorder) SetOp(op string) { r.op = op }

// Finish records the layer's total runtime and the OFMAP words drained at
// the end of it.
func (r *LayerRecorder) Finish(cycles, drainWords int64) {
	r.cycles = cycles
	r.drainWords = drainWords
}

// StallCycles returns the profiled stall total (zero without a bounded
// link).
func (r *LayerRecorder) StallCycles() int64 {
	if r.stall == nil {
		return 0
	}
	return r.stall.StallCycles()
}

// Placement controls where Emit puts the recorder's events inside a
// process: the cycle offset of the layer in the serialized execution, the
// thread ids for each event group (negative disables the group), and an
// optional prefix distinguishing counter tracks of sibling recorders.
type Placement struct {
	// Offset shifts every timestamp (the layer's StartCycle).
	Offset int64
	// Array, DRAM and Stall are the target thread ids; a negative id
	// drops that event group.
	Array, DRAM, Stall int64
	// TrackPrefix is prepended to counter track names.
	TrackPrefix string
}

// DefaultPlacement targets the canonical machine threads with no offset.
func DefaultPlacement(offset int64) Placement {
	return Placement{Offset: offset, Array: TIDArray, DRAM: TIDDRAM, Stall: TIDStalls}
}

// Emit writes the buffered events into the writer's pid. The layer span
// nests the fold spans on the array thread; DRAM prefetch/drain phases
// and stall intervals go to their own threads so overlapping spans never
// break the viewer's nesting.
func (r *LayerRecorder) Emit(w *Writer, pid int64, pl Placement) {
	if pl.Array >= 0 && r.cycles > 0 {
		args := map[string]any{"index": r.Index}
		if r.op != "" {
			args["op"] = r.op
		}
		if sc := r.StallCycles(); sc > 0 {
			args["stall_cycles"] = sc
		}
		w.Span(pid, pl.Array, r.Name, pl.Offset, r.cycles, args)
		for _, sp := range r.spans {
			var extent map[string]any
			if sp.rows > 0 {
				extent = map[string]any{"rows": sp.rows, "cols": sp.cols}
			}
			w.Span(pid, pl.Array, sp.name, pl.Offset+sp.start, sp.cycles, extent)
		}
	}
	if pl.DRAM >= 0 {
		if s, ok := r.samplers[TrackDRAMRead]; ok && s.Active() {
			first, last := s.Bounds()
			w.Span(pid, pl.DRAM, r.Name+" dram read", pl.Offset+first, last-first+1,
				map[string]any{"words": s.Total()})
		}
		if r.drainWords > 0 {
			dur := int64(1)
			if r.stall != nil {
				dur = int64(float64(r.drainWords)/r.stall.WordsPerCycle) + 1
			}
			w.Span(pid, pl.DRAM, r.Name+" ofmap drain", pl.Offset+r.cycles, dur,
				map[string]any{"words": r.drainWords})
		}
	}
	if pl.Stall >= 0 && r.stall != nil {
		for _, iv := range r.stall.Intervals() {
			w.Span(pid, pl.Stall, "stall", pl.Offset+iv.Start, iv.Dur, nil)
		}
	}
	for _, track := range Tracks {
		if s, ok := r.samplers[track]; ok {
			s.Emit(w, pid, pl.TrackPrefix+track, pl.Offset)
		}
	}
}
