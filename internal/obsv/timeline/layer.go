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

// FoldSpan is one fold's placement in the systolic schedule.
type FoldSpan struct {
	// FR and FC are the fold's coordinates in the fold grid.
	FR, FC int64
	// Rows and Cols are the mapped array extent.
	Rows, Cols int64
	// Start and Cycles place the fold on the layer-local cycle axis.
	Start, Cycles int64
}

// PassSpan is one pass of a vector-unit operator — the vector analogue of
// a fold span.
type PassSpan struct {
	// Label names the pass ("max", "exp-sum", "normalize", "map").
	Label string
	// Start and Cycles place the pass on the layer-local cycle axis.
	Start, Cycles int64
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
	folds      []FoldSpan
	passes     []PassSpan
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

// Stall installs an interval-recording stall analyzer for a bounded DRAM
// link (wordsPerCycle must be positive); attach the returned consumer to
// both DRAM streams.
func (r *LayerRecorder) Stall(wordsPerCycle float64) *trace.StallAnalyzer {
	r.stall = trace.NewStallAnalyzer(wordsPerCycle)
	r.stall.RecordIntervals(r.window)
	return r.stall
}

// AddFold records one fold of the systolic schedule.
func (r *LayerRecorder) AddFold(fr, fc, rows, cols, start, cycles int64) {
	r.folds = append(r.folds, FoldSpan{FR: fr, FC: fc, Rows: rows, Cols: cols,
		Start: start, Cycles: cycles})
}

// AddPass records one pass of a vector-unit operator.
func (r *LayerRecorder) AddPass(label string, start, cycles int64) {
	r.passes = append(r.passes, PassSpan{Label: label, Start: start, Cycles: cycles})
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
		for _, f := range r.folds {
			w.Span(pid, pl.Array, fmt.Sprintf("fold %d,%d", f.FR, f.FC),
				pl.Offset+f.Start, f.Cycles,
				map[string]any{"rows": f.Rows, "cols": f.Cols})
		}
		for _, p := range r.passes {
			w.Span(pid, pl.Array, "pass "+p.Label, pl.Offset+p.Start, p.Cycles, nil)
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
