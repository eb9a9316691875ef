// Package systolic is the cycle-accurate core of the simulator: it plays a
// layer's dataflow over an R x C systolic array and emits the resulting SRAM
// read and write traces, exactly in the inside-out style of the original
// SCALE-Sim (Sec. II-C): the array is assumed never to stall, addresses are
// generated for the data the edges must receive each cycle for that to hold,
// and runtime falls out of the trace itself.
//
// The workload is tiled into folds over the spatial dimensions
// (F_R = ceil(S_R/R), F_C = ceil(S_C/C), Eq. 2); each fold occupies the
// array for 2R + C + T - 2 cycles (Eq. 3) and folds execute back to back,
// so the simulated runtime matches the paper's analytical model (Eq. 4)
// exactly. An optional edge-trim mode charges partial folds only for the
// rows and columns they map.
package systolic

import (
	"fmt"

	"scalesim/internal/config"
	"scalesim/internal/dataflow"
	"scalesim/internal/mathutil"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
)

// Sinks receive the three SRAM trace streams of a run. Nil members discard
// their stream. Each cycle's batch is delivered in run form when the
// consumer implements trace.RunConsumer; element-only consumers (a
// trace.ConsumerFunc) receive the identical expanded batch through
// trace.Runs' materializing adapter.
type Sinks struct {
	// IfmapRead receives IFMAP SRAM read events.
	IfmapRead trace.Consumer
	// FilterRead receives filter SRAM read events.
	FilterRead trace.Consumer
	// OfmapWrite receives OFMAP SRAM write events.
	OfmapWrite trace.Consumer
	// Folds, when non-nil, observes every fold's placement in the
	// schedule as it is generated. Purely observational: trace output and
	// results are unaffected, and a nil observer costs one comparison per
	// fold.
	Folds FoldObserver
}

// FoldInfo describes one fold of the schedule: its coordinates in the
// fold grid, the mapped array extent, and its interval on the layer-local
// cycle axis.
type FoldInfo struct {
	// FR and FC are the fold's coordinates along the spatial dimensions.
	FR, FC int64
	// Rows and Cols are the mapped rows and columns (<= R, C).
	Rows, Cols int64
	// T is the mapping's temporal extent.
	T int64
	// Start is the fold's first cycle; Cycles its duration (Eq. 3).
	Start, Cycles int64
}

// FoldObserver receives fold placements during a run.
type FoldObserver interface{ ObserveFold(FoldInfo) }

// FoldObserverFunc adapts a function to the FoldObserver interface.
type FoldObserverFunc func(FoldInfo)

// ObserveFold calls f.
func (f FoldObserverFunc) ObserveFold(fi FoldInfo) { f(fi) }

// runSinks is the resolved run-path view of Sinks.
type runSinks struct {
	ifmapRead, filterRead, ofmapWrite trace.RunConsumer
}

func (s Sinks) runs() runSinks {
	return runSinks{
		ifmapRead:  trace.Runs(s.IfmapRead),
		filterRead: trace.Runs(s.FilterRead),
		ofmapWrite: trace.Runs(s.OfmapWrite),
	}
}

// edge names the wavefront a fold plays into an array edge.
type edge int

const (
	leftEdge   edge = iota // RowStream: the left edge's operand
	topEdge                // ColStream: the top edge's operand (OS)
	bottomEdge             // Output: the results leaving the bottom edge (WS, IS)
)

// wavefront plays one fold's block — blk.N lanes (rows, or columns) from
// blk.Off, T temporal steps each, as blk declares it — into c: lane k takes
// step t at cycle start+k+t, so the slice at u covers the lanes with k+t =
// u. The block is bracketed for consumers that can prove it a no-op
// (trace.BlockConsumer): when they do, no run is generated. A
// BlockConsumer takes the steady part of the wavefront as sweeps: every
// slice of u in [min(N,T)-1, max(N,T)-1] is min(N,T) lanes wide and the
// previous one moved one lane (N > T) or one step (N <= T) further, and
// the Mapper says for how many slices that keeps its runs. The ramps, and
// everything any other consumer receives, are single calls.
func (s *sim) wavefront(c trace.RunConsumer, e edge, blk trace.Block, start int64) {
	b, ok := c.(trace.BlockConsumer)
	if ok && b.BeginBlock(blk) {
		return
	}
	n, T := blk.N, s.m.T
	steady, last := min(n, T)-1, max(n, T)-1
	for u := int64(0); u <= n-1+T-1; {
		lo := max(0, u-T+1)
		i, t, k := blk.Off+lo, u-lo, min(n-1, u)-lo+1
		s.runs = s.slice(e, i, t, k)
		sw := trace.Sweep{Cycle: start + u, Runs: s.runs, Times: 1}
		if ok && u >= steady && u < last {
			switch e {
			case leftEdge:
				sw.Step, sw.Times = s.mp.RowStreamSweep(i, t, k, n > T)
			case topEdge:
				sw.Step, sw.Times = s.mp.ColStreamSweep(n > T)
			case bottomEdge:
				sw.Step, sw.Times = s.mp.OutputSweep(n > T)
			}
			sw.Times = min(sw.Times, last-u+1)
		}
		if sw.Times > 1 {
			b.ConsumeSweep(sw)
		} else {
			c.ConsumeRuns(sw.Cycle, sw.Runs)
		}
		u += sw.Times
	}
	if ok {
		b.EndBlock()
	}
}

// slice returns the runs of the k lanes from lane i, the first at step t
// and each next one a step behind, on edge e.
func (s *sim) slice(e edge, i, t, k int64) []trace.Run {
	switch e {
	case leftEdge:
		return s.mp.RowStreamRuns(i, t, k, s.runs[:0])
	case topEdge:
		return s.mp.ColStreamRuns(i, t, k, s.runs[:0])
	}
	return s.mp.OutputRuns(t, -1, i, 1, k, s.runs[:0])
}

// Result aggregates one layer's simulation.
type Result struct {
	// Layer is the simulated layer.
	Layer topology.Layer
	// Dataflow used for the run.
	Dataflow config.Dataflow
	// Mapping is the layer's spatio-temporal shape under the dataflow.
	Mapping dataflow.Mapping
	// Rows and Cols are the array dimensions.
	Rows, Cols int
	// FoldsR and FoldsC are the fold counts along each spatial dimension.
	FoldsR, FoldsC int64
	// Cycles is the total stall-free runtime in cycles.
	Cycles int64
	// MACs is the number of multiply-accumulate operations performed.
	MACs int64
	// IfmapReads, FilterReads and OfmapWrites count SRAM word accesses.
	IfmapReads, FilterReads, OfmapWrites int64
	// MappingUtilization is the average fraction of PEs with work mapped,
	// over folds (the "array utilization" of Fig. 9).
	MappingUtilization float64
	// ComputeUtilization is MACs / (R*C*Cycles): the fraction of MAC-cycles
	// doing useful work including fill/drain overheads.
	ComputeUtilization float64
}

// Window selects a rectangular slice of a mapping's spatial space: the
// portion of S_R x S_C one scale-out partition is responsible for (Eq. 5).
// The zero value selects the full space.
type Window struct {
	// SrOff and ScOff are the slice origin.
	SrOff, ScOff int64
	// SrLen and ScLen are the slice extents; zero means "to the end".
	SrLen, ScLen int64
}

// resolve clamps the window to the mapping and applies defaults.
func (w Window) resolve(m dataflow.Mapping) (Window, error) {
	if w.SrLen == 0 {
		w.SrLen = m.Sr - w.SrOff
	}
	if w.ScLen == 0 {
		w.ScLen = m.Sc - w.ScOff
	}
	if w.SrOff < 0 || w.ScOff < 0 || w.SrLen < 1 || w.ScLen < 1 ||
		w.SrOff+w.SrLen > m.Sr || w.ScOff+w.ScLen > m.Sc {
		return Window{}, fmt.Errorf("systolic: window %+v outside mapping %dx%d", w, m.Sr, m.Sc)
	}
	return w, nil
}

// Run simulates one layer on the configured array and streams the traces to
// sinks. It validates the configuration and layer first.
func Run(l topology.Layer, cfg config.Config, sinks Sinks) (Result, error) {
	return RunWindow(l, cfg, Window{}, sinks)
}

// RunWindow simulates only the given spatial slice of the layer: the
// workload of one scale-out partition. Trace addresses remain global, so
// replicated fetches across partitions are visible to the memory system.
func RunWindow(l topology.Layer, cfg config.Config, win Window, sinks Sinks) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := l.Validate(); err != nil {
		return Result{}, err
	}
	mp := dataflow.NewMapper(l, cfg.Dataflow, dataflow.OffsetsFromConfig(cfg))
	win, err := win.resolve(mp.Mapping())
	if err != nil {
		return Result{}, err
	}
	sim := &sim{
		cfg:   cfg,
		mp:    mp,
		m:     mp.Mapping(),
		win:   win,
		sinks: sinks.runs(),
		folds: sinks.Folds,
	}
	return sim.run(l)
}

// sim carries one run's state.
type sim struct {
	cfg   config.Config
	mp    *dataflow.Mapper
	m     dataflow.Mapping
	win   Window
	sinks runSinks
	folds FoldObserver
	runs  []trace.Run // reusable batch buffer
}

func (s *sim) run(l topology.Layer) (Result, error) {
	R, C := int64(s.cfg.ArrayHeight), int64(s.cfg.ArrayWidth)
	srLen, scLen := s.win.SrLen, s.win.ScLen
	foldsR := mathutil.CeilDiv(srLen, R)
	foldsC := mathutil.CeilDiv(scLen, C)

	res := Result{
		Layer:    l,
		Dataflow: s.cfg.Dataflow,
		Mapping:  dataflow.Mapping{Dataflow: s.m.Dataflow, Sr: srLen, Sc: scLen, T: s.m.T},
		Rows:     s.cfg.ArrayHeight,
		Cols:     s.cfg.ArrayWidth,
		FoldsR:   foldsR,
		FoldsC:   foldsC,
		MACs:     srLen * scLen * s.m.T,
	}

	var base int64
	var mappedPE, totalPE int64
	for fr := int64(0); fr < foldsR; fr++ {
		rows := min(R, srLen-fr*R)
		for fc := int64(0); fc < foldsC; fc++ {
			cols := min(C, scLen-fc*C)
			f := fold{
				base:   base,
				rowOff: s.win.SrOff + fr*R,
				colOff: s.win.ScOff + fc*C,
				rows:   rows,
				cols:   cols,
				T:      s.m.T,
			}
			switch s.cfg.Dataflow {
			case config.OutputStationary:
				s.foldOS(f)
			case config.WeightStationary:
				s.foldWS(f)
			case config.InputStationary:
				s.foldIS(f)
			default:
				return Result{}, fmt.Errorf("systolic: unknown dataflow %v", s.cfg.Dataflow)
			}
			dur := foldCycles(R, C, rows, cols, s.m.T, s.cfg.EdgeTrim)
			if s.folds != nil {
				s.folds.ObserveFold(FoldInfo{FR: fr, FC: fc, Rows: rows,
					Cols: cols, T: s.m.T, Start: base, Cycles: dur})
			}
			base += dur
			mappedPE += rows * cols
			totalPE += R * C
		}
	}
	res.Cycles = base
	res.MappingUtilization = float64(mappedPE) / float64(totalPE)
	res.ComputeUtilization = float64(res.MACs) / (float64(R*C) * float64(res.Cycles))
	res.IfmapReads, res.FilterReads, res.OfmapWrites =
		accessCounts(s.cfg.Dataflow, srLen, scLen, s.m.T, R, C)
	return res, nil
}

// foldCycles returns the duration of one fold: Eq. 3 with the full array
// dimensions, or with the mapped rows/cols under edge trimming.
func foldCycles(R, C, rows, cols, T int64, edgeTrim bool) int64 {
	if edgeTrim {
		return 2*rows + cols + T - 2
	}
	return 2*R + C + T - 2
}

// fold describes one tile of the spatial space mapped onto the array.
type fold struct {
	base       int64 // starting cycle
	rowOff     int64 // global spatial row of array row 0
	colOff     int64 // global spatial column of array column 0
	rows, cols int64 // mapped rows and columns (<= R, C)
	T          int64
}

// foldOS emits the OS-dataflow trace of one fold.
//
// Feed: array row i receives the ifmap operand for temporal step t at cycle
// base+i+t (skewed); column j receives the filter operand for step t at
// base+j+t. Drain: all outputs shift out of the bottom edge after the last
// PE finishes at base+rows+cols+T-3; each column emits one output per cycle
// for rows cycles.
//
// Each cycle's wavefront slice is generated as strided runs in O(segments)
// rather than one Mapper call per element; the runs expand to exactly the
// per-element batches of the legacy schedule (pinned by equivalence tests).
func (s *sim) foldOS(f fold) {
	// Left edge: ifmap; the block repeats for every column fold of this row
	// fold. Top edge: filter; the block repeats for every row fold.
	s.wavefront(s.sinks.ifmapRead, leftEdge, s.mp.RowBlock(f.rowOff, f.rows), f.base)
	s.wavefront(s.sinks.filterRead, topEdge, s.mp.ColBlock(f.colOff, f.cols), f.base)
	// Drain: after the bottom-right mapped PE finishes, one output row a
	// cycle from the bottom row up — one sweep, a row of the OFMAP further
	// back each cycle, bracketed as the fold's output tile.
	finish := f.base + f.rows + f.cols + f.T - 3
	blk := s.mp.OutputTile(f.rowOff, f.rows, f.colOff, f.cols)
	s.runs = s.mp.OutputRuns(f.rowOff+f.rows-1, 0, f.colOff, 1, f.cols, s.runs[:0])
	sw := trace.Sweep{Cycle: finish + 1, Runs: s.runs, Step: -blk.Pitch, Times: f.rows}
	c := s.sinks.ofmapWrite
	b, ok := c.(trace.BlockConsumer)
	switch {
	case !ok:
		sw.Unroll(c)
	case b.BeginBlock(blk):
	default:
		if sw.Times > 1 {
			b.ConsumeSweep(sw)
		} else {
			c.ConsumeRuns(sw.Cycle, sw.Runs)
		}
		b.EndBlock()
	}
}

// foldWS emits the WS-dataflow trace of one fold.
//
// Fill: one array row of weights per cycle for rows cycles. Stream: array
// row i receives the ifmap operand for step t at cycle base+rows+i+t.
// Outputs: column j's output for step t is written at base+2*rows+t+j-1.
func (s *sim) foldWS(f fold) {
	// Fill phase: stationary filter elements, one row per cycle.
	for i := int64(0); i < f.rows; i++ {
		s.runs = s.mp.StationaryRuns(f.rowOff+i, f.colOff, f.cols, s.runs[:0])
		s.sinks.filterRead.ConsumeRuns(f.base+i, s.runs)
	}
	s.streamAndDrain(f, s.sinks.ifmapRead)
}

// foldIS emits the IS-dataflow trace of one fold: identical schedule to WS
// with the operand roles swapped (ifmap stationary, filters streaming).
func (s *sim) foldIS(f fold) {
	for i := int64(0); i < f.rows; i++ {
		s.runs = s.mp.StationaryRuns(f.rowOff+i, f.colOff, f.cols, s.runs[:0])
		s.sinks.ifmapRead.ConsumeRuns(f.base+i, s.runs)
	}
	s.streamAndDrain(f, s.sinks.filterRead)
}

// streamAndDrain is the compute phase shared by the stationary dataflows:
// the moving operand streams through the rows while results reduce down the
// columns and exit from the bottom edge.
func (s *sim) streamAndDrain(f fold, streamSink trace.RunConsumer) {
	// Stream phase, offset by the fill. The block repeats for every column
	// fold of this row fold.
	s.wavefront(streamSink, leftEdge, s.mp.RowBlock(f.rowOff, f.rows), f.base+f.rows)
	// Outputs: column j's output for step t leaves at base+2*rows+t+j-1.
	// Every row fold accumulates into the same T x cols output block, which
	// declares no hull (Lo > Hi).
	out := trace.Block{Off: f.colOff, N: f.cols, Words: f.cols * f.T, Hi: -1}
	s.wavefront(s.sinks.ofmapWrite, bottomEdge, out, f.base+2*f.rows-1)
}

// accessCounts returns the closed-form SRAM access totals for an Sr x Sc x T
// workload slice; the trace streams emit exactly these many addresses
// (asserted by tests).
func accessCounts(df config.Dataflow, Sr, Sc, T, R, C int64) (ifmap, filter, ofmap int64) {
	foldsR := mathutil.CeilDiv(Sr, R)
	foldsC := mathutil.CeilDiv(Sc, C)
	// Sum over folds of mapped rows and cols; folds tile the space, so the
	// sums equal the slice extents.
	sumRows := foldSum(Sr, R, foldsR)
	sumCols := foldSum(Sc, C, foldsC)
	// Each row-fold is repeated for every column-fold and vice versa.
	rowsTotal := sumRows * foldsC // sum of mapped rows over all folds
	colsTotal := sumCols * foldsR
	// Mapped PEs over all folds: sum_r sum_c rows(fr)*cols(fc).
	mappedPE := sumRows * sumCols

	switch df {
	case config.OutputStationary:
		return rowsTotal * T, colsTotal * T, mappedPE
	case config.WeightStationary:
		return rowsTotal * T, mappedPE, colsTotal * T
	case config.InputStationary:
		return mappedPE, rowsTotal * T, colsTotal * T
	}
	return 0, 0, 0
}

// foldSum returns sum over folds of min(size, S - f*size).
func foldSum(S, size, folds int64) int64 {
	if folds == 0 {
		return 0
	}
	last := S - (folds-1)*size
	return (folds-1)*size + last
}
