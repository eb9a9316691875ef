package dataflow

import (
	"fmt"
	"math"

	"scalesim/internal/config"
	"scalesim/internal/trace"
)

// Bulk address generation. The cycle-accurate simulator asks for the
// addresses entering one array edge in one cycle: a diagonal wavefront
// slice where the spatial index advances by one while the temporal index
// retreats by one (or a fill/drain row where only one index moves). Because
// every tensor layout is row-major, such a slice is piecewise affine and
// collapses into O(1) arithmetic-progression runs instead of O(n) element
// lookups.
//
// For the filter and OFMAP tensors the flattening is globally affine
// (f*W + e and p*F + f), so any (df, de) step yields a single run. The
// IFMAP address of (window, elem) decomposes as
//
//	addr = strideC*(oh*(IfmapW-OfmapW) + window)
//	     + elem + r*(IfmapW*Channels - windowW) + off
//
// with oh = window/OfmapW, r = elem/windowW and strideC =
// Stride*Channels: affine in (window, elem) except where oh or r change.
// Walking a wavefront therefore emits one run per OFMAP-row or
// window-row wrap — and when the wrap jump happens to continue the
// progression (e.g. unit-width GEMM layers), trace.AppendRun coalesces the
// segments back into a single run.

// IfmapRuns appends runs covering IfmapElem(w0+k*dw, e0+k*de) for k in
// [0, n), with dw and de in {-1, 0, +1}. Axes the layout makes globally
// affine (wAffine/eAffine) are not segmented at all, so degenerate shapes
// like GEMM layers cost one IfmapElem call per wavefront instead of one per
// wrap. Along a segmented axis the walk keeps the in-row position and moves
// the base by arithmetic: a segment ends where the next step wraps, and a
// wrap adds its jump's excess over the in-row step (wWrap, eWrap).
func (a *Addressing) IfmapRuns(w0, dw, e0, de, n int64, dst []trace.Run) []trace.Run {
	wS := a.strideC
	capW := dw != 0 && !a.wAffine
	if dw != 0 && a.wAffine {
		wS = a.wSlope
	}
	capE := de != 0 && !a.eAffine
	slope := dw*wS + de
	base, ow, rem := a.ifmapAt(w0, e0) // ow, rem: positions in the rows
	if !capW && !capE {
		return trace.AppendRun(dst, base, slope, n)
	}
	for k := int64(0); k < n; {
		seg := n - k
		// Next oh or r change bounds the affine segment.
		if capW {
			if dw > 0 {
				seg = min(seg, a.ofmapW-ow)
			} else {
				seg = min(seg, ow+1)
			}
		}
		if capE {
			if de > 0 {
				seg = min(seg, a.windowW-rem)
			} else {
				seg = min(seg, rem+1)
			}
		}
		dst = trace.AppendRun(dst, base, slope, seg)
		k += seg
		base += seg * slope
		if capW {
			if ow += seg * dw; ow == a.ofmapW || ow < 0 {
				ow -= dw * a.ofmapW
				base += dw * a.wWrap
			}
		}
		if capE {
			if rem += seg * de; rem == a.windowW || rem < 0 {
				rem -= de * a.windowW
				base += de * a.eWrap
			}
		}
	}
	return dst
}

// ifmapSweep counts the slices, from IfmapRuns(w0, dw, e0, de, n) on, that
// are that slice with every base moved by j·step, when each next slice moves
// every window (alongW) or every element one further. Along an axis the
// layout makes globally affine that is every slice. Along any other, a
// slice whose coordinates lie in one row keeps its runs, split for split,
// until the next row wrap enters it; a slice that straddles a wrap is only
// itself (times 1).
func (a *Addressing) ifmapSweep(w0, dw, e0, de, n int64, alongW bool) (step, times int64) {
	x0, dx, period, step, affine := e0, de, a.windowW, int64(1), a.eAffine
	if alongW {
		x0, dx, period, step, affine = w0, dw, a.ofmapW, a.strideC, a.wAffine
		if affine {
			step = a.wSlope
		}
	}
	if affine {
		return step, math.MaxInt64
	}
	lo, hi := x0, x0+(n-1)*dx
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo/period != hi/period {
		return 0, 1
	}
	return step, period - hi%period
}

// filterSweep is ifmapSweep for FilterRuns, whose layout is globally
// affine: moving every filter one further shifts by a window, moving every
// element by one word.
func (a *Addressing) filterSweep(alongF bool) (step, times int64) {
	if alongF {
		return a.window, math.MaxInt64
	}
	return 1, math.MaxInt64
}

// FilterRuns appends the single run covering FilterElem(f0+k*df, e0+k*de)
// for k in [0, n): the filter layout is globally affine.
func (a *Addressing) FilterRuns(f0, df, e0, de, n int64, dst []trace.Run) []trace.Run {
	return trace.AppendRun(dst, a.FilterElem(f0, e0), df*a.window+de, n)
}

// OfmapRuns appends the single run covering OfmapElem(p0+k*dp, f0+k*df)
// for k in [0, n): the OFMAP layout is globally affine.
func (a *Addressing) OfmapRuns(p0, dp, f0, df, n int64, dst []trace.Run) []trace.Run {
	return trace.AppendRun(dst, a.OfmapElem(p0, f0), dp*a.filters+df, n)
}

// RowStreamRuns appends runs covering the left-edge wavefront slice
// RowStream(i+k, t-k) for k in [0, n): n consecutive spatial rows, each one
// temporal step behind the previous.
func (mp *Mapper) RowStreamRuns(i, t, n int64, dst []trace.Run) []trace.Run {
	switch mp.m.Dataflow {
	case config.OutputStationary:
		return mp.addr.IfmapRuns(i, 1, t, -1, n, dst)
	case config.WeightStationary:
		return mp.addr.IfmapRuns(t, -1, i, 1, n, dst)
	case config.InputStationary:
		return mp.addr.FilterRuns(t, -1, i, 1, n, dst)
	}
	panic(fmt.Sprintf("dataflow: unknown dataflow %v", mp.m.Dataflow))
}

// ColStreamRuns appends runs covering the top-edge wavefront slice
// ColStream(j+k, t-k) for k in [0, n). Only valid for the OS dataflow.
func (mp *Mapper) ColStreamRuns(j, t, n int64, dst []trace.Run) []trace.Run {
	if mp.m.Dataflow != config.OutputStationary {
		panic(fmt.Sprintf("dataflow: %v streams no top-edge operand", mp.m.Dataflow))
	}
	return mp.addr.FilterRuns(j, 1, t, -1, n, dst)
}

// RowStreamSweep returns how many wavefront slices, from RowStreamRuns(i,
// t, n) on, keep that slice's runs shifted by j·step: slice j moves every
// row one further (alongRows, the steady state of a block with more rows
// than temporal steps) or every temporal step one further (the steady state
// otherwise). The count runs to the next IFMAP window-row or OFMAP-row wrap
// entering the slice; the filter axes never wrap.
func (mp *Mapper) RowStreamSweep(i, t, n int64, alongRows bool) (step, times int64) {
	switch mp.m.Dataflow {
	case config.OutputStationary:
		return mp.addr.ifmapSweep(i, 1, t, -1, n, alongRows)
	case config.WeightStationary:
		return mp.addr.ifmapSweep(t, -1, i, 1, n, !alongRows)
	case config.InputStationary:
		return mp.addr.filterSweep(!alongRows)
	}
	panic(fmt.Sprintf("dataflow: unknown dataflow %v", mp.m.Dataflow))
}

// ColStreamSweep is RowStreamSweep for ColStreamRuns, moving every column
// (alongCols) or every temporal step one further: the filter layout is
// globally affine. Only valid for the OS dataflow.
func (mp *Mapper) ColStreamSweep(alongCols bool) (step, times int64) {
	if mp.m.Dataflow != config.OutputStationary {
		panic(fmt.Sprintf("dataflow: %v streams no top-edge operand", mp.m.Dataflow))
	}
	return mp.addr.filterSweep(alongCols)
}

// OutputSweep is RowStreamSweep for the output wavefront OutputRuns(t, -1,
// j, 1, n) of the WS and IS dataflows, moving every column (alongCols) or
// every temporal step one further: the OFMAP layout is globally affine.
func (mp *Mapper) OutputSweep(alongCols bool) (step, times int64) {
	// Output (a, b) is OFMAP pixel a, filter b under WS and the reverse
	// under IS; a step along the pixel axis moves by a row of filters.
	if alongCols == (mp.m.Dataflow == config.InputStationary) {
		return mp.addr.filters, math.MaxInt64
	}
	return 1, math.MaxInt64
}

// RowBlock declares the left-edge operand block of spatial rows [off,
// off+n), each streamed for all T temporal steps. Every layout is monotone
// in both indices, so the hull is the two corners. The filter operand never
// repeats an address within a block; the IFMAP operand does exactly when
// convolution windows overlap, which a kernel no larger than the stride
// rules out (1x1 convolutions and GEMMs among them).
func (mp *Mapper) RowBlock(off, n int64) trace.Block {
	distinct := true
	if mp.RowOperand() == Ifmap {
		l := mp.addr.layer
		distinct = l.FilterH <= l.Stride && l.FilterW <= l.Stride
	}
	return trace.Block{Off: off, N: n, Words: n * mp.m.T,
		Lo: mp.RowStream(off, 0), Hi: mp.RowStream(off+n-1, mp.m.T-1), Distinct: distinct}
}

// ColBlock declares the top-edge filter block of spatial columns [off,
// off+n), as RowBlock does. Only valid for the OS dataflow.
func (mp *Mapper) ColBlock(off, n int64) trace.Block {
	return trace.Block{Off: off, N: n, Words: n * mp.m.T,
		Lo: mp.ColStream(off, 0), Hi: mp.ColStream(off+n-1, mp.m.T-1), Distinct: true}
}

// OutputTile declares the OS drain of the outputs of spatial rows [rowOff,
// rowOff+rows) and columns [colOff, colOff+cols): one OFMAP pixel per row,
// one filter per column, so the block is a tile of the OFMAP laid out in
// rows of F filters, and each output is written once. It is keyed by its
// first address: keyed by rowOff, the tiles of one row band would share
// offset, run count and words but not their addresses. Only valid for the
// OS dataflow.
func (mp *Mapper) OutputTile(rowOff, rows, colOff, cols int64) trace.Block {
	if mp.m.Dataflow != config.OutputStationary {
		panic(fmt.Sprintf("dataflow: %v drains no output tile", mp.m.Dataflow))
	}
	lo := mp.Output(rowOff, colOff)
	return trace.Block{Off: lo, N: rows, Words: rows * cols, Lo: lo,
		Hi: mp.Output(rowOff+rows-1, colOff+cols-1), Distinct: true, Pitch: mp.addr.filters}
}

// StationaryRuns appends runs covering the fill row Stationary(i, j+k) for
// k in [0, n): one spatial row of the pre-filled operand.
func (mp *Mapper) StationaryRuns(i, j, n int64, dst []trace.Run) []trace.Run {
	switch mp.m.Dataflow {
	case config.WeightStationary:
		return mp.addr.FilterRuns(j, 1, i, 0, n, dst)
	case config.InputStationary:
		return mp.addr.IfmapRuns(j, 1, i, 0, n, dst)
	}
	panic(fmt.Sprintf("dataflow: %v has no stationary operand", mp.m.Dataflow))
}

// OutputRuns appends runs covering Output(a+k*da, b+k*db) for k in [0, n):
// the drain row (da = 0, db = 1) or drain wavefront (da = -1, db = 1) of
// the output operand.
func (mp *Mapper) OutputRuns(a, da, b, db, n int64, dst []trace.Run) []trace.Run {
	switch mp.m.Dataflow {
	case config.OutputStationary, config.WeightStationary:
		return mp.addr.OfmapRuns(a, da, b, db, n, dst)
	case config.InputStationary:
		return mp.addr.OfmapRuns(b, db, a, da, n, dst)
	}
	panic(fmt.Sprintf("dataflow: unknown dataflow %v", mp.m.Dataflow))
}
