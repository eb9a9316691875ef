package dataflow

import (
	"fmt"

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
// wrap.
func (a *Addressing) IfmapRuns(w0, dw, e0, de, n int64, dst []trace.Run) []trace.Run {
	wS := a.strideC
	capW := dw != 0 && !a.wAffine
	if dw != 0 && a.wAffine {
		wS = a.wSlope
	}
	capE := de != 0 && !a.eAffine
	slope := dw*wS + de
	if !capW && !capE {
		return trace.AppendRun(dst, a.IfmapElem(w0, e0), slope, n)
	}
	for k := int64(0); k < n; {
		w := w0 + k*dw
		e := e0 + k*de
		seg := n - k
		// Next oh or r change bounds the affine segment.
		if capW {
			if dw > 0 {
				seg = min(seg, a.ofmapW-w%a.ofmapW)
			} else {
				seg = min(seg, w%a.ofmapW+1)
			}
		}
		if capE {
			if de > 0 {
				seg = min(seg, a.windowW-e%a.windowW)
			} else {
				seg = min(seg, e%a.windowW+1)
			}
		}
		dst = trace.AppendRun(dst, a.IfmapElem(w, e), slope, seg)
		k += seg
	}
	return dst
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
