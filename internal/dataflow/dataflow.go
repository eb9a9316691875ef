// Package dataflow implements the spatio-temporal mapping of DNN layers onto
// a systolic array for the three true systolic dataflows the paper considers
// (Table III): Output Stationary, Weight Stationary, and Input Stationary.
//
// Every layer reduces to a GEMM with spatial dimensions S_R x S_C and a
// temporal dimension T (Sec. III-A). This package computes those dimensions
// and generates the concrete SRAM addresses of the operands that enter each
// edge of the array, which the cycle-accurate simulator turns into traces.
package dataflow

import (
	"fmt"

	"scalesim/internal/config"
	"scalesim/internal/topology"
)

// Operand identifies which tensor an address belongs to, and therefore which
// SRAM buffer services it.
type Operand int

const (
	// Ifmap is the input feature map operand.
	Ifmap Operand = iota
	// Filter is the weight operand.
	Filter
)

// Mapping is the spatio-temporal shape of one layer under one dataflow
// (Table III): the operand matrices are S_R x T and T x S_C.
type Mapping struct {
	Dataflow config.Dataflow
	// Sr is the number of spatial rows of the mapped computation.
	Sr int64
	// Sc is the number of spatial columns of the mapped computation.
	Sc int64
	// T is the temporal extent of the computation.
	T int64
}

// Map computes the Table III mapping of a layer under a dataflow:
//
//	                 S_R       S_C       T
//	OS            N_ofmap  N_filter  W_conv
//	WS             W_conv  N_filter  N_ofmap
//	IS             W_conv   N_ofmap  N_filter
func Map(l topology.Layer, df config.Dataflow) Mapping {
	nOfmap := l.NumOfmapPx()
	nFilter := int64(l.NumFilters)
	wConv := l.WindowSize()
	switch df {
	case config.OutputStationary:
		return Mapping{Dataflow: df, Sr: nOfmap, Sc: nFilter, T: wConv}
	case config.WeightStationary:
		return Mapping{Dataflow: df, Sr: wConv, Sc: nFilter, T: nOfmap}
	case config.InputStationary:
		return Mapping{Dataflow: df, Sr: wConv, Sc: nOfmap, T: nFilter}
	}
	panic(fmt.Sprintf("dataflow: unknown dataflow %v", df))
}

// MACs returns the total multiply-accumulate count implied by the mapping;
// it is invariant across dataflows for the same layer.
func (m Mapping) MACs() int64 { return m.Sr * m.Sc * m.T }

// Offsets are the base addresses of the three operand regions.
type Offsets struct {
	Ifmap, Filter, Ofmap int64
}

// OffsetsFromConfig extracts the operand region bases from a configuration.
func OffsetsFromConfig(cfg config.Config) Offsets {
	return Offsets{Ifmap: cfg.IfmapOffset, Filter: cfg.FilterOffset, Ofmap: cfg.OfmapOffset}
}

// Addressing generates flat word addresses for the elements of a layer's
// three tensors. Layouts are row-major:
//
//	ifmap  (h, w, c)      -> h*W*C + w*C + c            + Offsets.Ifmap
//	filter (f, r, s, c)   -> f*R*S*C + r*S*C + s*C + c  + Offsets.Filter
//	ofmap  (p, f)         -> p*NumFilters + f           + Offsets.Ofmap
type Addressing struct {
	layer topology.Layer
	off   Offsets
	// cached derived dims
	ofmapW  int64
	windowW int64 // FilterW * Channels, row stride inside a window
	chans   int64
	ifmapW  int64
	window  int64 // full window size
	filters int64
	strideC int64 // Stride * Channels, window step inside an OFMAP row

	// Degenerate-layout flags for bulk generation (see IfmapRuns): an axis
	// whose row-wrap jump continues the in-segment progression is globally
	// affine, so wavefront slices need no segmentation along it.
	wAffine bool  // window axis: OfmapW == 1 or IfmapW == OfmapW
	wSlope  int64 // global window-axis slope when wAffine
	eAffine bool  // elem axis: single-row window or IfmapW == FilterW
	// wWrap and eWrap are how much further an OFMAP-row and a window-row
	// wrap jump than an in-row step of the same axis.
	wWrap, eWrap int64
}

// NewAddressing builds an address generator for a layer.
func NewAddressing(l topology.Layer, off Offsets) *Addressing {
	a := &Addressing{
		layer:   l,
		off:     off,
		ofmapW:  int64(l.OfmapW()),
		windowW: int64(l.FilterW) * int64(l.Channels),
		chans:   int64(l.Channels),
		ifmapW:  int64(l.IfmapW),
		window:  l.WindowSize(),
		filters: int64(l.NumFilters),
		strideC: int64(l.Stride) * int64(l.Channels),
	}
	// Window axis: with IfmapW == OfmapW the OFMAP-row wrap jump equals the
	// in-row step strideC; with OfmapW == 1 every step wraps by the constant
	// strideC*IfmapW. Either way the axis is one global progression.
	switch {
	case a.ifmapW == a.ofmapW:
		a.wAffine, a.wSlope = true, a.strideC
	case a.ofmapW == 1:
		a.wAffine, a.wSlope = true, a.strideC*a.ifmapW
	}
	// Elem axis: a single-row window (FilterH == 1) never wraps, and with
	// IfmapW == FilterW the window-row wrap jump IfmapW*Channels-windowW+1
	// equals the in-row step 1.
	a.eAffine = a.window == a.windowW || a.ifmapW*a.chans == a.windowW
	a.wWrap = a.strideC * (a.ifmapW - a.ofmapW)
	a.eWrap = a.ifmapW*a.chans - a.windowW
	return a
}

// IfmapElem returns the address of element elem (in [0, WindowSize)) of
// convolution window number window (in [0, NumOfmapPx)). Windows are
// numbered row-major over the OFMAP; elements row-major over (r, s, c).
func (a *Addressing) IfmapElem(window, elem int64) int64 {
	addr, _, _ := a.ifmapAt(window, elem)
	return addr
}

// ifmapAt returns IfmapElem(window, elem), the window's column ow in its
// OFMAP row and the element's position rem = s*Channels+c in its window
// row. With oh and r the OFMAP row and window row, the address
// ((oh*Stride+r)*IfmapW + ow*Stride+s)*Channels + c splits into a window
// part and an element part; an axis the layout makes globally affine
// needs no division, and reports position 0.
func (a *Addressing) ifmapAt(window, elem int64) (addr, ow, rem int64) {
	wPart, ePart := a.wSlope*window, elem
	if !a.wAffine {
		ow = window % a.ofmapW
		wPart = a.strideC * (window/a.ofmapW*a.ifmapW + ow)
	}
	if !a.eAffine {
		rem = elem % a.windowW
		ePart = elem/a.windowW*a.ifmapW*a.chans + rem
	}
	return wPart + ePart + a.off.Ifmap, ow, rem
}

// FilterElem returns the address of element elem of filter f.
func (a *Addressing) FilterElem(f, elem int64) int64 {
	return f*a.window + elem + a.off.Filter
}

// OfmapElem returns the address of OFMAP pixel p in output channel f.
func (a *Addressing) OfmapElem(p, f int64) int64 {
	return p*a.filters + f + a.off.Ofmap
}
