// Package vector models the accelerator's vector unit: the SIMD engine
// that executes the non-matmul operators of an operator graph — softmax,
// layernorm and element-wise maps — which never touch the systolic array.
//
// The model is deliberately first-order, in the spirit of the paper's
// systolic model: a row-major tensor streams through a fixed number of
// lanes, one word per lane per cycle, in one or more full passes over the
// data. Softmax and layernorm are three-pass reductions (max / exp-sum /
// normalize, and mean / variance / normalize-affine respectively);
// element-wise maps are a single pass over every operand. Cycle counts,
// SRAM/DRAM word traffic and the demand traces all follow from that shape,
// so vector operators flow through exactly the same downstream machinery
// as systolic layers: stall analysis, bandwidth reports, energy accounting
// and timeline tracing.
package vector

import (
	"fmt"

	"scalesim/internal/topology"
	"scalesim/internal/trace"
)

// Params describes one vector-unit execution.
type Params struct {
	// Kind is the operator kind; must satisfy Kind.Vector().
	Kind topology.OpKind
	// Rows and Cols are the tensor dimensions; softmax and layernorm
	// normalize each row independently.
	Rows, Cols int64
	// Operands is the number of equal-shaped input tensors streamed
	// (element-wise ops may take several; reductions take exactly one).
	Operands int
	// Lanes is the vector width in words per cycle.
	Lanes int
}

// Validate reports the first problem with the parameters, or nil.
func (p Params) Validate() error {
	switch {
	case !p.Kind.Vector():
		return fmt.Errorf("vector: kind %q is not a vector operator", p.Kind)
	case p.Rows < 1 || p.Cols < 1:
		return fmt.Errorf("vector: tensor %dx%d must be positive", p.Rows, p.Cols)
	case p.Operands < 1:
		return fmt.Errorf("vector: operand count %d must be positive", p.Operands)
	case p.Lanes < 1:
		return fmt.Errorf("vector: lane count %d must be positive", p.Lanes)
	case p.Kind != topology.OpElementwise && p.Operands != 1:
		return fmt.Errorf("vector: %s takes exactly one operand, got %d", p.Kind, p.Operands)
	}
	return nil
}

// Elems returns the tensor element count.
func (p Params) Elems() int64 { return p.Rows * p.Cols }

// Passes returns the number of full passes over the tensor the operator
// makes: three for the row reductions, one for element-wise maps.
func Passes(kind topology.OpKind) int64 {
	switch kind {
	case topology.OpSoftmax, topology.OpLayerNorm:
		return 3
	default:
		return 1
	}
}

// Result summarizes one vector-unit execution. The fields carry JSON tags
// because the result is part of the simulation cache entry.
type Result struct {
	// Kind is the executed operator kind.
	Kind topology.OpKind `json:"kind"`
	// Rows and Cols are the tensor dimensions, Operands the streamed
	// input-tensor count, Lanes the vector width used.
	Rows     int64 `json:"rows"`
	Cols     int64 `json:"cols"`
	Operands int   `json:"operands"`
	Lanes    int   `json:"lanes"`
	// Passes is the number of full passes over the tensor.
	Passes int64 `json:"passes"`
	// Cycles is the stall-free runtime.
	Cycles int64 `json:"cycles"`
	// Ops is the scalar vector-operation count: one per output element per
	// pass (a two-operand add is one op reading two words).
	Ops int64 `json:"ops"`
	// LaneUtilization is Ops / (Lanes * Cycles): the fraction of lane
	// slots doing useful work, < 1 when the row tail leaves lanes idle.
	LaneUtilization float64 `json:"lane_utilization"`
}

// PassInfo describes one pass for observers (timeline recording).
type PassInfo struct {
	// Pass is the pass index; Label names it ("max", "exp-sum", ...).
	Pass  int64
	Label string
	// Start and Cycles locate the pass on the operator's local cycle axis.
	Start, Cycles int64
}

// PassObserver receives one callback per pass, in pass order.
type PassObserver interface {
	AddPass(info PassInfo)
}

// PassObserverFunc adapts a function to PassObserver.
type PassObserverFunc func(info PassInfo)

// AddPass calls f.
func (f PassObserverFunc) AddPass(info PassInfo) { f(info) }

// passLabels names the passes of each multi-pass operator.
var passLabels = map[topology.OpKind][]string{
	topology.OpSoftmax:   {"max", "exp-sum", "normalize"},
	topology.OpLayerNorm: {"mean", "variance", "normalize"},
}

// PassLabel names pass p of the given operator kind.
func PassLabel(kind topology.OpKind, p int64) string {
	if labels := passLabels[kind]; p >= 0 && p < int64(len(labels)) {
		return labels[p]
	}
	return "map"
}

// Sinks carries the optional trace consumers of one execution. All-nil
// sinks keep Run on its O(1) fast path: results are computed in closed
// form and no trace is generated.
type Sinks struct {
	// IfmapRead receives the SRAM reads of the streamed input tensors
	// (every pass), IfmapDRAM the one-time DRAM fetch of those tensors
	// (first pass).
	IfmapRead, IfmapDRAM trace.Consumer
	// FilterRead receives the SRAM reads of the layernorm scale/shift
	// parameters, FilterDRAM their one-time DRAM fetch.
	FilterRead, FilterDRAM trace.Consumer
	// OfmapWrite receives the SRAM writes of the output tensor,
	// OfmapDRAM its write-back (both on the final pass).
	OfmapWrite, OfmapDRAM trace.Consumer
	// Passes observes pass boundaries.
	Passes PassObserver
}

// Layout fixes the address-space placement of an execution's tensors:
// operand o occupies [IfmapBase + o*Elems, ...), the output
// [OfmapBase, ...), and the layernorm gamma/beta vectors
// [ParamBase, +Cols) and [ParamBase+Cols, +Cols).
type Layout struct {
	IfmapBase, ParamBase, OfmapBase int64
}

// RunAt executes the vector-unit model with its tensors placed by lay.
// Cycle counts and traffic are closed form; traces are generated only for
// non-nil sinks, cycle by cycle, in non-decreasing cycle order per stream
// — the contract every downstream consumer expects.
//
// Traffic model, per pass of ceil(Elems/Lanes) cycles:
//   - every pass reads each streamed operand from SRAM (reductions keep
//     re-reading their one input; element-wise ops make their single pass
//     over all operands);
//   - the first pass also fetches each operand from DRAM (first touch);
//   - the final pass writes the output to SRAM and drains it to DRAM;
//   - layernorm's final pass additionally reads gamma and beta from the
//     filter SRAM for every element, fetching each parameter word from
//     DRAM on its first (row-0) use.
func RunAt(p Params, lay Layout, sinks Sinks) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	elems := p.Elems()
	lanes := int64(p.Lanes)
	passes := Passes(p.Kind)
	cpp := (elems + lanes - 1) / lanes // cycles per pass
	res := Result{
		Kind: p.Kind, Rows: p.Rows, Cols: p.Cols,
		Operands: p.Operands, Lanes: p.Lanes,
		Passes: passes,
		Cycles: passes * cpp,
		Ops:    passes * elems,
	}
	if res.Cycles > 0 {
		res.LaneUtilization = float64(res.Ops) / float64(lanes*res.Cycles)
	}
	if (sinks == Sinks{}) {
		return res, nil
	}
	emitTracesAt(p, res, cpp, sinks, lay)
	return res, nil
}

func emitTracesAt(p Params, res Result, cpp int64, sinks Sinks, lay Layout) {
	elems := p.Elems()
	lanes := int64(p.Lanes)
	ifRead := trace.Runs(sinks.IfmapRead)
	ifDRAM := trace.Runs(sinks.IfmapDRAM)
	flRead := trace.Runs(sinks.FilterRead)
	flDRAM := trace.Runs(sinks.FilterDRAM)
	ofWrite := trace.Runs(sinks.OfmapWrite)
	ofDRAM := trace.Runs(sinks.OfmapDRAM)
	wantParams := p.Kind == topology.OpLayerNorm &&
		(sinks.FilterRead != nil || sinks.FilterDRAM != nil)

	var in, out, params, pfetch []trace.Run
	for pass := int64(0); pass < res.Passes; pass++ {
		if sinks.Passes != nil {
			sinks.Passes.AddPass(PassInfo{
				Pass: pass, Label: PassLabel(p.Kind, pass),
				Start: pass * cpp, Cycles: cpp,
			})
		}
		first := pass == 0
		last := pass == res.Passes-1
		for c := int64(0); c < cpp; c++ {
			k := c * lanes
			n := min64(lanes, elems-k)
			cycle := pass*cpp + c

			// Streamed operand reads: one run per operand.
			in = in[:0]
			for o := int64(0); o < int64(p.Operands); o++ {
				in = trace.AppendRun(in, lay.IfmapBase+o*elems+k, 1, n)
			}
			if sinks.IfmapRead != nil {
				ifRead.ConsumeRuns(cycle, in)
			}
			if first && sinks.IfmapDRAM != nil {
				ifDRAM.ConsumeRuns(cycle, in)
			}

			if last {
				// Layernorm parameters: gamma and beta per element, split
				// at row wraps; row-0 elements also fetch from DRAM.
				if wantParams {
					params = params[:0]
					pfetch = pfetch[:0]
					for off := int64(0); off < n; {
						idx := k + off
						col := idx % p.Cols
						seg := min64(n-off, p.Cols-col)
						params = trace.AppendRun(params, lay.ParamBase+col, 1, seg)
						params = trace.AppendRun(params, lay.ParamBase+p.Cols+col, 1, seg)
						if idx < p.Cols {
							f := min64(seg, p.Cols-idx)
							pfetch = trace.AppendRun(pfetch, lay.ParamBase+col, 1, f)
							pfetch = trace.AppendRun(pfetch, lay.ParamBase+p.Cols+col, 1, f)
						}
						off += seg
					}
					if sinks.FilterRead != nil {
						flRead.ConsumeRuns(cycle, params)
					}
					if sinks.FilterDRAM != nil && len(pfetch) > 0 {
						flDRAM.ConsumeRuns(cycle, pfetch)
					}
				}
				// Output writes and the same-cycle DRAM drain.
				out = trace.AppendRun(out[:0], lay.OfmapBase+k, 1, n)
				if sinks.OfmapWrite != nil {
					ofWrite.ConsumeRuns(cycle, out)
				}
				if sinks.OfmapDRAM != nil {
					ofDRAM.ConsumeRuns(cycle, out)
				}
			}
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Traffic returns the execution's closed-form word-traffic totals,
// matching exactly what the trace path emits.
type TrafficTotals struct {
	// SRAM totals (words).
	InputSRAMReads, ParamSRAMReads, OutputSRAMWrites int64
	// DRAM totals (words).
	InputDRAMReads, ParamDRAMReads, OutputDRAMWrites int64
}

// Traffic computes the totals for the given parameters.
func Traffic(p Params) TrafficTotals {
	elems := p.Elems()
	t := TrafficTotals{
		InputSRAMReads:   Passes(p.Kind) * elems * int64(p.Operands),
		OutputSRAMWrites: elems,
		InputDRAMReads:   elems * int64(p.Operands),
		OutputDRAMWrites: elems,
	}
	if p.Kind == topology.OpLayerNorm {
		t.ParamSRAMReads = 2 * elems
		t.ParamDRAMReads = 2 * p.Cols
	}
	return t
}
