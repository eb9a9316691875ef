// Package partition is the scale-out study: the systems a MAC budget can
// be split into (Spec, BestSpec), and the sweeps behind the paper's
// Fig. 11, Fig. 12 and sweet spot (Series, Sweep, SweetSpot).
//
// Running a layer on a Pr x Pc grid of arrays is core's (core.Options.Parts):
// each partition is one spatial window of the layer (Eq. 5) run through
// core's pipeline, every window of a run planned and fanned out together,
// and the layer finishes with its slowest partition (Eq. 6). Run is one
// layer's core run on a Spec, and Result is the view the figures read.
package partition

import (
	"fmt"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/dataflow"
	"scalesim/internal/obsv"
	"scalesim/internal/topology"
)

// Spec describes a scale-out system: the partition grid and the per-array
// shape. Parts 1x1 describes a monolithic (scale-up) run.
type Spec struct {
	Parts analytical.Partitioning
	Shape analytical.Shape
}

// MACs returns the system's total MAC count.
func (s Spec) MACs() int64 { return s.Parts.Count() * s.Shape.MACs() }

func (s Spec) String() string {
	return fmt.Sprintf("%s partitions of %s", s.Parts, s.Shape)
}

// Result is one layer's run on a scale-out system, as the figures read it.
type Result struct {
	// Layer and Spec identify the run.
	Layer topology.Layer
	Spec  Spec
	// Node is core's result for the layer on the system: the slowest
	// partition's runtime, summed traffic with summed peaks, energy, and
	// the node ledger with one closed ledger per active partition.
	Node core.LayerResult
	// Unit states the run as one manifest unit (core.Simulator.Unit),
	// named after its point.
	Unit obsv.Unit
	// Cycles is the runtime of the slowest partition.
	Cycles int64
	// ActivePartitions counts partitions that received work; trailing
	// partitions of an over-partitioned workload may have none.
	ActivePartitions int64
}

// AvgDRAMBW returns the combined average interface bandwidth in bytes per
// cycle, over all partitions running concurrently.
func (r Result) AvgDRAMBW() float64 { return r.Node.Memory.AvgTotalBW() }

// PeakDRAMBW sums the partitions' peak windowed demands (bytes/cycle).
func (r Result) PeakDRAMBW() float64 {
	m := r.Node.Memory
	return m.PeakIfmapBW + m.PeakFilterBW + m.PeakOfmapBW
}

// Options tunes a scale-out run: the core options every point's run takes.
// Parts is set from each point's Spec; Sweep steps Progress once per point.
type Options = core.Options

// Run executes the layer on the scale-out system described by spec. The
// base configuration supplies the dataflow, the total SRAM budget (divided
// evenly among partitions, minimum 1 KiB each), offsets and word size; its
// array dimensions are replaced by spec.Shape.
func Run(l topology.Layer, base config.Config, spec Spec, opt Options) (Result, error) {
	pt, err := newPoint(l.Name, l, base, spec, opt)
	if err != nil {
		return Result{}, err
	}
	res, err := pt.Simulate()
	if err != nil {
		return Result{}, err
	}
	return resultOf(pt, spec, res), nil
}

// newPoint is the core run, named name, of the layer on spec; core.New
// refuses a grid or an array dimension below 1.
func newPoint(name string, l topology.Layer, base config.Config, spec Spec, opt Options) (core.Run, error) {
	opt.Parts = spec.Parts
	sim, err := core.New(base.WithArray(int(spec.Shape.R), int(spec.Shape.C)), opt)
	return core.Run{Sim: sim, Name: name, Workload: topology.Topology{Name: name, Layers: []topology.Layer{l}}.Graph()}, err
}

// resultOf is a point's Result from its core run pt on spec.
func resultOf(pt core.Run, spec Spec, res core.RunResult) Result {
	lr := res.Layers[0]
	return Result{Layer: pt.Workload.Nodes[0].Layer, Spec: spec, Node: lr, Unit: pt.Sim.Unit(pt.Name, lr),
		Cycles: lr.Compute.Cycles, ActivePartitions: int64(len(lr.Partitions))}
}

// Series is one curve of a scale-out study: a layer swept over its
// partition counts at one MAC budget.
type Series struct {
	Name  string
	Layer topology.Layer
	MACs  int64
	Parts []int64
}

// Sweep runs every series cycle-accurately at each of its partition counts
// at its MAC budget: the body behind Fig. 11, Fig. 12 and the sweet spot.
// For each count, BestSpec picks the square-ish grid and the analytically best
// per-partition array shape, no dimension below minDim; counts with no
// such shape are skipped, and a series left with none is refused, by layer
// and budget, before any point runs. Every point, series by series, is a
// run named <series>/<P>parts of one core plan (core.SimulateRuns), so all
// points' windows fan out together over opt.Workers; each steps
// opt.Progress once and is opt.Obs unit i. Results come back per series,
// in partition-count order.
func Sweep(series []Series, base config.Config, minDim int64, opt Options) ([][]Result, error) {
	var runs []core.Run
	var specs []Spec
	var owner []int // each point's series
	for i, s := range series {
		if err := s.Layer.Validate(); err != nil {
			return nil, fmt.Errorf("partition: %s: %w", s.Layer.Name, err)
		}
		m := dataflow.Map(s.Layer, base.Dataflow)
		feasible := len(runs)
		for _, p := range s.Parts {
			spec, ok := BestSpec(m, s.MACs, p, minDim)
			if !ok {
				continue
			}
			name := fmt.Sprintf("%s/%dparts", s.Name, p)
			pt, err := newPoint(name, s.Layer, base, spec, opt)
			if err != nil {
				return nil, fmt.Errorf("partition: %s: %w", name, err)
			}
			runs, specs, owner = append(runs, pt), append(specs, spec), append(owner, i)
		}
		if len(runs) == feasible {
			return nil, fmt.Errorf("partition: %s: no feasible partitioning of %d MACs (minDim %d)",
				s.Layer.Name, s.MACs, minDim)
		}
	}
	results, err := core.SimulateRuns(runs)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	out := make([][]Result, len(series))
	for k, res := range results {
		out[owner[k]] = append(out[owner[k]], resultOf(runs[k], specs[k], res))
	}
	return out, nil
}

// BestSpec picks, for a fixed number of partitions, the grid and per-array
// shape that minimize the analytical runtime of the mapping.
func BestSpec(m dataflow.Mapping, totalMACs, parts, minDim int64) (Spec, bool) {
	if parts < 1 || totalMACs%parts != 0 {
		return Spec{}, false
	}
	perPart := totalMACs / parts
	shapes := analytical.Shapes(perPart, minDim)
	if len(shapes) == 0 {
		return Spec{}, false
	}
	var best Spec
	var bestCycles int64 = -1
	for _, pr := range analytical.Divisors(parts) {
		grid := analytical.Partitioning{Pr: pr, Pc: parts / pr}
		for _, s := range shapes {
			cycles := analytical.ScaleOutRuntime(m, grid.Pr, grid.Pc, s.R, s.C)
			if bestCycles < 0 || cycles < bestCycles {
				bestCycles = cycles
				best = Spec{Parts: grid, Shape: s}
			}
		}
	}
	return best, true
}
