// Package analytical implements the paper's first-order runtime model
// (Sec. III): stall-free execution time of a workload mapping on a systolic
// array (Eqs. 1-4), the partitioned scale-out extension (Eqs. 5-6), and the
// searches built on top of it — best array shape for a MAC budget, best
// partitioning, and the multi-workload pareto selection of Sec. IV-B.
//
// Unlike the cycle-accurate core, the model ignores memory capacity and
// bandwidth; it exists to prune the design space cheaply. By construction
// it agrees exactly with the simulator's stall-free runtime.
package analytical

import (
	"fmt"

	"scalesim/internal/dataflow"
	"scalesim/internal/mathutil"
)

// MinRuntime returns Eq. 1: the fastest possible execution of a mapping,
// with an unlimited array of Sr x Sc MACs: 2*Sr + Sc + T - 2.
func MinRuntime(m dataflow.Mapping) int64 {
	return 2*m.Sr + m.Sc + m.T - 2
}

// FoldRuntime returns Eq. 3: the cycles one fold occupies an R x C array.
func FoldRuntime(r, c, t int64) int64 { return 2*r + c + t - 2 }

// Runtime returns Eq. 4: stall-free runtime of a mapping on an R x C array,
// (2R + C + T - 2) * ceil(Sr/R) * ceil(Sc/C).
func Runtime(m dataflow.Mapping, r, c int64) int64 {
	return FoldRuntime(r, c, m.T) * mathutil.CeilDiv(m.Sr, r) * mathutil.CeilDiv(m.Sc, c)
}

// PartitionWorkload returns Eq. 5: the per-partition workload of a Pr x Pc
// scale-out system. Spatial dimensions divide with ceiling so the slowest
// partition is modeled.
func PartitionWorkload(m dataflow.Mapping, pr, pc int64) dataflow.Mapping {
	return dataflow.Mapping{
		Dataflow: m.Dataflow,
		Sr:       mathutil.CeilDiv(m.Sr, pr),
		Sc:       mathutil.CeilDiv(m.Sc, pc),
		T:        m.T,
	}
}

// ScaleOutRuntime returns Eq. 6: the runtime of a Pr x Pc grid of R x C
// arrays, which is the runtime of the slowest partition.
func ScaleOutRuntime(m dataflow.Mapping, pr, pc, r, c int64) int64 {
	return Runtime(PartitionWorkload(m, pr, pc), r, c)
}

// Shape is one systolic array's dimensions.
type Shape struct {
	R, C int64
}

// MACs returns R*C.
func (s Shape) MACs() int64 { return s.R * s.C }

func (s Shape) String() string { return fmt.Sprintf("%dx%d", s.R, s.C) }

// Partitioning is the grid of partitions of a scale-out system; 1x1 is the
// monolithic (scale-up) case.
type Partitioning struct {
	Pr, Pc int64
}

// Count returns the number of partitions.
func (p Partitioning) Count() int64 { return p.Pr * p.Pc }

func (p Partitioning) String() string { return fmt.Sprintf("%dx%d", p.Pr, p.Pc) }

// SystemConfig is one point of the Fig. 9(a) search space: a partition grid
// of identical arrays.
type SystemConfig struct {
	Parts Partitioning
	Shape Shape
}

// MACs returns the total MAC count of the system.
func (c SystemConfig) MACs() int64 { return c.Parts.Count() * c.Shape.MACs() }

// Monolithic reports whether the configuration is a single array.
func (c SystemConfig) Monolithic() bool { return c.Parts.Count() == 1 }

func (c SystemConfig) String() string {
	return fmt.Sprintf("parts %s of %s", c.Parts, c.Shape)
}

// Eval is an analytically evaluated configuration.
type Eval struct {
	Config SystemConfig
	// Cycles is the stall-free runtime (Eq. 4 / Eq. 6).
	Cycles int64
	// MappingUtilization is the mapped-PE fraction of the slowest
	// partition's array over its folds.
	MappingUtilization float64
	// ComputeUtilization is workload MACs / (system MACs * cycles).
	ComputeUtilization float64
}

// Evaluate applies the analytical model to one configuration.
func Evaluate(m dataflow.Mapping, c SystemConfig) Eval {
	part := PartitionWorkload(m, c.Parts.Pr, c.Parts.Pc)
	cycles := Runtime(part, c.Shape.R, c.Shape.C)
	foldsR := mathutil.CeilDiv(part.Sr, c.Shape.R)
	foldsC := mathutil.CeilDiv(part.Sc, c.Shape.C)
	mapped := float64(part.Sr*part.Sc) /
		float64(c.Shape.R*c.Shape.C*foldsR*foldsC)
	return Eval{
		Config:             c,
		Cycles:             cycles,
		MappingUtilization: mapped,
		ComputeUtilization: float64(m.MACs()) / (float64(c.MACs()) * float64(cycles)),
	}
}

// Divisors returns the positive divisors of n in ascending order.
func Divisors(n int64) []int64 {
	return AppendDivisors(nil, n)
}

// AppendDivisors appends the positive divisors of n to dst in ascending
// order and returns the extended slice. With sufficient capacity in dst it
// allocates nothing, so enumeration loops over millions of candidates can
// reuse one buffer.
func AppendDivisors(dst []int64, n int64) []int64 {
	if n < 1 {
		return dst
	}
	// First pass: the small divisors (d*d <= n) in ascending order.
	start := len(dst)
	for d := int64(1); d*d <= n; d++ {
		if n%d == 0 {
			dst = append(dst, d)
		}
	}
	// Second pass: walk the small divisors backwards and append their
	// cofactors, which come out ascending. Reading dst[start:] while
	// appending is safe — appends only grow past the region being read.
	for i := len(dst) - 1; i >= start; i-- {
		d := dst[i]
		if co := n / d; co != d {
			dst = append(dst, co)
		}
	}
	return dst
}

// Shapes enumerates every R x C factorization of macs with both dimensions
// at least minDim, in ascending R.
func Shapes(macs, minDim int64) []Shape {
	return AppendShapes(nil, macs, minDim)
}

// AppendShapes appends every qualifying factorization of macs to dst and
// returns the extended slice; allocation-free when dst has capacity, save
// for a small divisor scratch buffer amortized by the runtime's append
// growth. Ordering matches Shapes.
func AppendShapes(dst []Shape, macs, minDim int64) []Shape {
	if minDim < 1 {
		minDim = 1
	}
	var scratch [64]int64
	for _, r := range AppendDivisors(scratch[:0], macs) {
		c := macs / r
		if r >= minDim && c >= minDim {
			dst = append(dst, Shape{R: r, C: c})
		}
	}
	return dst
}

// EnumerateConfigs lists every (partitioning, shape) combination whose total
// MAC count is exactly macs, with per-array dimensions at least minDim and
// at most maxParts partitions (0 means unlimited). This is the full search
// space of Fig. 9(a).
func EnumerateConfigs(macs, minDim, maxParts int64) []SystemConfig {
	return AppendConfigs(nil, macs, minDim, maxParts)
}

// AppendConfigs appends the Fig. 9(a) search space to dst and returns the
// extended slice. Apart from dst growth it works out of stack scratch
// buffers (which spill to the heap only for budgets with more than 64
// divisors), so callers that reuse dst across MAC budgets enumerate the
// whole space allocation-flat.
func AppendConfigs(dst []SystemConfig, macs, minDim, maxParts int64) []SystemConfig {
	var partScratch, grid [64]int64
	var shapeScratch [64]Shape
	for _, p := range AppendDivisors(partScratch[:0], macs) { // p = number of partitions
		if maxParts > 0 && p > maxParts {
			continue
		}
		perPart := macs / p
		shapes := AppendShapes(shapeScratch[:0], perPart, minDim)
		if len(shapes) == 0 {
			continue
		}
		for _, pr := range AppendDivisors(grid[:0], p) {
			parts := Partitioning{Pr: pr, Pc: p / pr}
			for _, s := range shapes {
				dst = append(dst, SystemConfig{Parts: parts, Shape: s})
			}
		}
	}
	return dst
}

// better orders evaluations by runtime, breaking ties toward higher mapping
// utilization and then fewer partitions (cheaper to build).
func better(a, b Eval) bool {
	if a.Cycles != b.Cycles {
		return a.Cycles < b.Cycles
	}
	if a.MappingUtilization != b.MappingUtilization {
		return a.MappingUtilization > b.MappingUtilization
	}
	return a.Config.Parts.Count() < b.Config.Parts.Count()
}

// fastest is the one search loop: the fastest configuration of the Fig. 9(a)
// space that keep admits (nil admits all), or false if there is none.
func fastest(m dataflow.Mapping, macs, minDim, maxParts int64, keep func(SystemConfig) bool) (Eval, bool) {
	var best Eval
	found := false
	for _, c := range EnumerateConfigs(macs, minDim, maxParts) {
		if keep != nil && !keep(c) {
			continue
		}
		e := Evaluate(m, c)
		if !found || better(e, best) {
			best, found = e, true
		}
	}
	return best, found
}

// BestScaleUp returns the fastest monolithic configuration for the MAC
// budget, or false if no shape satisfies minDim.
func BestScaleUp(m dataflow.Mapping, macs, minDim int64) (Eval, bool) {
	return fastest(m, macs, minDim, 1, nil)
}

// BestScaleOut returns the fastest partitioned (P > 1) configuration for
// the MAC budget, or false if none exists under the constraints.
func BestScaleOut(m dataflow.Mapping, macs, minDim, maxParts int64) (Eval, bool) {
	return fastest(m, macs, minDim, maxParts, func(c SystemConfig) bool { return !c.Monolithic() })
}

// BestOverall returns the fastest configuration, monolithic or partitioned.
func BestOverall(m dataflow.Mapping, macs, minDim, maxParts int64) (Eval, bool) {
	return fastest(m, macs, minDim, maxParts, nil)
}
