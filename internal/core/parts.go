package core

import (
	"fmt"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/dataflow"
	"scalesim/internal/energy"
	"scalesim/internal/mathutil"
	"scalesim/internal/obsv/cycleacct"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

// A scale-out system (Options.Parts) is a Pr x Pc grid of identical
// arrays, each owning one rectangular slice of a layer's spatial space
// (Eq. 5) and fed by its own share of the chip's SRAM (the paper's Fig. 11
// setup divides the SRAM budget evenly among partitions). A partition is
// not a second simulator: it is a LayerContext with Window set, run
// through the pipeline a whole layer takes, so it gets the same memory
// system, result cache, run plan, cycle ledger and timeline recorder. Its
// cache key is core|<one partition's config>|<layer>|w<window>|..., and the
// windows of all layers of a run are planned and fanned out together.
//
// Partitions run side by side: the layer's runtime is its slowest
// partition's (Eq. 6) and the DRAM interface carries the sum of every
// partition's traffic — including the replicated fetches partitioning
// introduces, the bandwidth cost the paper quantifies. That join is the
// node's own step (result), taken after the engine has joined every
// window.

// partitioned reports whether the Simulator models a partition grid.
func (s *Simulator) partitioned() bool { return s.opt.Parts != (analytical.Partitioning{}) }

// partitionConfig is one partition's configuration: the same array, and
// each SRAM divided among p partitions, at least 1 KiB each.
func partitionConfig(cfg config.Config, p int64) config.Config {
	share := func(kb int) int { return max(1, int(int64(kb)/p)) }
	cfg.IfmapSRAMKB = share(cfg.IfmapSRAMKB)
	cfg.FilterSRAMKB = share(cfg.FilterSRAMKB)
	cfg.OfmapSRAMKB = share(cfg.OfmapSRAMKB)
	return cfg
}

// contexts appends the contexts of node i of the plan's run run to ctxs:
// the node itself, or under Parts one window per partition that receives
// work, row-major over the grid. Trailing partitions of an
// over-partitioned layer get none. An invalid node gets one context, which
// fails in its own stages.
func (s *Simulator) contexts(ctxs []*LayerContext, run, i int, n topology.Node) []*LayerContext {
	if !s.partitioned() || n.Validate() != nil {
		return append(ctxs, s.newContext(run, i, n))
	}
	m := dataflow.Map(n.Layer, s.cfg.Dataflow)
	srPer := mathutil.CeilDiv(m.Sr, s.opt.Parts.Pr)
	scPer := mathutil.CeilDiv(m.Sc, s.opt.Parts.Pc)
	for pi := int64(0); pi < s.opt.Parts.Pr && pi*srPer < m.Sr; pi++ {
		for pj := int64(0); pj < s.opt.Parts.Pc && pj*scPer < m.Sc; pj++ {
			ctx := s.newContext(run, i, n)
			ctx.Window = systolic.Window{
				SrOff: pi * srPer, ScOff: pj * scPer,
				SrLen: min(srPer, m.Sr-pi*srPer),
				ScLen: min(scPer, m.Sc-pj*scPer),
			}
			ctx.pi, ctx.pj = pi, pj
			ctxs = append(ctxs, ctx)
		}
	}
	return ctxs
}

// result is a node's LayerResult from its contexts: the one context's, or
// under Parts the Eq. 6 join of its partitions' windows — the slowest
// partition's runtime; summed MACs, SRAM accesses and DRAM traffic, with
// summed peaks and average bandwidth over that runtime; energy charged
// for every array of the grid; and each partition's ledger stretched to
// the runtime by a partition_skew_wait bin, the node ledger aggregating
// them. The layer's Compute is its slowest partition's, relabeled, with
// MACs, SRAM accesses and compute utilization those of the whole grid.
func (s *Simulator) result(ctxs []*LayerContext) (LayerResult, error) {
	if !s.partitioned() {
		return ctxs[0].Result, nil
	}
	slowest := ctxs[0].Result.Compute
	for _, ctx := range ctxs[1:] {
		if c := ctx.Result.Compute; c.Cycles > slowest.Cycles {
			slowest = c
		}
	}
	cycles := slowest.Cycles
	lr := LayerResult{Kind: ctxs[0].Node.Kind, Compute: slowest}
	lr.Compute.Layer = ctxs[0].Layer
	lr.Compute.MACs, lr.Compute.IfmapReads, lr.Compute.FilterReads, lr.Compute.OfmapWrites = 0, 0, 0, 0
	mem := &lr.Memory
	mem.Cycles, mem.WordBytes = cycles, int64(s.cfg.WordBytes)
	node := &cycleacct.Ledger{}
	for _, ctx := range ctxs {
		w := ctx.Result
		lr.Compute.MACs += w.Compute.MACs
		lr.Compute.IfmapReads += w.Compute.IfmapReads
		lr.Compute.FilterReads += w.Compute.FilterReads
		lr.Compute.OfmapWrites += w.Compute.OfmapWrites
		mem.IfmapSRAMReads += w.Memory.IfmapSRAMReads
		mem.FilterSRAMReads += w.Memory.FilterSRAMReads
		mem.OfmapSRAMWrites += w.Memory.OfmapSRAMWrites
		mem.IfmapDRAMReads += w.Memory.IfmapDRAMReads
		mem.FilterDRAMReads += w.Memory.FilterDRAMReads
		mem.OfmapDRAMWrites += w.Memory.OfmapDRAMWrites
		mem.PeakIfmapBW += w.Memory.PeakIfmapBW
		mem.PeakFilterBW += w.Memory.PeakFilterBW
		mem.PeakOfmapBW += w.Memory.PeakOfmapBW

		// Close the books: the partition waits out the slowest one.
		pl := cycleacct.PartitionLedger{Pi: ctx.pi, Pj: ctx.pj, Ledger: w.Ledger.Clone()}
		pl.Add(cycleacct.PhaseGrid, cycleacct.PartitionSkew, cycles-w.Compute.Cycles)
		pl.Total = cycles
		lr.Partitions = append(lr.Partitions, pl)
		node.Total += pl.Total
		for _, b := range pl.Bins {
			node.Add(b.Phase, b.Category, b.Cycles)
		}
	}
	nl := cycleacct.NodeLedger{Index: ctxs[0].Index, Name: ctxs[0].Layer.Name, Ledger: *node, Partitions: lr.Partitions}
	if err := nl.Check(); err != nil {
		return LayerResult{}, fmt.Errorf("core: %w", err)
	}
	lr.Ledger = node
	peak := int64(s.cfg.MACs()) * s.arrays
	if cycles > 0 {
		c := float64(cycles)
		mem.AvgReadBW = float64(mem.DRAMReads()*mem.WordBytes) / c
		mem.AvgWriteBW = float64(mem.OfmapDRAMWrites*mem.WordBytes) / c
		lr.Compute.ComputeUtilization = float64(lr.Compute.MACs) / (float64(peak) * c)
	}
	lr.Energy = energy.Eyeriss().Compute(peak, cycles,
		mem.IfmapSRAMReads+mem.FilterSRAMReads+mem.OfmapSRAMWrites, mem.DRAMAccesses())
	return lr, nil
}
