package core

import (
	"context"
	"sort"

	"scalesim/internal/memory"
	"scalesim/internal/obsv/log"
	"scalesim/internal/systolic"
	"scalesim/internal/vector"
)

// runPlan is how execute runs a list of contexts — the nodes of runs, one
// node, or the windows of a layer.
//
// When a context's Simulator is observable through its results alone
// (Simulator.planned) its compute stage is a pure function of nodeKey —
// the contract the result cache rests on — so contexts sharing a key need
// simulating once: the first leads, and the rest replay its entry through
// a cache hit's path (relabel, then stageAnalyze: names and energy stay
// per node). 33 of ResNet50's 54 layers and 38 of BERTBase's 47 nodes are
// such repeats. The key carries each Simulator's configuration, so a
// replay across runs is as exact as one within a run; a window's key
// carries its offsets, so the windows of a layer lead one each.
//
// The leaders are dispatched largest first, by the SRAM words their
// closed-form traffic says they will stream, so that the longest job is
// never the one that starts last and runs alone; among a layer's windows
// the interior ones go before the smaller edge remainders.
//
// With a live consumer a Simulator's contexts all lead, and the plan keeps
// index order, so each consumer sees exactly the stream it always saw.
type runPlan struct {
	// order lists the leaders in dispatch order.
	order []int
	// lead maps every context to its leader (itself, for a leader).
	lead []int
	// reserve covers the IFMAP, filter and OFMAP regions of the matmul
	// leaders, what the plan's new residency tables are sized for (see
	// Simulator.equip).
	reserve memory.Reservation
}

func plan(ctxs []*LayerContext) runPlan {
	p := runPlan{lead: make([]int, len(ctxs))}
	first := make(map[string]int)
	sorted := true
	for i, ctx := range ctxs {
		p.lead[i] = i
		sorted = sorted && ctx.sim.planned
		if ctx.sim.planned {
			key := ctx.sim.nodeKey(ctx.Node, ctx.Window)
			if j, ok := first[key]; ok {
				p.lead[i] = j
				continue
			}
			first[key] = i
		}
		p.order = append(p.order, i)
		if !ctx.Node.Kind.Vector() {
			p.reserve.Add(regions(ctx.Layer))
		}
	}
	if sorted {
		words := make([]int64, len(ctxs))
		for _, i := range p.order {
			words[i] = ctxs[i].sim.sramWords(ctxs[i])
		}
		sort.SliceStable(p.order, func(a, b int) bool { return words[p.order[a]] > words[p.order[b]] })
	}
	if lg := log.Default(); lg.Enabled(context.Background(), log.LevelDebug) {
		lg.Debug("run plan", "subsystem", "core", "nodes", len(ctxs), "distinct", len(p.order), "order", p.order)
	}
	return p
}

// sramWords is a context's closed-form SRAM traffic in words, the plan's
// measure of how long simulating it takes.
func (s *Simulator) sramWords(ctx *LayerContext) int64 {
	if ctx.Node.Kind.Vector() {
		t := vector.Traffic(s.vectorParams(ctx.Node))
		return t.InputSRAMReads + t.ParamSRAMReads + t.OutputSRAMWrites
	}
	// An invalid node or window estimates to zero words, sorts last and
	// fails in its own stages, under its own name.
	r, _ := systolic.EstimateWindow(ctx.Layer, s.cfg, ctx.Window)
	return r.IfmapReads + r.FilterReads + r.OfmapWrites
}
