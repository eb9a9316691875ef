package core

import (
	"context"
	"sort"

	"scalesim/internal/obsv/log"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
	"scalesim/internal/vector"
)

// runPlan is what runNodes executes for a list of nodes.
//
// When the run is observable through its results alone (Simulator.planned)
// the compute stage is a pure function of nodeKey — the contract the result
// cache has rested on since it exists — so nodes sharing a key need
// simulating once: the first of them leads, and the rest replay its entry
// through the path a cache hit takes (relabel, then stageAnalyze: names and
// energy stay per node). Networks repeat themselves: 33 of ResNet50's 54
// layers and 38 of BERTBase's 47 nodes are such repeats.
//
// The leaders are dispatched largest first, by the SRAM words their
// closed-form traffic says they will stream, so that the longest job is
// never the one that starts last and runs alone.
//
// With any live consumer the plan is the identity: every node leads, in
// index order, and each consumer sees exactly the stream it always saw.
type runPlan struct {
	// order lists the leaders in dispatch order.
	order []int
	// lead maps every node to its leader (itself, for a leader).
	lead []int
	// reserve is the largest IFMAP, filter and OFMAP region (words) over
	// the matmul leaders, what the run's new residency tables are sized
	// for (see Simulator.equip).
	reserve [3]int64
}

func (s *Simulator) plan(nodes []topology.Node) runPlan {
	p := runPlan{lead: make([]int, len(nodes))}
	first := make(map[string]int)
	for i, n := range nodes {
		p.lead[i] = i
		if s.planned {
			key := s.nodeKey(n, systolic.Window{})
			if j, ok := first[key]; ok {
				p.lead[i] = j
				continue
			}
			first[key] = i
		}
		p.order = append(p.order, i)
		if !n.Kind.Vector() {
			for k, w := range regions(n.Layer) {
				p.reserve[k] = max(p.reserve[k], w)
			}
		}
	}
	if s.planned {
		words := make([]int64, len(nodes))
		for _, i := range p.order {
			words[i] = s.sramWords(nodes[i])
		}
		sort.SliceStable(p.order, func(a, b int) bool { return words[p.order[a]] > words[p.order[b]] })
	}
	if lg := log.Default(); lg.Enabled(context.Background(), log.LevelDebug) {
		lg.Debug("run plan", "subsystem", "core", "nodes", len(nodes), "distinct", len(p.order), "order", p.order)
	}
	return p
}

// sramWords is a node's closed-form SRAM traffic in words, the plan's
// measure of how long simulating it takes.
func (s *Simulator) sramWords(n topology.Node) int64 {
	if n.Kind.Vector() {
		t := vector.Traffic(s.vectorParams(n))
		return t.InputSRAMReads + t.ParamSRAMReads + t.OutputSRAMWrites
	}
	// An invalid node estimates to zero words, sorts last and fails in its
	// own map stage, under its own name.
	r, _ := systolic.Estimate(n.Layer, s.cfg)
	return r.IfmapReads + r.FilterReads + r.OfmapWrites
}
