package core

import "scalesim/internal/topology"

// SimulateGraph runs an operator-graph workload: nodes are resolved into
// the graph's deterministic topological order and executed like the layers
// of a flat topology (runNodes). Matmul-shaped nodes take the systolic
// path, vector-shaped nodes the vector unit; both flow through the same
// caching, tracing, stall, energy and timeline machinery as flat runs.
//
// The modeled hardware executes one node at a time: Graph.Schedule fixes
// the reported order and cycle offsets accumulate over it, exactly as
// Simulate's, so results, traces and reports are byte-identical for every
// worker count.
func (s *Simulator) SimulateGraph(g topology.Graph) (RunResult, error) {
	if s.partitioned() {
		return RunResult{}, ErrPartsGraph
	}
	stop := s.opt.Obs.Phase("core.validate")
	err := g.Validate()
	stop()
	if err != nil {
		return RunResult{}, err
	}
	nodes, _, err := g.Schedule()
	if err != nil {
		return RunResult{}, err
	}
	// Synthesize the execution-order topology so reports and manifests
	// render graph runs with the same machinery as flat runs.
	topo := topology.Topology{Name: g.Name, Layers: make([]topology.Layer, len(nodes))}
	for i, n := range nodes {
		l := n.Layer
		l.Name = n.Name
		topo.Layers[i] = l
	}
	return s.runNodes(RunResult{Config: s.base, Topology: topo, Graph: &g}, nodes)
}
