package core

import (
	"runtime"

	"scalesim/internal/obsv"
	"scalesim/internal/obsv/cycleacct"
)

// Manifest assembles the machine-readable record of a completed run: the
// configuration hash and topology identity, and one Unit per layer. When
// Options.Obs was attached it also carries phase timings, engine span
// aggregates, metric snapshots and Go runtime stats. Works with a nil
// recorder too; the manifest then carries results without wall-clock
// costs. A layer whose books do not close is an error.
func (s *Simulator) Manifest(res RunResult) (*obsv.Manifest, error) {
	units := make([]obsv.Unit, len(res.Layers))
	for i, lr := range res.Layers {
		units[i] = s.Unit(res.Topology.Layers[i].Name, lr)
	}
	m, err := s.opt.Obs.Record(units)
	if err != nil {
		return nil, err
	}
	m.Tool = "scalesim"
	m.Run = res.Config.RunName
	m.ConfigHash = res.Config.Hash()
	if m.Workers = s.opt.Workers; m.Workers <= 0 {
		m.Workers = runtime.GOMAXPROCS(0) // the engine's default resolution
	}
	m.Topology = &obsv.TopologyInfo{Name: res.Topology.Name, Layers: len(res.Topology.Layers)}
	if res.Graph != nil {
		m.Topology.Nodes = len(res.Graph.Nodes)
		m.Topology.Edges = res.Graph.Edges()
	}
	m.Cache = s.opt.Cache.ManifestStats()
	m.Timeline = s.opt.Timeline.Summary(m.Layers)
	return m, nil
}

// Unit states one node's result under name as the unit obsv.Recorder.Record
// rolls up: its entry (cycles, utilization, stalls, start cycle, DRAM
// traffic), its ledger with any partition ledgers, and its roofline row —
// positioned against the system's compute ceiling (every array of the
// Parts grid; the vector unit's lanes for vector nodes) and
// Options.DRAMBandwidth (zero: unbounded, so compute-bound).
func (s *Simulator) Unit(name string, lr LayerResult) obsv.Unit {
	peakMACs := float64(int64(s.cfg.MACs()) * s.arrays)
	wordBytes := int64(s.cfg.WordBytes)
	e := obsv.LayerMetrics{
		Name:        name,
		Op:          string(lr.Kind),
		Cycles:      lr.Compute.Cycles,
		StallCycles: lr.StallCycles,
		StartCycle:  lr.StartCycle,
		MACs:        lr.Compute.MACs,
		DRAMReads:   lr.Memory.DRAMReads(),
		DRAMWrites:  lr.Memory.OfmapDRAMWrites,
	}
	if lr.Compute.Cycles > 0 && peakMACs > 0 {
		e.Utilization = float64(lr.Compute.MACs) / (peakMACs * float64(lr.Compute.Cycles))
	}
	ops, peak := lr.Compute.MACs, peakMACs
	if lr.Vector != nil {
		e.VectorOps = lr.Vector.Ops
		ops, peak = lr.Vector.Ops, float64(s.cfg.Lanes())
	}
	row := cycleacct.NewRooflineRow(e.Name, e.Op, ops, lr.Memory.DRAMAccesses()*wordBytes,
		lr.StalledCycles(), peak, s.opt.DRAMBandwidth, wordBytes)
	return obsv.Unit{Entry: e, Ledger: lr.Ledger, Partitions: lr.Partitions, Roofline: &row}
}
