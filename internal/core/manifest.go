package core

import (
	"runtime"

	"scalesim/internal/obsv"
	"scalesim/internal/obsv/log"
)

// Manifest assembles the machine-readable record of a completed run: the
// configuration hash and topology identity, one entry per layer (cycles,
// utilization, stalls, DRAM traffic, wall time), and — when Options.Obs
// was attached — phase timings, engine span aggregates, metric snapshots
// and Go runtime stats. Works with a nil recorder too; the manifest then
// carries results without wall-clock costs.
func (s *Simulator) Manifest(res RunResult) *obsv.Manifest {
	rec := s.opt.Obs
	m := rec.Manifest()
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
	peakMACs := float64(res.Config.MACs())
	m.Layers = make([]obsv.LayerMetrics, 0, len(res.Layers))
	for i, lr := range res.Layers {
		lm := obsv.LayerMetrics{
			Index:       i,
			Name:        res.Topology.Layers[i].Name,
			Op:          string(lr.Kind),
			Cycles:      lr.Compute.Cycles,
			StallCycles: lr.StallCycles,
			StartCycle:  lr.StartCycle,
			MACs:        lr.Compute.MACs,
			DRAMReads:   lr.Memory.DRAMReads(),
			DRAMWrites:  lr.Memory.OfmapDRAMWrites,
			WallSeconds: rec.LayerSeconds(i),
		}
		if lr.Vector != nil {
			lm.VectorOps = lr.Vector.Ops
		}
		if lr.Compute.Cycles > 0 && peakMACs > 0 {
			lm.Utilization = float64(lr.Compute.MACs) / (peakMACs * float64(lr.Compute.Cycles))
		}
		m.Layers = append(m.Layers, lm)
	}
	m.Cache = s.opt.Cache.ManifestStats()
	// Every pipeline run carries ledgers (live and cached alike); a
	// failure here means an invariant break and is logged, never hidden
	// inside a partially-filled manifest.
	if ca, err := s.CycleReport(res); err != nil {
		log.Default().Error("core", "cycle accounting", "error", err)
	} else {
		m.CycleAccounting = ca
	}
	if w := s.opt.Timeline; w != nil {
		tl := &obsv.TimelineSummary{
			Events:       w.Events(),
			WindowCycles: w.Window(),
		}
		if peaks := w.CounterPeaks(); len(peaks) > 0 {
			tl.PeakWordsPerCycle = peaks
		}
		for i, lr := range res.Layers {
			if lr.StallCycles <= 0 {
				continue
			}
			tl.LayerStalls = append(tl.LayerStalls, obsv.LayerStall{
				Index: i,
				Name:  res.Topology.Layers[i].Name,
				StallFraction: float64(lr.StallCycles) /
					float64(lr.StalledCycles()),
			})
		}
		m.Timeline = tl
	}
	return m
}
