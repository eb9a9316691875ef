package experiments

import (
	"fmt"

	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/obsv"
	"scalesim/internal/topology"
)

// The paper's abstract frames the whole study as finding the best scaling
// "within the available DRAM bandwidth", and its tool reports the bandwidth
// *required* for stall-free operation. This extension closes the loop: it
// bounds the memory link and measures the runtime the layer actually
// achieves, sweeping the available bandwidth to expose the knee where the
// accelerator turns memory-bound.

// BWPoint is one point of the bandwidth-scaling curve.
type BWPoint struct {
	// BandwidthWordsPerCycle is the available link bandwidth.
	BandwidthWordsPerCycle float64
	// StallFreeCycles is the compute-bound runtime.
	StallFreeCycles int64
	// StallCycles is the extra time the bounded link inflicts.
	StallCycles int64
	// Slowdown is (StallFreeCycles+StallCycles)/StallFreeCycles.
	Slowdown float64
	// Unit states the point as one manifest unit named <layer>@<bw>wpc
	// (core.Simulator.Unit), its roofline against the point's bandwidth.
	Unit obsv.Unit
}

// BandwidthCurve simulates the layer once per bandwidth point, each a run
// named <layer>@<bw>wpc of one core plan, recorded into obs (which may be
// nil) as unit i; results come back in bandwidth order.
func BandwidthCurve(l topology.Layer, cfg config.Config, bandwidths []float64, obs *obsv.Recorder) ([]BWPoint, error) {
	if len(bandwidths) == 0 {
		return nil, fmt.Errorf("experiments: no bandwidth points")
	}
	runs := make([]core.Run, len(bandwidths))
	for i, bw := range bandwidths {
		if bw <= 0 {
			return nil, fmt.Errorf("experiments: bandwidth %v must be positive", bw)
		}
		sim, err := core.New(cfg, core.Options{DRAMBandwidth: bw, Obs: obs})
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%s@%gwpc", l.Name, bw)
		runs[i] = core.Run{Sim: sim, Name: name, Topology: topology.Topology{Name: name, Layers: []topology.Layer{l}}}
	}
	results, err := core.SimulateRuns(runs)
	if err != nil {
		return nil, err
	}
	out := make([]BWPoint, len(runs))
	for i, res := range results {
		lr := res.Layers[0]
		out[i] = BWPoint{
			BandwidthWordsPerCycle: bandwidths[i],
			StallFreeCycles:        lr.Compute.Cycles,
			StallCycles:            lr.StallCycles,
			Slowdown:               float64(lr.StalledCycles()) / float64(lr.Compute.Cycles),
			Unit:                   runs[i].Sim.Unit(runs[i].Name, lr),
		}
	}
	return out, nil
}
