package experiments

import (
	"fmt"
	"time"

	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/engine"
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

// BandwidthCurve simulates the layer once per bandwidth point. The points
// are independent full simulations, so they run on the shared engine's
// worker pool; results come back in bandwidth order. Each point's
// simulation is recorded into obs (which may be nil), and its wall time
// as unit i.
func BandwidthCurve(l topology.Layer, cfg config.Config, bandwidths []float64, obs *obsv.Recorder) ([]BWPoint, error) {
	if len(bandwidths) == 0 {
		return nil, fmt.Errorf("experiments: no bandwidth points")
	}
	for _, bw := range bandwidths {
		if bw <= 0 {
			return nil, fmt.Errorf("experiments: bandwidth %v must be positive", bw)
		}
	}
	return engine.Run(0, len(bandwidths), func(i int) (BWPoint, error) {
		bw := bandwidths[i]
		t0 := time.Now()
		sim, err := core.New(cfg, core.Options{DRAMBandwidth: bw, Obs: obs})
		if err != nil {
			return BWPoint{}, err
		}
		lr, err := sim.SimulateLayer(l)
		if err != nil {
			return BWPoint{}, err
		}
		obs.ObserveLayer(i, time.Since(t0))
		return BWPoint{
			BandwidthWordsPerCycle: bw,
			StallFreeCycles:        lr.Compute.Cycles,
			StallCycles:            lr.StallCycles,
			Slowdown:               float64(lr.StalledCycles()) / float64(lr.Compute.Cycles),
			Unit:                   sim.Unit(fmt.Sprintf("%s@%gwpc", l.Name, bw), lr),
		}, nil
	})
}
