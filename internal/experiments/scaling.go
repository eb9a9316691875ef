package experiments

import (
	"fmt"
	"time"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/dataflow"
	"scalesim/internal/energy"
	"scalesim/internal/engine"
	"scalesim/internal/obsv"
	"scalesim/internal/partition"
	"scalesim/internal/topology"
)

// Obs bundles the observability hooks a figure sweep threads through its
// cycle-accurate runs: a recorder for sweep-level spans, phase and
// per-series wall timings, and a live progress reporter. The zero value
// disables both.
type Obs struct {
	Rec      *obsv.Recorder
	Progress *obsv.Progress
}

// --- Fig. 11 / Fig. 12: cycle-accurate partition sweeps ------------------

// SweepRow is one partition count of a Fig. 11 / Fig. 12 sweep: runtime,
// DRAM bandwidth demand and energy for a fixed total MAC budget.
type SweepRow struct {
	Layer      string
	MACs       int64
	Partitions int64
	// Spec is the chosen grid and per-array shape.
	Spec partition.Spec
	// Cycles is the cycle-accurate runtime (slowest partition).
	Cycles int64
	// AvgBW and PeakBW are DRAM demand bandwidths in bytes per cycle.
	AvgBW, PeakBW float64
	// DRAMReads and DRAMWrites are total interface words.
	DRAMReads, DRAMWrites int64
	// Energy is the run's energy breakdown.
	Energy energy.Breakdown
}

// PartitionSweep runs the layer cycle-accurately for each partition count
// of a fixed MAC budget, with the paper's Fig. 11 memory setup (512 KiB
// IFMAP, 512 KiB filter, 256 KiB OFMAP, divided among partitions) and the
// OS dataflow. Partition counts that do not divide the budget or violate
// the 8x8 minimum array are skipped.
func PartitionSweep(l topology.Layer, totalMACs int64, partCounts []int64, opt partition.Options) ([]SweepRow, error) {
	base := config.New().WithSRAM(512, 512, 256).WithDataflow(config.OutputStationary)
	results, err := partition.Sweep(l, base, totalMACs, partCounts, 8, opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", l.Name, err)
	}
	rows := make([]SweepRow, 0, len(results))
	for _, r := range results {
		rows = append(rows, SweepRow{
			Layer:      l.Name,
			MACs:       totalMACs,
			Partitions: r.Spec.Parts.Count(),
			Spec:       r.Spec,
			Cycles:     r.Cycles,
			AvgBW:      r.AvgDRAMBW(),
			PeakBW:     r.PeakDRAMBW,
			DRAMReads:  r.DRAMReads,
			DRAMWrites: r.DRAMWrites,
			Energy:     r.Energy,
		})
	}
	return rows, nil
}

// Fig11Obs sweeps runtime and DRAM bandwidth versus partition count for
// the two layers the figure shows (CB2a_3 and TF0) at the given MAC budget.
// Sweep-level engine spans and per-series wall timings land in obs.Rec,
// completed series step obs.Progress; rows are identical for every obs,
// the zero one included.
func Fig11Obs(totalMACs int64, partCounts []int64, obs Obs) (map[string][]SweepRow, error) {
	series := []sweepSeries{{CB2a3().Name, CB2a3(), totalMACs}, {TF0().Name, TF0(), totalMACs}}
	rows, err := runSeries("experiments.fig11", series, partCounts, obs)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]SweepRow, len(series))
	for i, s := range series {
		out[s.name] = rows[i]
	}
	return out, nil
}

// Fig12 is the energy view of the same sweep: one series per MAC budget for
// the given layer.
func Fig12(l topology.Layer, macBudgets []int64, partCounts []int64) (map[int64][]SweepRow, error) {
	return Fig12Obs(l, macBudgets, partCounts, Obs{})
}

// Fig12Obs is Fig12 with observability, mirroring Fig11Obs.
func Fig12Obs(l topology.Layer, macBudgets []int64, partCounts []int64, obs Obs) (map[int64][]SweepRow, error) {
	series := make([]sweepSeries, len(macBudgets))
	for i, b := range macBudgets {
		series[i] = sweepSeries{fmt.Sprintf("%s@%dMACs", l.Name, b), l, b}
	}
	rows, err := runSeries("experiments.fig12", series, partCounts, obs)
	if err != nil {
		return nil, err
	}
	out := make(map[int64][]SweepRow, len(series))
	for i, s := range series {
		out[s.macs] = rows[i]
	}
	return out, nil
}

// sweepSeries is one series of a scale-out figure: a layer swept over the
// figure's partition counts at one MAC budget.
type sweepSeries struct {
	name  string
	layer topology.Layer
	macs  int64
}

// runSeries sweeps a figure's series under the observability hooks:
// per-series wall time into the recorder, one progress step per finished
// series. The series run concurrently on the shared engine's pool, so each
// one's partitions stay sequential rather than multiplying the two levels;
// rows come back in series order.
func runSeries(phase string, series []sweepSeries, partCounts []int64, obs Obs) ([][]SweepRow, error) {
	obs.Progress.Start(len(series))
	defer obs.Rec.Phase(phase)()
	return engine.RunObserved(0, len(series), obs.Rec.SpanSink(), func(i int) ([]SweepRow, error) {
		s := series[i]
		var t0 time.Time
		if obs.Rec.Enabled() {
			t0 = time.Now()
		}
		rows, err := PartitionSweep(s.layer, s.macs, partCounts, partition.Options{Parallel: 1})
		if err != nil {
			return nil, err
		}
		obs.Rec.ObserveLayer(i, s.name, time.Since(t0))
		obs.Progress.Step(s.name)
		return rows, nil
	})
}

// --- Fig. 13 / Fig. 14: multi-workload pareto optimality -----------------

// ParetoRow is one MAC budget's candidate runtimes, normalized to the best
// candidate (fastest first), for Figs. 13 and 14.
type ParetoRow struct {
	MACs int64
	// Loss holds each candidate's total runtime divided by the best
	// candidate's, sorted ascending (Loss[0] == 1).
	Loss []float64
	// Best is the pareto-optimal configuration.
	Best analytical.SystemConfig
}

// paretoWorkloads builds the workload set the figures use: ResNet50's
// convolution/FC layers plus the Table IV language-model layers, under OS.
func paretoWorkloads() []analytical.Workload {
	var out []analytical.Workload
	for _, topo := range []topology.Topology{topology.ResNet50(), topology.LanguageModels()} {
		for _, l := range topo.Layers {
			out = append(out, analytical.Workload{
				Name: topo.Name + "/" + l.Name,
				M:    dataflow.Map(l, config.OutputStationary),
			})
		}
	}
	return out
}

// Fig13 runs the pareto selection over monolithic candidates for each MAC
// budget (aspect-ratio candidates, Fig. 13).
func Fig13(macBudgets []int64) ([]ParetoRow, error) {
	return paretoRows(macBudgets, false, 1)
}

// Fig14 runs the pareto selection over scale-out candidates (Fig. 14) with
// the paper's 8x8 minimum per-partition array.
func Fig14(macBudgets []int64) ([]ParetoRow, error) {
	return paretoRows(macBudgets, true, 8)
}

func paretoRows(macBudgets []int64, scaleOut bool, minDim int64) ([]ParetoRow, error) {
	ws := paretoWorkloads()
	rows := make([]ParetoRow, 0, len(macBudgets))
	for _, macs := range macBudgets {
		res, err := analytical.ParetoSearch(ws, macs, minDim, 0, scaleOut)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ParetoRow{MACs: macs, Loss: res.NormalizedLoss(), Best: res.Best.Config})
	}
	return rows, nil
}
