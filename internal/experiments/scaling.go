package experiments

import (
	"fmt"
	"time"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/dataflow"
	"scalesim/internal/engine"
	"scalesim/internal/obsv"
	"scalesim/internal/partition"
	"scalesim/internal/topology"
)

// Obs bundles the observability hooks a figure sweep threads through its
// cycle-accurate runs: a recorder for sweep-level spans, phase and
// per-point wall timings, and a live progress reporter. The zero value
// disables both.
type Obs struct {
	Rec      *obsv.Recorder
	Progress *obsv.Progress
}

// --- Fig. 11 / Fig. 12: cycle-accurate partition sweeps ------------------

// Series is one curve of a scale-out figure: a layer swept over the
// figure's partition counts at one MAC budget.
type Series struct {
	Name  string
	Layer topology.Layer
	MACs  int64
}

// LayerSeries is one series per MAC budget for the layer, named
// <layer>@<macs>MACs: the curves of Fig. 12.
func LayerSeries(l topology.Layer, macBudgets []int64) []Series {
	out := make([]Series, len(macBudgets))
	for i, b := range macBudgets {
		out[i] = Series{Name: fmt.Sprintf("%s@%dMACs", l.Name, b), Layer: l, MACs: b}
	}
	return out
}

// Fig11Series is the two layers Fig. 11 shows, CB2a_3 then TF0, at each
// MAC budget in the order given.
func Fig11Series(macBudgets []int64) []Series {
	var out []Series
	for _, b := range macBudgets {
		for _, l := range []topology.Layer{CB2a3(), TF0()} {
			out = append(out, LayerSeries(l, []int64{b})...)
		}
	}
	return out
}

// Fig12 is the energy view of the partition sweep: one series per MAC
// budget for the given layer, results in budget order.
func Fig12(l topology.Layer, macBudgets []int64, partCounts []int64) ([][]partition.Result, error) {
	return ScaleOut(LayerSeries(l, macBudgets), partCounts, Obs{})
}

// ScaleOut runs every series cycle-accurately for each partition count of
// its MAC budget, with the paper's Fig. 11 memory setup (512 KiB IFMAP,
// 512 KiB filter, 256 KiB OFMAP, divided among partitions) and the OS
// dataflow. Counts that do not divide the budget or violate the 8x8
// minimum array are skipped; a series left with no feasible count is
// refused before any point runs.
//
// Each (series, count) point is one job on the shared engine's pool, its
// partitions sequential rather than multiplying the two levels. A point
// records its wall time in obs.Rec and steps obs.Progress; results are
// identical for every obs, the zero one included. They come back per
// series, in partition-count order.
func ScaleOut(series []Series, partCounts []int64, obs Obs) ([][]partition.Result, error) {
	base := config.New().WithSRAM(512, 512, 256).WithDataflow(config.OutputStationary)
	type point struct {
		series int
		spec   partition.Spec
		name   string
	}
	var points []point
	for i, s := range series {
		if err := s.Layer.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s.Layer.Name, err)
		}
		m := dataflow.Map(s.Layer, base.Dataflow)
		feasible := len(points)
		for _, p := range partCounts {
			if spec, ok := partition.BestSpec(m, s.MACs, p, 8); ok {
				points = append(points, point{i, spec, fmt.Sprintf("%s/%dparts", s.Name, p)})
			}
		}
		if len(points) == feasible {
			return nil, fmt.Errorf("experiments: %s: partition: no feasible partitioning of %d MACs (minDim 8)",
				s.Layer.Name, s.MACs)
		}
	}

	obs.Progress.Start(len(points))
	defer obs.Rec.Phase("experiments.scaleout")()
	results, err := engine.RunObserved(0, len(points), obs.Rec.SpanSink(), func(i int) (partition.Result, error) {
		pt, t0 := points[i], time.Now()
		l := series[pt.series].Layer
		r, err := partition.Run(l, base, pt.spec, partition.Options{Parallel: 1})
		if err != nil {
			return r, fmt.Errorf("experiments: %s: %w", l.Name, err)
		}
		obs.Rec.ObserveLayer(i, pt.name, time.Since(t0))
		obs.Progress.Step(pt.name)
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]partition.Result, len(series))
	for i, pt := range points {
		out[pt.series] = append(out[pt.series], results[i])
	}
	return out, nil
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
