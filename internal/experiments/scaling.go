package experiments

import (
	"fmt"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/dataflow"
	"scalesim/internal/partition"
	"scalesim/internal/topology"
)

// --- Fig. 11 / Fig. 12: cycle-accurate partition sweeps ------------------

// Fig11Base is the paper's Fig. 11 memory setup, which Fig. 12 and the
// sweet spot share: 512 KiB IFMAP, 512 KiB filter and 256 KiB OFMAP,
// divided among partitions, under the OS dataflow.
func Fig11Base() config.Config {
	return config.New().WithSRAM(512, 512, 256).WithDataflow(config.OutputStationary)
}

// LayerSeries is one series per MAC budget for the layer, named
// <layer>@<macs>MACs: the curves of Fig. 12.
func LayerSeries(l topology.Layer, macBudgets []int64) []partition.Series {
	out := make([]partition.Series, len(macBudgets))
	for i, b := range macBudgets {
		out[i] = partition.Series{Name: fmt.Sprintf("%s@%dMACs", l.Name, b), Layer: l, MACs: b}
	}
	return out
}

// Fig11Series is the two layers Fig. 11 shows, CB2a_3 then TF0, at each
// MAC budget in the order given.
func Fig11Series(macBudgets []int64) []partition.Series {
	var out []partition.Series
	for _, b := range macBudgets {
		for _, l := range []topology.Layer{CB2a3(), TF0()} {
			out = append(out, LayerSeries(l, []int64{b})...)
		}
	}
	return out
}

// Fig12 is the energy view of the partition sweep: one series per MAC
// budget for the given layer, on Fig11Base with the 8x8 minimum array,
// results in budget order.
func Fig12(l topology.Layer, macBudgets []int64, partCounts []int64) ([][]partition.Result, error) {
	return partition.Sweep(LayerSeries(l, macBudgets), partCounts, Fig11Base(), 8, partition.Options{})
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
