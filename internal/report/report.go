// Package report renders simulation results as the aggregate CSV reports
// the original SCALE-Sim tool produces alongside its traces: a cycles
// report, a bandwidth report and a detailed access-count report, plus a
// whole-run summary.
package report

import (
	"fmt"
	"io"

	"scalesim/internal/core"
)

// WriteCycles emits per-layer runtime and utilization.
func WriteCycles(w io.Writer, run core.RunResult) error {
	if _, err := fmt.Fprintln(w, "Layer,Cycles,ComputeUtil%,MappingUtil%,FoldsR,FoldsC"); err != nil {
		return err
	}
	for _, lr := range run.Layers {
		c := lr.Compute
		if _, err := fmt.Fprintf(w, "%s,%d,%.2f,%.2f,%d,%d\n",
			c.Layer.Name, c.Cycles,
			100*c.ComputeUtilization, 100*c.MappingUtilization,
			c.FoldsR, c.FoldsC); err != nil {
			return err
		}
	}
	return nil
}

// WriteBandwidth emits per-layer DRAM interface bandwidths in bytes/cycle.
func WriteBandwidth(w io.Writer, run core.RunResult) error {
	if _, err := fmt.Fprintln(w, "Layer,AvgReadBW,AvgWriteBW,PeakIfmapBW,PeakFilterBW,PeakOfmapBW"); err != nil {
		return err
	}
	for _, lr := range run.Layers {
		m := lr.Memory
		if _, err := fmt.Fprintf(w, "%s,%.4f,%.4f,%.4f,%.4f,%.4f\n",
			lr.Compute.Layer.Name,
			m.AvgReadBW, m.AvgWriteBW,
			m.PeakIfmapBW, m.PeakFilterBW, m.PeakOfmapBW); err != nil {
			return err
		}
	}
	return nil
}

// WriteDetail emits per-layer SRAM and DRAM access counts.
func WriteDetail(w io.Writer, run core.RunResult) error {
	if _, err := fmt.Fprintln(w, "Layer,IfmapSRAMReads,FilterSRAMReads,OfmapSRAMWrites,IfmapDRAMReads,FilterDRAMReads,OfmapDRAMWrites"); err != nil {
		return err
	}
	for _, lr := range run.Layers {
		m := lr.Memory
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d\n",
			lr.Compute.Layer.Name,
			m.IfmapSRAMReads, m.FilterSRAMReads, m.OfmapSRAMWrites,
			m.IfmapDRAMReads, m.FilterDRAMReads, m.OfmapDRAMWrites); err != nil {
			return err
		}
	}
	return nil
}

// WriteOperators emits one row per executed node of an operator-graph
// run: the operator kind, runtime, work (MACs for matmul nodes, vector
// ops for vector nodes) and stall cycles, in execution order. Returns
// without output when the run carries no graph.
func WriteOperators(w io.Writer, run core.RunResult) error {
	if run.Graph == nil {
		return nil
	}
	if _, err := fmt.Fprintln(w, "Node,Op,Cycles,StartCycle,MACs,VectorOps,StallCycles"); err != nil {
		return err
	}
	for _, lr := range run.Layers {
		var vops int64
		if lr.Vector != nil {
			vops = lr.Vector.Ops
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%d\n",
			lr.Compute.Layer.Name, lr.Kind,
			lr.Compute.Cycles, lr.StartCycle,
			lr.Compute.MACs, vops, lr.StallCycles); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary emits whole-run totals including the energy breakdown.
func WriteSummary(w io.Writer, run core.RunResult) error {
	_, err := fmt.Fprintf(w,
		"Topology,%s\nLayers,%d\nTotalCycles,%d\nTotalMACs,%d\nDRAMReads,%d\nDRAMWrites,%d\nAvgBandwidth,%.4f\nEnergyArray,%.0f\nEnergySRAM,%.0f\nEnergyDRAM,%.0f\nEnergyTotal,%.0f\n",
		run.Topology.Name, len(run.Layers),
		run.TotalCycles, run.TotalMACs,
		run.DRAMReads(), run.DRAMWrites(), run.AvgBandwidth(),
		run.TotalEnergy.Array, run.TotalEnergy.SRAM, run.TotalEnergy.DRAM,
		run.TotalEnergy.Total())
	return err
}

// WriteScaleOut emits a partitioned run's per-layer table (Options.Parts):
// each layer's runtime (its slowest partition's), average and summed peak
// DRAM bandwidth, DRAM traffic and energy over the whole grid.
func WriteScaleOut(w io.Writer, run core.RunResult) error {
	fmt.Fprintln(w, "Layer,Cycles,AvgBW,PeakBW,DRAMReads,DRAMWrites,EnergyTotal")
	for i, lr := range run.Layers {
		m := lr.Memory
		fmt.Fprintf(w, "%s,%d,%.4f,%.4f,%d,%d,%.0f\n", run.Topology.Layers[i].Name, lr.Compute.Cycles,
			m.AvgTotalBW(), m.PeakIfmapBW+m.PeakFilterBW+m.PeakOfmapBW, m.DRAMReads(), m.OfmapDRAMWrites,
			lr.Energy.Total())
	}
	_, err := fmt.Fprintf(w, "TOTAL,%d,,,,,\n", run.TotalCycles)
	return err
}
