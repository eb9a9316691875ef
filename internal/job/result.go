package job

import (
	"fmt"
	"io"
	"sort"

	"scalesim/internal/batch"
	"scalesim/internal/core"
	"scalesim/internal/obsv"
	"scalesim/internal/partition"
	"scalesim/internal/report"
)

// Result is everything a completed job produced. Simulation jobs carry
// the RunResult and its manifest; scale-out jobs (Spec.Parts) carry one
// joined partition result per layer instead of a RunResult; sweep jobs
// carry the expanded rows and the sweep manifest.
type Result struct {
	// Run is the simulation outcome (zero for scale-out and sweep jobs).
	Run core.RunResult
	// ScaleOut holds one joined result per layer for Spec.Parts jobs. It
	// is not a RunResult: a joined layer closes its ledger on partitions x
	// runtime and has no fold counts or utilization.
	ScaleOut []partition.Result
	// Manifest is the machine-readable run record (schema
	// scalesim.manifest/v4), including cache statistics and the cycle-
	// accounting ledger.
	Manifest *obsv.Manifest
	// Rows holds per-point sweep results for sweep jobs; nil for
	// simulation jobs.
	Rows []batch.Row
}

// IsSweep reports whether the result came from a sweep job.
func (r *Result) IsSweep() bool { return r.Rows != nil }

// reportWriters maps report names to their renderers — the same
// functions the scalesim CLI writes to <run>_<name>.csv files, so a
// report fetched from the daemon is byte-identical to the CLI file.
var reportWriters = map[string]func(io.Writer, core.RunResult) error{
	"cycles":    report.WriteCycles,
	"bandwidth": report.WriteBandwidth,
	"detail":    report.WriteDetail,
	"summary":   report.WriteSummary,
	"operators": report.WriteOperators,
}

// Reports lists the report names available on this result, sorted.
func (r *Result) Reports() []string {
	switch {
	case r.IsSweep():
		return nil
	case r.ScaleOut != nil:
		return []string{"scaleout"}
	}
	names := make([]string, 0, len(reportWriters))
	for name := range reportWriters {
		if name == "operators" && r.Run.Graph == nil {
			continue // operator roll-up only exists for graph runs
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteReport renders the named report for a simulation result.
func (r *Result) WriteReport(w io.Writer, name string) error {
	if r.IsSweep() {
		return fmt.Errorf("job: sweep results have no per-layer reports")
	}
	if r.ScaleOut != nil && name == "scaleout" {
		return writeScaleOut(w, r.ScaleOut)
	}
	wr, ok := reportWriters[name]
	if !ok || r.ScaleOut != nil {
		return fmt.Errorf("job: unknown report %q (have %v)", name, r.Reports())
	}
	if name == "operators" && r.Run.Graph == nil {
		return fmt.Errorf("job: report %q requires a graph run", name)
	}
	return wr(w, r.Run)
}

// writeScaleOut renders a scale-out job's per-layer table — the bytes the
// scalesim CLI prints for -parts below its header line.
func writeScaleOut(w io.Writer, layers []partition.Result) error {
	fmt.Fprintln(w, "Layer,Cycles,AvgBW,PeakBW,DRAMReads,DRAMWrites,EnergyTotal")
	var total int64
	for _, res := range layers {
		total += res.Cycles
		fmt.Fprintf(w, "%s,%d,%.4f,%.4f,%d,%d,%.0f\n", res.Layer.Name, res.Cycles,
			res.AvgDRAMBW(), res.PeakDRAMBW, res.DRAMReads, res.DRAMWrites, res.Energy.Total())
	}
	_, err := fmt.Fprintf(w, "TOTAL,%d,,,,,\n", total)
	return err
}
