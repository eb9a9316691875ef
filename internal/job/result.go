package job

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"scalesim/internal/batch"
	"scalesim/internal/core"
	"scalesim/internal/obsv"
	"scalesim/internal/report"
)

// Result is everything a completed job produced. Simulation jobs, scale-out
// ones (Spec.Parts) included, carry the RunResult and its manifest; sweep
// jobs carry the expanded rows and the sweep manifest.
type Result struct {
	// Run is the simulation outcome (zero for sweep jobs).
	Run core.RunResult
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
	"scaleout":  report.WriteScaleOut,
}

// Reports lists the report names available on this result, sorted: a
// partitioned run has only its scaleout table, the operator roll-up only
// exists for graph runs.
func (r *Result) Reports() []string {
	switch {
	case r.IsSweep():
		return nil
	case r.Run.Parts != nil:
		return []string{"scaleout"}
	}
	names := make([]string, 0, len(reportWriters))
	for name := range reportWriters {
		if name == "scaleout" || name == "operators" && r.Run.Graph == nil {
			continue
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
	if !slices.Contains(r.Reports(), name) {
		return fmt.Errorf("job: unknown report %q (have %v)", name, r.Reports())
	}
	return reportWriters[name](w, r.Run)
}
