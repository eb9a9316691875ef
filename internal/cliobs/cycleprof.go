package cliobs

import (
	"flag"
	"fmt"
	"io"

	"scalesim/internal/disk"
	"scalesim/internal/obsv/cycleacct"
)

// CycleProfFlags holds the cycle-accounting export flags shared by the
// simulating CLIs: -cycleprof writes the run's simulated-cycle ledger as
// a pprof profile (open with `go tool pprof`), -roofline writes the
// per-layer roofline characterization as CSV.
type CycleProfFlags struct {
	profPath     string
	rooflinePath string
}

// RegisterCycleProf adds the cycle-accounting export flags to fs. Tools
// whose runs carry no roofline rows (sweeps) pass roofline=false to
// register only -cycleprof.
func RegisterCycleProf(fs *flag.FlagSet, roofline bool) *CycleProfFlags {
	f := &CycleProfFlags{}
	fs.StringVar(&f.profPath, "cycleprof", "",
		"write the run's simulated-cycle attribution as a gzipped pprof profile to this path")
	if roofline {
		fs.StringVar(&f.rooflinePath, "roofline", "",
			"write the per-layer roofline characterization (CSV) to this path")
	}
	return f
}

// Active reports whether any cycle-accounting output was requested.
func (f *CycleProfFlags) Active() bool {
	return f.profPath != "" || f.rooflinePath != ""
}

// Write renders the report to whichever outputs the flags request.
// network labels the profile's root frame. Requesting an output from a
// run that produced no account is an error, never a silent no-op.
func (f *CycleProfFlags) Write(r *cycleacct.Report, network string) error {
	if !f.Active() {
		return nil
	}
	if r == nil {
		return fmt.Errorf("cliobs: run produced no cycle accounting")
	}
	if f.profPath != "" {
		err := disk.Create(f.profPath, func(w io.Writer) error {
			return r.WritePprof(w, network)
		})
		if err != nil {
			return err
		}
	}
	if f.rooflinePath != "" {
		err := disk.Create(f.rooflinePath, func(w io.Writer) error {
			return cycleacct.WriteRooflineCSV(w, r.Roofline)
		})
		if err != nil {
			return err
		}
	}
	return nil
}
