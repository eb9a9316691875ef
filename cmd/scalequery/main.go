// Command scalequery queries a run registry written by the simulation
// CLIs' -run-dir flag: the durable record of past runs that the paper's
// comparative methodology works from. Five verbs:
//
//	list   — every stored run, newest first (-ids for bare IDs)
//	show   — one run's manifest (ID or unique ID prefix)
//	diff   — per-layer cycle/stall/utilization deltas between two runs,
//	         flagging layers that regressed beyond -threshold; exits
//	         non-zero when the runs differ materially, zero when a replay
//	         is identical
//	top    — layers ranked by stall fraction across every stored run;
//	         -by <category> ranks nodes by a cycle-accounting bin
//	         (dram_bw_stall, fold_drain, partition_skew_wait, ...) instead
//	cycles — one run's cycle accounting: the node ledger table, category
//	         shares and roofline table; -cycleprof/-roofline write the
//	         same pprof profile and CSV the simulating CLIs write
//
// Flags may stand before or after the verb and its arguments.
//
// Usage:
//
//	scalequery -dir runs list
//	scalequery -dir runs show 20260808T
//	scalequery -dir runs diff <idA> <idB> [-threshold 0.05]
//	scalequery -dir runs top [-n 10] [-by dram_bw_stall]
//	scalequery -dir runs cycles 20260808T [-cycleprof prof.pb.gz] [-roofline roof.csv]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"scalesim/internal/cliobs"
	"scalesim/internal/obsv/cycleacct"
	"scalesim/internal/runstore"
)

// errDiffers marks a diff that found material differences: the command
// succeeded, but the exit status must say "not identical".
var errDiffers = fmt.Errorf("runs differ")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == errDiffers {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalequery:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scalequery", flag.ContinueOnError)
	var (
		dir       = fs.String("dir", "runs", "run registry directory (written by -run-dir)")
		ids       = fs.Bool("ids", false, "list: print bare run IDs only, for scripting")
		threshold = fs.Float64("threshold", 0.05, "diff: fractional cycle/stall growth that counts as a regression")
		topN      = fs.Int("n", 10, "top: number of layers to show (0 = all)")
		topBy     = fs.String("by", "", "top: rank by a cycle-accounting category (e.g. dram_bw_stall, fold_drain) instead of stall fraction")
	)
	cyc := cliobs.RegisterCycleProf(fs, true)
	// flag.Parse stops at the first positional; parse again behind each
	// one so flags are accepted on either side of the verb and its IDs.
	var pos []string
	for rest := args; ; rest = fs.Args()[1:] {
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if fs.NArg() == 0 {
			break
		}
		pos = append(pos, fs.Arg(0))
	}
	if len(pos) == 0 {
		return fmt.Errorf("pass a verb: list, show, diff, top or cycles")
	}
	verb := pos[0]
	s, err := runstore.Open(*dir)
	if err != nil {
		return err
	}
	switch verb {
	case "list":
		return list(s, stdout, *ids)
	case "show":
		if len(pos) != 2 {
			return fmt.Errorf("usage: show <run-id>")
		}
		return show(s, stdout, pos[1])
	case "diff":
		if len(pos) != 3 {
			return fmt.Errorf("usage: diff <run-id-a> <run-id-b>")
		}
		return diff(s, stdout, pos[1], pos[2], *threshold)
	case "top":
		if *topBy != "" {
			return topByCategory(s, stdout, *topBy, *topN)
		}
		return top(s, stdout, *topN)
	case "cycles":
		if len(pos) != 2 {
			return fmt.Errorf("usage: cycles <run-id>")
		}
		return cycles(s, stdout, pos[1], cyc)
	}
	return fmt.Errorf("unknown verb %q (want list, show, diff, top or cycles)", verb)
}

func list(s *runstore.Store, stdout io.Writer, idsOnly bool) error {
	runs, err := s.List()
	if err != nil {
		return err
	}
	if idsOnly {
		for _, e := range runs {
			fmt.Fprintln(stdout, e.ID)
		}
		return nil
	}
	if len(runs) == 0 {
		fmt.Fprintln(stdout, "no runs stored")
		return nil
	}
	fmt.Fprintf(stdout, "%-40s  %-10s  %-16s  %-12s  %6s  %12s  %s\n",
		"ID", "TOOL", "RUN", "TOPOLOGY", "LAYERS", "CYCLES", "CREATED")
	for _, e := range runs {
		fmt.Fprintf(stdout, "%-40s  %-10s  %-16s  %-12s  %6d  %12d  %s\n",
			e.ID, e.Tool, e.Run, e.Topology, e.Layers, e.TotalCycles, e.Created)
	}
	return nil
}

func show(s *runstore.Store, stdout io.Writer, id string) error {
	e, m, err := s.Get(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "id:          %s\n", e.ID)
	fmt.Fprintf(stdout, "key:         %s\n", e.Key)
	fmt.Fprintf(stdout, "tool/run:    %s/%s\n", m.Tool, m.Run)
	fmt.Fprintf(stdout, "created:     %s\n", m.Created)
	fmt.Fprintf(stdout, "config hash: %s\n", m.ConfigHash)
	if m.Topology != nil {
		fmt.Fprintf(stdout, "topology:    %s (%d layers)\n", m.Topology.Name, m.Topology.Layers)
	}
	if p := m.Provenance; p != nil {
		if p.Hostname != "" {
			fmt.Fprintf(stdout, "host:        %s\n", p.Hostname)
		}
		if p.VCSRevision != "" {
			mod := ""
			if p.VCSModified {
				mod = " (modified)"
			}
			fmt.Fprintf(stdout, "revision:    %s%s\n", p.VCSRevision, mod)
		}
		if len(p.CommandLine) > 0 {
			fmt.Fprintf(stdout, "command:     %v\n", p.CommandLine)
		}
	}
	if m.WallSeconds > 0 {
		fmt.Fprintf(stdout, "wall:        %.3fs\n", m.WallSeconds)
	}
	if c := m.Cache; c != nil {
		fmt.Fprintf(stdout, "cache:       %d hits / %d misses (%.0f%% hit rate)\n",
			c.Hits, c.Misses, 100*c.HitRate())
	}
	if len(m.Layers) > 0 {
		fmt.Fprintf(stdout, "\n%-6s  %-20s  %12s  %12s  %8s\n", "INDEX", "NAME", "CYCLES", "STALLS", "UTIL")
		for _, l := range m.Layers {
			fmt.Fprintf(stdout, "%-6d  %-20s  %12d  %12d  %7.1f%%\n",
				l.Index, l.Name, l.Cycles, l.StallCycles, 100*l.Utilization)
		}
	}
	return nil
}

func diff(s *runstore.Store, stdout io.Writer, idA, idB string, threshold float64) error {
	_, a, err := s.Get(idA)
	if err != nil {
		return err
	}
	_, b, err := s.Get(idB)
	if err != nil {
		return err
	}
	d := runstore.Diff(a, b, threshold)
	if d.SameConfig {
		fmt.Fprintf(stdout, "config: identical (%s)\n", a.ConfigHash)
	} else {
		fmt.Fprintf(stdout, "config: DIFFERS (%s vs %s)\n", a.ConfigHash, b.ConfigHash)
	}
	if len(d.Layers) > 0 {
		fmt.Fprintf(stdout, "%-6s  %-20s  %12s  %12s  %9s  %s\n",
			"INDEX", "NAME", "CYCLES A", "CYCLES B", "DELTA", "FLAG")
		for _, l := range d.Layers {
			name := l.Name
			if l.NameB != "" {
				name += "→" + l.NameB
			}
			flag := ""
			switch {
			case l.Regression:
				flag = "REGRESSION"
			case l.Improvement:
				flag = "improved"
			}
			fmt.Fprintf(stdout, "%-6d  %-20s  %12d  %12d  %9s  %s\n",
				l.Index, name, l.CyclesA, l.CyclesB, pct(l.CycleDelta), flag)
			if l.StallA != l.StallB {
				fmt.Fprintf(stdout, "%-6s  %-20s  %12d  %12d  %9s  stalls\n",
					"", "", l.StallA, l.StallB, pct(runstore.Frac(l.StallA, l.StallB)))
			}
		}
	}
	for _, name := range d.OnlyA {
		fmt.Fprintf(stdout, "only in A: %s\n", name)
	}
	for _, name := range d.OnlyB {
		fmt.Fprintf(stdout, "only in B: %s\n", name)
	}
	if d.Identical() {
		fmt.Fprintln(stdout, "runs are identical")
		return nil
	}
	fmt.Fprintf(stdout, "runs differ: %d regression(s) beyond %.0f%%\n", d.Regressions, 100*threshold)
	return errDiffers
}

func top(s *runstore.Store, stdout io.Writer, n int) error {
	layers, err := s.Top(n)
	if err != nil {
		return err
	}
	if len(layers) == 0 {
		fmt.Fprintln(stdout, "no stalled layers stored")
		return nil
	}
	fmt.Fprintf(stdout, "%-8s  %-20s  %-16s  %12s  %12s  %s\n",
		"STALL%", "LAYER", "RUN", "CYCLES", "STALLS", "RUN ID")
	for _, l := range layers {
		fmt.Fprintf(stdout, "%7.1f%%  %-20s  %-16s  %12d  %12d  %s\n",
			100*l.StallFraction, l.Name, runLabel(l.Run, l.Topology), l.Cycles, l.StallCycles, l.RunID)
	}
	return nil
}

func topByCategory(s *runstore.Store, stdout io.Writer, category string, n int) error {
	rows, err := s.TopBy(category, n)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		fmt.Fprintf(stdout, "no %s cycles stored\n", category)
		return nil
	}
	fmt.Fprintf(stdout, "%-8s  %-20s  %-16s  %12s  %12s  %s\n",
		"SHARE%", "NODE", "RUN", category, "TOTAL", "RUN ID")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%7.1f%%  %-20s  %-16s  %12d  %12d  %s\n",
			100*r.Fraction, r.Name, runLabel(r.Run, r.Topology), r.Cycles, r.Total, r.RunID)
	}
	return nil
}

// cycles renders a stored run's cycle_accounting block as text and writes
// whichever of -cycleprof/-roofline were requested.
func cycles(s *runstore.Store, stdout io.Writer, id string, cyc *cliobs.CycleProfFlags) error {
	e, m, err := s.Get(id)
	if err != nil {
		return err
	}
	ca := m.CycleAccounting
	if ca == nil {
		return fmt.Errorf("run %s carries no cycle accounting", e.ID)
	}
	network := runLabel(e.Run, e.Topology)
	fmt.Fprintf(stdout, "cycle accounting: %s, %d cycles attributed\n\n", network, ca.TotalCycles)
	if err := ca.WriteLedgers(stdout); err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	for _, share := range ca.CategoryFractions() {
		fmt.Fprintf(stdout, "%6.1f%%  %s (%d cycles)\n", 100*share.Fraction, share.Category, share.Cycles)
	}
	if len(ca.Roofline) > 0 {
		fmt.Fprintln(stdout)
		if err := cycleacct.WriteRooflineTable(stdout, ca.Roofline); err != nil {
			return err
		}
	}
	return cyc.Write(ca, network)
}

// pct formats a fractional delta as a signed percentage.
func pct(f float64) string {
	if math.IsInf(f, 1) {
		return "+inf"
	}
	return fmt.Sprintf("%+.1f%%", 100*f)
}

// runLabel names a run by its topology, or by its run name without one.
func runLabel(run, topology string) string {
	if topology != "" {
		return topology
	}
	return run
}
