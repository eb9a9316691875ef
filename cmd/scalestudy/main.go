// Command scalestudy regenerates the data behind every figure of the
// paper's evaluation (Sec. IV), one subcommand per figure, as CSV on stdout
// or into a file.
//
// Usage:
//
//	scalestudy paper -o DIR
//	scalestudy fig4  [-sizes 4,8,16,32,64]
//	scalestudy fig9a [-macs 1024,4096,16384] [-mindim 8]
//	scalestudy fig9bc [-macs 16384]
//	scalestudy fig10a|fig10b [-macs 1024,4096,16384,65536]
//	scalestudy fig11 [-macs 16384] [-parts 1,4,16,64] [-mindim 8]
//	scalestudy fig12 [-layer CB2a_3] [-macs 1024,16384,65536] [-parts 1,4,16,64] [-mindim 8]
//	scalestudy fig13|fig14 [-macs 256,1024,4096,16384,65536]
//
// Extension studies beyond the paper's figures:
//
//	scalestudy sweetspot [-layer CB2a_3] [-macs 16384] [-bw 64] [-mindim 8]
//	scalestudy bwcurve   [-layer CB2a_3] [-plot]
//	scalestudy dataflow  [-net Resnet50]
//	scalestudy cells     [-macs 4096,16384,65536,262144]
//
// paper writes every results/ CSV into DIR, an existing directory, in one
// run of its table of subcommand arguments, and takes no per-figure flag.
// The other subcommands accept -o <file> to write the CSV somewhere other
// than stdout; fig11 and bwcurve render ASCII charts with -plot. Every
// subcommand also accepts -metrics <path> (machine-readable run manifest),
// -progress (on stderr, one line per scale-out point: a layer at one MAC
// budget and partition count) and -pprof <addr> (net/http/pprof for the
// duration of the study). A -macs or -parts entry below 1, a -sizes entry
// outside 1..1024, and a -bw that is not positive are refused by the flag's
// name before anything runs; a study that fails prints nothing on stdout.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"slices"
	"strings"

	"scalesim/internal/cliobs"
	"scalesim/internal/config"
	"scalesim/internal/experiments"
	"scalesim/internal/obsv"
	"scalesim/internal/partition"
	"scalesim/internal/pipeline"
	"scalesim/internal/topology"
	"scalesim/internal/viz"
)

func main() { cliobs.Main("scalestudy", run) }

// defaultMACs is each budget-taking subcommand's -macs default.
var defaultMACs = map[string]string{
	"fig9a":     "1024,4096,16384,65536,262144",
	"fig9bc":    "16384,65536",
	"fig10a":    "1024,4096,16384,65536",
	"fig10b":    "1024,4096,16384,65536",
	"fig11":     "16384",
	"fig12":     "1024,16384,65536",
	"sweetspot": "16384",
	"cells":     "4096,16384,65536,262144",
	"fig13":     "256,1024,4096,16384,65536",
	"fig14":     "256,1024,4096,16384,65536",
}

// paper is the data behind every figure of the paper: each results/ CSV
// and the subcommand arguments that write it. `scalestudy paper` runs the
// whole table as one study.
var paper = []struct{ file, args string }{
	{"fig4.csv", "fig4 -sizes 4,8,16,32,64,128"},
	{"fig9a.csv", "fig9a"},
	{"fig9bc.csv", "fig9bc"},
	{"fig10a.csv", "fig10a"},
	{"fig10b.csv", "fig10b"},
	{"fig11_2e14.csv", "fig11 -macs 16384 -parts 1,4,16,64"},
	{"fig11_2e16.csv", "fig11 -macs 65536 -parts 1,4,16,64"},
	{"fig11_2e18.csv", "fig11 -macs 262144 -parts 1,4,16,64,256"},
	{"fig12_cb2a3.csv", "fig12 -layer CB2a_3 -macs 1024,4096,16384,65536,262144 -parts 1,4,16,64,256"},
	{"fig12_tf0.csv", "fig12 -layer TF0 -macs 16384,65536 -parts 1,4,16,64"},
	{"fig12_tf0_2e18.csv", "fig12 -layer TF0 -macs 262144 -parts 1,4,16,64,256"},
	{"fig13.csv", "fig13"},
	{"fig14.csv", "fig14"},
}

// A study is one subcommand: its own flags, the lists they parse to, and
// the scale-out series it sweeps (none for a figure that sweeps nothing).
type study struct {
	cmd                            string
	sizes, macs, parts, layer, net string
	minDim                         int64
	bw                             float64
	plot                           bool
	budgets, arraySizes            []int64
	series                         []partition.Series
}

// newStudy is the subcommand with its flag parser: the per-figure flags,
// which paper takes from its table instead.
func newStudy(cmd string) (*study, *flag.FlagSet) {
	s, fs := &study{cmd: cmd}, flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.StringVar(&s.sizes, "sizes", "4,8,16,32,64", "fig4: array sizes, at most 1024")
	fs.StringVar(&s.macs, "macs", defaultMACs[cmd], "comma-separated MAC budgets")
	fs.StringVar(&s.parts, "parts", "1,4,16,64", "fig11/fig12: partition counts")
	fs.Int64Var(&s.minDim, "mindim", 8, "minimum array dimension")
	fs.StringVar(&s.layer, "layer", "CB2a_3", "fig12/sweetspot: ResNet50 layer or TF0")
	fs.Float64Var(&s.bw, "bw", 64, "sweetspot: DRAM bandwidth budget in bytes/cycle")
	fs.StringVar(&s.net, "net", "Resnet50", "dataflow: built-in topology")
	fs.BoolVar(&s.plot, "plot", false, "fig11/bwcurve: render ASCII charts instead of CSV")
	return s, fs
}

func run(args []string, stdout io.Writer) (err error) {
	if len(args) == 0 {
		return fmt.Errorf("usage: scalestudy <paper|fig4|fig9a|fig9bc|fig10a|fig10b|fig11|fig12|fig13|fig14|sweetspot|bwcurve|dataflow|cells> [flags]")
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	out := fs.String("o", "", "output CSV file (default stdout); paper: the existing directory for every CSV")
	sub, figs := newStudy(cmd)
	if cmd != "paper" { // paper takes every figure's flags from its table
		figs.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
	}
	obsFlags := cliobs.Register(fs)
	obsFlags.RegisterPprof(fs, "serve net/http/pprof on this address during the study")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	// A subcommand is one study; paper is one per entry of its table.
	studies := []*study{sub}
	if cmd == "paper" {
		if *out == "" {
			return fmt.Errorf("-o: paper needs the existing directory to write every CSV into")
		}
		studies = nil
		for _, e := range paper {
			args := strings.Fields(e.args)
			s, figs := newStudy(args[0])
			if err := figs.Parse(args[1:]); err != nil {
				return fmt.Errorf("%s: %w", e.file, err)
			}
			studies = append(studies, s)
		}
	}

	rec, prog, endObs, err := obsFlags.Begin("scalestudy", "scalestudy "+cmd)
	if err != nil {
		return err
	}
	defer endObs(&err)
	// The whole subcommand runs under one phase; the manifest is published
	// on the way out so every return path below is covered — and a failed
	// study leaves its progress stream to endObs to abort. A scale-out
	// study's units are its points.
	var units []obsv.Unit
	stopPhase := rec.Phase("scalestudy." + cmd)
	defer func() {
		stopPhase()
		if err != nil {
			return
		}
		prog.Finish()
		var m *obsv.Manifest
		if m, err = rec.Record(units); err != nil {
			return
		}
		m.Tool = "scalestudy"
		m.Run = cmd
		m.ConfigHash = obsv.Hash(args)
		err = obsFlags.Publish(m)
	}()

	// Every study's series run in one sweep (one plan) on Fig. 11's memory
	// setup, each point one progress step and manifest unit; every view then
	// renders before the first file is written, so a failed study writes none.
	var series []partition.Series
	for _, s := range studies {
		if err := s.parse(); err != nil {
			return err
		}
		series = append(series, s.series...)
	}
	results, err := partition.Sweep(series, experiments.Fig11Base(), sub.minDim, partition.Options{Obs: rec, Progress: prog})
	if err != nil {
		return err
	}
	for _, r := range slices.Concat(results...) {
		units = append(units, r.Unit)
	}
	csvs := make([]bytes.Buffer, len(studies))
	for i, s := range studies {
		n := len(s.series)
		if err := s.view(&csvs[i], results[:n], rec, &units); err != nil {
			return err
		}
		results = results[n:]
	}
	for i := range studies {
		path := *out
		if cmd == "paper" {
			path = filepath.Join(*out, paper[i].file)
		}
		if err := cliobs.Output(stdout, path, func(w io.Writer) error { _, err := csvs[i].WriteTo(w); return err }); err != nil {
			return err
		}
	}
	return nil
}

// parse resolves the study's list flags, once and strictly, for the
// subcommands that read them.
func (s *study) parse() (err error) {
	if _, ok := defaultMACs[s.cmd]; ok {
		if s.budgets, err = positiveList("macs", s.macs, math.MaxInt64); err != nil {
			return err
		}
	}
	switch s.cmd {
	case "fig4": // the PE-level reference is O(N^3) in time, O(N^2) in memory: 1024 is 8x the paper's largest
		s.arraySizes, err = positiveList("sizes", s.sizes, 1024)
	case "fig11", "fig12", "sweetspot":
		pc, err := positiveList("parts", s.parts, math.MaxInt64)
		if err != nil {
			return err
		}
		if s.cmd == "sweetspot" && !(s.bw > 0) {
			return fmt.Errorf("-bw: bandwidth budget %v must be positive", s.bw)
		}
		if s.cmd == "fig11" {
			s.series = experiments.Fig11Series(s.budgets, pc)
			return nil
		}
		l, err := pickLayer(s.layer)
		s.series = experiments.LayerSeries(l, s.budgets, pc)
		return err
	}
	return err
}

// view renders the study's CSV (or charts) to w: a scale-out study from
// its series' results, any other by computing its figure. bwcurve, which
// runs its own simulations, records them into rec and appends their units.
func (s *study) view(w io.Writer, results [][]partition.Result, rec *obsv.Recorder, units *[]obsv.Unit) error {
	switch s.cmd {
	case "fig4":
		rows, err := experiments.Fig4(s.arraySizes)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "ArraySize,RTLCycles,SimCycles")
		for _, r := range rows {
			fmt.Fprintf(w, "%d,%d,%d\n", r.ArraySize, r.RTLCycles, r.SimCycles)
		}
		return nil

	case "fig9a":
		points, err := experiments.Fig9a(s.budgets, s.minDim)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "MACs,Partitions,PartGrid,ArrayShape,Cycles,Normalized")
		for _, p := range points {
			fmt.Fprintf(w, "%d,%d,%s,%s,%d,%.6f\n",
				p.MACs, p.Config.Parts.Count(), p.Config.Parts, p.Config.Shape,
				p.Cycles, p.Normalized)
		}
		return nil

	case "fig9bc":
		fmt.Fprintln(w, "MACs,ArrayShape,Cycles,MappingUtil")
		for _, b := range s.budgets {
			rows, err := experiments.Fig9bc(b)
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Fprintf(w, "%d,%s,%d,%.4f\n", b, r.Shape, r.Cycles, r.MappingUtilization)
			}
		}
		return nil

	case "fig10a", "fig10b":
		layers := experiments.Fig10aLayers()
		if s.cmd == "fig10b" {
			layers = experiments.Fig10bLayers()
		}
		rows, err := experiments.Fig10(layers, s.budgets, s.minDim)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Layer,MACs,ScaleUpCycles,ScaleOutCycles,Ratio")
		for _, r := range rows {
			fmt.Fprintf(w, "%s,%d,%d,%d,%.3f\n",
				r.Layer, r.MACs, r.ScaleUpCycles, r.ScaleOutCycles, r.Ratio)
		}
		return nil

	case "fig11":
		if s.plot {
			for i, ser := range s.series {
				if err := plotFig11(w, ser, results[i]); err != nil {
					return err
				}
			}
			return nil
		}
		fmt.Fprintln(w, "Layer,MACs,Partitions,Spec,Cycles,AvgBW,PeakBW,DRAMReads,DRAMWrites")
		for i, ser := range s.series {
			for _, r := range results[i] {
				fmt.Fprintf(w, "%s,%d,%d,%s,%d,%.4f,%.4f,%d,%d\n",
					ser.Layer.Name, ser.MACs, r.Spec.Parts.Count(), r.Spec, r.Cycles,
					r.AvgDRAMBW(), r.PeakDRAMBW(), r.Node.Memory.DRAMReads(), r.Node.Memory.OfmapDRAMWrites)
			}
		}
		return nil

	case "fig12":
		fmt.Fprintln(w, "Layer,MACs,Partitions,EnergyArray,EnergySRAM,EnergyDRAM,EnergyTotal")
		for i, ser := range s.series {
			for _, r := range results[i] {
				fmt.Fprintf(w, "%s,%d,%d,%.0f,%.0f,%.0f,%.0f\n",
					ser.Layer.Name, ser.MACs, r.Spec.Parts.Count(),
					r.Node.Energy.Array, r.Node.Energy.SRAM, r.Node.Energy.DRAM, r.Node.Energy.Total())
			}
		}
		return nil

	case "sweetspot":
		fmt.Fprintln(w, "Layer,MACs,BWBudget,Spec,Cycles,AvgBW")
		for i, ser := range s.series {
			pick, err := partition.SweetSpot(results[i], s.bw)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s,%d,%.1f,%s,%d,%.4f\n",
				ser.Layer.Name, ser.MACs, s.bw, pick.Spec, pick.Cycles, pick.AvgDRAMBW())
		}
		return nil

	case "bwcurve":
		l, err := pickLayer(s.layer)
		if err != nil {
			return err
		}
		cfg := config.New().WithArray(32, 32).WithSRAM(512, 512, 256)
		bws := []float64{0.5, 1, 2, 4, 8, 16, 32, 64, 128}
		points, err := experiments.BandwidthCurve(l, cfg, bws, rec)
		if err != nil {
			return err
		}
		for _, p := range points {
			*units = append(*units, p.Unit)
		}
		if s.plot {
			return plotBWCurve(w, l.Name, points)
		}
		fmt.Fprintln(w, "Layer,BandwidthWordsPerCycle,StallFreeCycles,StallCycles,Slowdown")
		for _, p := range points {
			fmt.Fprintf(w, "%s,%.2f,%d,%d,%.4f\n",
				l.Name, p.BandwidthWordsPerCycle, p.StallFreeCycles, p.StallCycles, p.Slowdown)
		}
		return nil

	case "dataflow":
		topo, ok := topology.BuiltIn(s.net)
		if !ok {
			return fmt.Errorf("unknown built-in topology %q", s.net)
		}
		res, err := experiments.DataflowStudy(topo, config.New().WithArray(32, 32))
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Layer,BestDataflow,OSCycles,WSCycles,ISCycles")
		for _, c := range res.Choices {
			fmt.Fprintf(w, "%s,%s,%d,%d,%d\n", c.Layer, c.Best,
				c.Cycles[config.OutputStationary],
				c.Cycles[config.WeightStationary],
				c.Cycles[config.InputStationary])
		}
		fmt.Fprintf(w, "TOTAL(best fixed %s),%s,%d,%d,%d\n",
			res.BestFixed, "adaptive="+fmt.Sprint(res.AdaptiveCycles),
			res.FixedCycles[config.OutputStationary],
			res.FixedCycles[config.WeightStationary],
			res.FixedCycles[config.InputStationary])
		return nil

	case "cells":
		net, err := pipeline.FromTopology(topology.GoogLeNet(), topology.GoogLeNetCellBranches())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "MACs,SerialCycles,CellParallelCycles,Speedup")
		for _, b := range s.budgets {
			res, err := pipeline.Evaluate(net, b, config.OutputStationary, s.minDim)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d,%d,%d,%.3f\n", b, res.SerialCycles, res.ParallelCycles, res.Speedup())
		}
		return nil

	case "fig13", "fig14":
		pareto := experiments.Fig13
		if s.cmd == "fig14" {
			pareto = experiments.Fig14
		}
		rows, err := pareto(s.budgets)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "MACs,CandidateRank,Loss,BestConfig")
		for _, r := range rows {
			for i, loss := range r.Loss {
				fmt.Fprintf(w, "%d,%d,%.4f,%s\n", r.MACs, i+1, loss, r.Best)
			}
		}
		return nil
	}
	return fmt.Errorf("unknown subcommand %q", s.cmd)
}

// plotFig11 renders the runtime and bandwidth curves of one series of the
// partition sweep as ASCII charts.
func plotFig11(w io.Writer, s partition.Series, results []partition.Result) error {
	runtime := viz.Series{Name: "cycles"}
	bw := viz.Series{Name: "avg BW (B/cyc)"}
	for _, r := range results {
		p := float64(r.Spec.Parts.Count())
		runtime.X = append(runtime.X, p)
		runtime.Y = append(runtime.Y, float64(r.Cycles))
		bw.X = append(bw.X, p)
		bw.Y = append(bw.Y, r.AvgDRAMBW())
	}
	chart := viz.Chart{
		Title: fmt.Sprintf("%s @ %d MACs: runtime vs partitions", s.Layer.Name, s.MACs),
		LogX:  true, LogY: true, XLabel: "partitions", YLabel: "cycles",
	}
	if err := render(w, chart, runtime); err != nil {
		return err
	}
	chart.Title = fmt.Sprintf("%s @ %d MACs: DRAM demand vs partitions", s.Layer.Name, s.MACs)
	chart.YLabel = "bytes/cycle"
	return render(w, chart, bw)
}

// plotBWCurve renders the slowdown-vs-available-bandwidth curve.
func plotBWCurve(w io.Writer, layer string, points []experiments.BWPoint) error {
	s := viz.Series{Name: "slowdown"}
	for _, p := range points {
		s.X = append(s.X, p.BandwidthWordsPerCycle)
		s.Y = append(s.Y, p.Slowdown)
	}
	return render(w, viz.Chart{
		Title: layer + ": slowdown vs available DRAM bandwidth",
		LogX:  true, XLabel: "words/cycle", YLabel: "slowdown",
	}, s)
}

// render writes the chart of the series to w.
func render(w io.Writer, chart viz.Chart, s viz.Series) error {
	out, err := chart.Render(s)
	fmt.Fprintln(w, out)
	return err
}

func pickLayer(name string) (topology.Layer, error) {
	if name == "TF0" {
		return experiments.TF0(), nil
	}
	topo := topology.ResNet50()
	if l, ok := topo.Layer(name); ok {
		return l, nil
	}
	return topology.Layer{}, fmt.Errorf("unknown layer %q (use TF0 or a ResNet50 layer name)", name)
}

// positiveList parses the list flag -name, refusing an entry below 1 or
// above max by the flag's name before anything runs: a MAC budget, a
// partition count or an array size of 0 or less names no design point.
func positiveList(name, s string, max int64) ([]int64, error) {
	vs, err := config.ParseIntList(s)
	if err != nil {
		return nil, fmt.Errorf("-%s: %w", name, err)
	}
	for _, v := range vs {
		if v < 1 {
			return nil, fmt.Errorf("-%s: entry %d must be positive", name, v)
		}
		if v > max {
			return nil, fmt.Errorf("-%s: entry %d must be at most %d", name, v, max)
		}
	}
	return vs, nil
}
