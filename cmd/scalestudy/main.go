// Command scalestudy regenerates the data behind every figure of the
// paper's evaluation (Sec. IV), one subcommand per figure, as CSV on stdout
// or into a file.
//
// Usage:
//
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
// All subcommands accept -o <file> to write the CSV somewhere other than
// stdout; fig11 and bwcurve render ASCII charts with -plot. Every
// subcommand also accepts -metrics <path> (machine-readable run manifest),
// -progress (on stderr, one line per fig11, fig12 or sweetspot point: a
// layer at one MAC budget and partition count) and -pprof <addr>
// (net/http/pprof for the duration of the study). A -macs or -parts entry
// below 1, and a -bw that is not positive, are refused by the flag's name
// before anything runs; a study that fails prints nothing on stdout.
package main

import (
	"flag"
	"fmt"
	"io"
	"slices"

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

func run(args []string, stdout io.Writer) (err error) {
	if len(args) == 0 {
		return fmt.Errorf("usage: scalestudy <fig4|fig9a|fig9bc|fig10a|fig10b|fig11|fig12|fig13|fig14|sweetspot|bwcurve|dataflow|cells> [flags]")
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var (
		out      = fs.String("o", "", "output CSV file (default stdout)")
		sizes    = fs.String("sizes", "4,8,16,32,64", "fig4: array sizes")
		macs     = fs.String("macs", "", "comma-separated MAC budgets")
		parts    = fs.String("parts", "1,4,16,64", "fig11/fig12: partition counts")
		minDim   = fs.Int64("mindim", 8, "minimum array dimension")
		layer    = fs.String("layer", "CB2a_3", "fig12/sweetspot: ResNet50 layer or TF0")
		bwBudget = fs.Float64("bw", 64, "sweetspot: DRAM bandwidth budget in bytes/cycle")
		net      = fs.String("net", "Resnet50", "dataflow: built-in topology")
		plot     = fs.Bool("plot", false, "fig11/bwcurve: render ASCII charts instead of CSV")
	)
	obsFlags := cliobs.Register(fs)
	obsFlags.RegisterPprof(fs, "serve net/http/pprof on this address during the study")
	if err := fs.Parse(rest); err != nil {
		return err
	}

	rec, prog, endObs, err := obsFlags.Begin("scalestudy", "scalestudy "+cmd)
	if err != nil {
		return err
	}
	defer endObs(&err)
	// The whole subcommand runs under one phase; the manifest is published
	// on the way out so every return path below is covered — and a failed
	// study leaves its progress stream to endObs to abort. A scale-out
	// subcommand's units are its points.
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

	// The list flags are parsed once, strictly, by the subcommands that
	// read them: -macs against the subcommand's own default.
	var budgets, pc []int64
	if def, ok := defaultMACs[cmd]; ok {
		if budgets, err = positiveList("macs", defaultStr(*macs, def)); err != nil {
			return err
		}
	}
	if cmd == "fig11" || cmd == "fig12" || cmd == "sweetspot" {
		if pc, err = positiveList("parts", *parts); err != nil {
			return err
		}
	}
	if cmd == "sweetspot" && !(*bwBudget > 0) {
		return fmt.Errorf("-bw: bandwidth budget %v must be positive", *bwBudget)
	}
	// sweep is the scale-out subcommands' one sweep, on Fig. 11's memory
	// setup with arrays no smaller than -mindim: one plan over GOMAXPROCS,
	// each point one progress step and one manifest unit.
	sweep := func(series []partition.Series) ([][]partition.Result, error) {
		base := experiments.Fig11Base()
		out, err := partition.Sweep(series, pc, base, *minDim, partition.Options{Obs: rec, Progress: prog})
		for _, r := range slices.Concat(out...) {
			units = append(units, r.Unit)
		}
		return out, err
	}

	return cliobs.Output(stdout, *out, func(w io.Writer) error {
		switch cmd {
		case "fig4":
			sz, err := config.ParseIntList(*sizes)
			if err != nil {
				return err
			}
			ints := make([]int, len(sz))
			for i, v := range sz {
				ints[i] = int(v)
			}
			rows, err := experiments.Fig4(ints)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "ArraySize,RTLCycles,SimCycles")
			for _, r := range rows {
				fmt.Fprintf(w, "%d,%d,%d\n", r.ArraySize, r.RTLCycles, r.SimCycles)
			}
			return nil

		case "fig9a":
			points, err := experiments.Fig9a(budgets, *minDim)
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
			for _, b := range budgets {
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
			if cmd == "fig10b" {
				layers = experiments.Fig10bLayers()
			}
			rows, err := experiments.Fig10(layers, budgets, *minDim)
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
			series := experiments.Fig11Series(budgets)
			results, err := sweep(series)
			if err != nil {
				return err
			}
			if *plot {
				for i, s := range series {
					if err := plotFig11(w, s, results[i]); err != nil {
						return err
					}
				}
				return nil
			}
			fmt.Fprintln(w, "Layer,MACs,Partitions,Spec,Cycles,AvgBW,PeakBW,DRAMReads,DRAMWrites")
			for i, s := range series {
				for _, r := range results[i] {
					fmt.Fprintf(w, "%s,%d,%d,%s,%d,%.4f,%.4f,%d,%d\n",
						s.Layer.Name, s.MACs, r.Spec.Parts.Count(), r.Spec, r.Cycles,
						r.AvgDRAMBW(), r.PeakDRAMBW(), r.Node.Memory.DRAMReads(), r.Node.Memory.OfmapDRAMWrites)
				}
			}
			return nil

		case "fig12":
			l, err := pickLayer(*layer)
			if err != nil {
				return err
			}
			series := experiments.LayerSeries(l, budgets)
			results, err := sweep(series)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Layer,MACs,Partitions,EnergyArray,EnergySRAM,EnergyDRAM,EnergyTotal")
			for i, s := range series {
				for _, r := range results[i] {
					fmt.Fprintf(w, "%s,%d,%d,%.0f,%.0f,%.0f,%.0f\n",
						s.Layer.Name, s.MACs, r.Spec.Parts.Count(),
						r.Node.Energy.Array, r.Node.Energy.SRAM, r.Node.Energy.DRAM, r.Node.Energy.Total())
				}
			}
			return nil

		case "sweetspot":
			l, err := pickLayer(*layer)
			if err != nil {
				return err
			}
			series := experiments.LayerSeries(l, budgets)
			results, err := sweep(series)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Layer,MACs,BWBudget,Spec,Cycles,AvgBW")
			for i, s := range series {
				pick, err := partition.SweetSpot(results[i], *bwBudget)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%s,%d,%.1f,%s,%d,%.4f\n",
					l.Name, s.MACs, *bwBudget, pick.Spec, pick.Cycles, pick.AvgDRAMBW())
			}
			return nil

		case "bwcurve":
			l, err := pickLayer(*layer)
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
				units = append(units, p.Unit)
			}
			if *plot {
				return plotBWCurve(w, l.Name, points)
			}
			fmt.Fprintln(w, "Layer,BandwidthWordsPerCycle,StallFreeCycles,StallCycles,Slowdown")
			for _, p := range points {
				fmt.Fprintf(w, "%s,%.2f,%d,%d,%.4f\n",
					l.Name, p.BandwidthWordsPerCycle, p.StallFreeCycles, p.StallCycles, p.Slowdown)
			}
			return nil

		case "dataflow":
			topoName := defaultStr(*net, "Resnet50")
			topo, ok := topology.BuiltIn(topoName)
			if !ok {
				return fmt.Errorf("unknown built-in topology %q", topoName)
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
			for _, b := range budgets {
				res, err := pipeline.Evaluate(net, b, config.OutputStationary, *minDim)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%d,%d,%d,%.3f\n", b, res.SerialCycles, res.ParallelCycles, res.Speedup())
			}
			return nil

		case "fig13", "fig14":
			f := experiments.Fig13
			if cmd == "fig14" {
				f = experiments.Fig14
			}
			rows, err := f(budgets)
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
		return fmt.Errorf("unknown subcommand %q", cmd)
	})
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
	out, err := chart.Render(runtime)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, out)
	chart.Title = fmt.Sprintf("%s @ %d MACs: DRAM demand vs partitions", s.Layer.Name, s.MACs)
	chart.YLabel = "bytes/cycle"
	out, err = chart.Render(bw)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, out)
	return nil
}

// plotBWCurve renders the slowdown-vs-available-bandwidth curve.
func plotBWCurve(w io.Writer, layer string, points []experiments.BWPoint) error {
	s := viz.Series{Name: "slowdown"}
	for _, p := range points {
		s.X = append(s.X, p.BandwidthWordsPerCycle)
		s.Y = append(s.Y, p.Slowdown)
	}
	chart := viz.Chart{
		Title: layer + ": slowdown vs available DRAM bandwidth",
		LogX:  true, XLabel: "words/cycle", YLabel: "slowdown",
	}
	out, err := chart.Render(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, out)
	return nil
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

// positiveList parses the list flag -name, refusing an entry below 1 by
// the flag's name before anything runs: a MAC budget or a partition count
// of 0 or less names no design point.
func positiveList(name, s string) ([]int64, error) {
	vs, err := config.ParseIntList(s)
	if err != nil {
		return nil, fmt.Errorf("-%s: %w", name, err)
	}
	for _, v := range vs {
		if v < 1 {
			return nil, fmt.Errorf("-%s: entry %d must be positive", name, v)
		}
	}
	return vs, nil
}

func defaultStr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
