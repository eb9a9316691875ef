// Command scalesim runs the cycle-accurate simulator over a network
// topology, mirroring the original tool's interface: a hardware config file
// plus a topology CSV in, traces and aggregate reports out.
//
// Usage:
//
//	scalesim -config scale.cfg [-topology net.csv] [-outdir out] [-traces] [-dram]
//	scalesim -net Resnet50 -array 128x128 -dataflow ws [-workers 4]
//	scalesim -net Resnet50 -metrics run.json -progress -pprof localhost:6060
//	scalesim -net Resnet50 -cache-dir .simcache -metrics run.json
//	scalesim -net Resnet50 -run-dir runs -log run.log -metrics-addr localhost:9911
//
// Either -config or the individual flags describe the hardware; -topology
// overrides the config's topology path and -net selects a built-in
// workload — a flat network or a native operator graph such as BERTTiny.
// -graph loads an operator-graph JSON file (scalesim.graph/v1); graph
// workloads run in the graph's topological order and additionally emit an
// operators report. -metrics writes a machine-readable run
// manifest (per-layer cycles and wall timings, engine span aggregates,
// runtime stats), -progress reports per-layer completion to stderr, and
// -pprof serves net/http/pprof for the duration of the run.
//
// Cross-run observability: -run-dir registers the manifest in a
// content-addressed run registry queryable with scalequery; -log writes
// a structured JSONL event log at -log-level; -metrics-addr serves live
// Prometheus text at /metrics and -metrics-jsonl appends periodic
// registry snapshots.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"scalesim"
	"scalesim/internal/cliobs"
	"scalesim/internal/job"
	"scalesim/internal/obsv"
	"scalesim/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scalesim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("scalesim", flag.ContinueOnError)
	var (
		cfgPath  = fs.String("config", "", "hardware configuration file (Table I format)")
		topoPath = fs.String("topology", "", "topology CSV (overrides the config's Topology entry)")
		netName  = fs.String("net", "", "built-in workload: "+strings.Join(append(scalesim.BuiltInTopologyNames(), scalesim.BuiltInGraphNames()...), ", "))
		grPath   = fs.String("graph", "", "operator-graph JSON file (scalesim.graph/v1)")
		array    = fs.String("array", "", "array dimensions as RxC (e.g. 32x32)")
		df       = fs.String("dataflow", "", "dataflow: os, ws or is")
		sram     = fs.String("sram", "", "SRAM sizes in KiB as ifmap,filter,ofmap (e.g. 512,512,256)")
		outDir   = fs.String("outdir", "", "directory for report CSVs (default: stdout only)")
		traces   = fs.Bool("traces", false, "write per-layer SRAM/DRAM trace CSVs to outdir")
		useDRAM  = fs.Bool("dram", false, "replay DRAM traces through the DDR3 timing model")
		asJSON   = fs.Bool("json", false, "emit the full result as JSON instead of the summary")
		partsArg = fs.String("parts", "", "run scale-out: partition grid as PrxPc (e.g. 2x4); -array sets the per-partition shape")
		workers  = fs.Int("workers", 0, "layers simulated concurrently (0 = number of CPUs, 1 = sequential)")
		metrics  = fs.String("metrics", "", "write a machine-readable run manifest (JSON) to this path")
		progress = fs.Bool("progress", false, "report per-layer progress to stderr")
		pprof    = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) during the run")
		tlPath   = fs.String("timeline", "", "write a Chrome Trace Event timeline (Perfetto/chrome://tracing) to this path")
		tlWindow = fs.Int64("timeline-window", 0, "timeline counter sampling window in cycles (default 64)")
		dramBW   = fs.Float64("dram-bw", 0, "bound the DRAM link in words/cycle and compute stall cycles (0 = unbounded)")
		vlanes   = fs.Int("vector-lanes", 0, "vector-unit lanes for softmax/layernorm/eltwise nodes (0 = array width)")
	)
	cacheFlags := cliobs.RegisterCache(fs)
	obs := cliobs.Register(fs)
	cyc := cliobs.RegisterCycleProf(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprof != "" {
		addr, stopPprof, err := obsv.ServePprof(*pprof)
		if err != nil {
			return err
		}
		defer func() { _ = stopPprof() }()
		fmt.Fprintf(os.Stderr, "scalesim: pprof at http://%s/debug/pprof/\n", addr)
	}
	var rec *obsv.Recorder
	if *metrics != "" || obs.Active() {
		rec = obsv.NewRecorder()
	}
	stopObs, err := obs.Start("scalesim", rec)
	if err != nil {
		return err
	}
	defer stopObs()
	var prog *obsv.Progress
	if *progress {
		prog = obsv.NewProgress(os.Stderr, "scalesim")
	}
	// An error on any path below terminates the progress stream; after a
	// successful Finish the deferred Abort is a no-op.
	defer func() {
		if retErr != nil {
			prog.Abort(retErr.Error())
		}
	}()

	cfg := scalesim.NewConfig()
	if *cfgPath != "" {
		var err error
		if cfg, err = scalesim.LoadConfig(*cfgPath); err != nil {
			return err
		}
	}
	if *array != "" {
		r, c, err := parseArray(*array)
		if err != nil {
			return err
		}
		cfg = cfg.WithArray(r, c)
	}
	if *df != "" {
		d, err := scalesim.ParseDataflow(*df)
		if err != nil {
			return err
		}
		cfg = cfg.WithDataflow(d)
	}
	if *sram != "" {
		var i, f, o int
		if _, err := fmt.Sscanf(*sram, "%d,%d,%d", &i, &f, &o); err != nil {
			return fmt.Errorf("invalid -sram %q: %w", *sram, err)
		}
		cfg = cfg.WithSRAM(i, f, o)
	}

	if *vlanes != 0 {
		cfg.VectorLanes = *vlanes
	}

	topo, graph, err := pickWorkload(cfg, *topoPath, *netName, *grPath)
	if err != nil {
		return err
	}

	// Scale-out runs layers on a partitioned system, outside the job
	// runner; what that path does not implement is refused, not ignored.
	var pr, pc int
	if *partsArg != "" {
		if graph != nil {
			return fmt.Errorf("-parts runs layers on a partitioned system and does not support operator graphs")
		}
		if pr, pc, err = parseArray(*partsArg); err != nil {
			return fmt.Errorf("invalid -parts %q (want PrxPc)", *partsArg)
		}
		var unsupported string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "dram", "dram-bw", "traces", "outdir", "json":
				unsupported = f.Name
			}
		})
		if unsupported != "" {
			return fmt.Errorf("-parts does not support -%s", unsupported)
		}
	}

	cache, err := cacheFlags.Open()
	if err != nil {
		return err
	}

	var tlw *scalesim.TimelineWriter
	if *tlPath != "" {
		f, err := os.Create(*tlPath)
		if err != nil {
			return err
		}
		tlw = scalesim.NewTimeline(f, scalesim.TimelineOptions{Window: *tlWindow})
		defer func() {
			if cerr := tlw.Close(); cerr != nil && retErr == nil {
				retErr = cerr
			}
			if cerr := f.Close(); cerr != nil && retErr == nil {
				retErr = cerr
			}
		}()
	}

	if *partsArg != "" {
		return runScaleOut(stdout, cfg, topo, pr, pc, rec, prog, *metrics, tlw, cache, obs, cyc)
	}

	// The CLI runs through the same job.Runner the scalesimd daemon
	// executes on — one orchestration path, sized here for a single
	// in-process job so the output stays byte-identical to a direct run.
	runner := job.NewRunner(job.Options{Workers: 1, QueueDepth: 1, Cache: cache})
	defer func() { _ = runner.Close(context.Background()) }()
	spec := job.Spec{Config: cfg, Topology: topo, Graph: graph,
		DRAMBandwidth: *dramBW, Workers: *workers}
	live := job.Live{Obs: rec, Progress: prog, Timeline: tlw}
	if *traces {
		if *outDir == "" {
			return fmt.Errorf("-traces requires -outdir")
		}
		live.TraceDir = *outDir
	}
	if *useDRAM {
		ddr := scalesim.DDR3()
		spec.DRAM = &ddr
	}

	result, err := runner.Run(spec, live)
	if err != nil {
		return err
	}
	res := result.Run

	if *metrics != "" || obs.RunDir() != "" {
		m := result.Manifest
		if *metrics != "" {
			if err := m.WriteFile(*metrics); err != nil {
				return err
			}
		}
		if err := obs.StoreRun(m); err != nil {
			return err
		}
	}
	if cyc.Active() {
		net := topo.Name
		if graph != nil {
			net = graph.Name
		}
		if err := cyc.Write(result.Manifest.CycleAccounting, net); err != nil {
			return err
		}
	}
	if *outDir != "" {
		if err := writeReports(*outDir, cfg.RunName, res); err != nil {
			return err
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	if graph != nil {
		fmt.Fprintf(stdout, "run: %s | graph: %s (%d nodes, %d edges) | array %dx%d %s | %d lanes\n",
			cfg.RunName, graph.Name, len(graph.Nodes), graph.Edges(),
			cfg.ArrayHeight, cfg.ArrayWidth, cfg.Dataflow, cfg.Lanes())
		if err := report.WriteOperators(stdout, res); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "run: %s | topology: %s (%d layers) | array %dx%d %s\n",
			cfg.RunName, topo.Name, len(topo.Layers), cfg.ArrayHeight, cfg.ArrayWidth, cfg.Dataflow)
	}
	return report.WriteSummary(stdout, res)
}

// runScaleOut executes every layer on a Pr x Pc grid of arrays shaped like
// the base config's array, dividing the SRAM budget among partitions, and
// prints a per-layer scale-out report. With rec attached it also emits a
// run manifest (one entry per layer, partition-level engine spans).
func runScaleOut(stdout io.Writer, cfg scalesim.Config, topo scalesim.Topology, pr, pc int,
	rec *obsv.Recorder, prog *obsv.Progress, metricsPath string, tlw *scalesim.TimelineWriter,
	cache *scalesim.Cache, obs *cliobs.Flags, cyc *cliobs.CycleProfFlags) error {
	spec := scalesim.ScaleOutSpec{
		Parts: scalesim.Partitioning{Pr: int64(pr), Pc: int64(pc)},
		Shape: scalesim.Shape{R: int64(cfg.ArrayHeight), C: int64(cfg.ArrayWidth)},
	}
	fmt.Fprintf(stdout, "scale-out: %s, %d MACs total | topology %s\n",
		spec, spec.MACs(), topo.Name)
	fmt.Fprintln(stdout, "Layer,Cycles,AvgBW,PeakBW,DRAMReads,DRAMWrites,EnergyTotal")
	prog.Start(len(topo.Layers))
	var total int64
	var layers []obsv.LayerMetrics
	var nodes []scalesim.CycleNodeLedger
	var roofline []scalesim.RooflineRow
	for i, l := range topo.Layers {
		var t0 time.Time
		if rec.Enabled() {
			t0 = time.Now()
		}
		res, err := scalesim.RunScaleOut(l, cfg, spec, scalesim.ScaleOutOptions{Obs: rec, Timeline: tlw, Cache: cache})
		if err != nil {
			return fmt.Errorf("layer %s: %w", l.Name, err)
		}
		rec.ObserveLayer(i, l.Name, time.Since(t0))
		prog.Step(l.Name)
		total += res.Cycles
		if rec.Enabled() {
			layers = append(layers, obsv.LayerMetrics{
				Index: i, Name: l.Name, Cycles: res.Cycles, MACs: res.MACs,
				DRAMReads: res.DRAMReads, DRAMWrites: res.DRAMWrites,
				WallSeconds: rec.LayerSeconds(i),
			})
		}
		node := *res.Ledger
		node.Index = i
		nodes = append(nodes, node)
		roofline = append(roofline, scalesim.NewRooflineRow(
			l.Name, string(scalesim.OpConv), res.MACs,
			(res.DRAMReads+res.DRAMWrites)*int64(cfg.WordBytes),
			res.Cycles, float64(spec.MACs()), 0, int64(cfg.WordBytes)))
		fmt.Fprintf(stdout, "%s,%d,%.4f,%.4f,%d,%d,%.0f\n",
			l.Name, res.Cycles, res.AvgDRAMBW(), res.PeakDRAMBW,
			res.DRAMReads, res.DRAMWrites, res.Energy.Total())
	}
	fmt.Fprintf(stdout, "TOTAL,%d,,,,,\n", total)
	prog.Finish()
	// The same checked roll-up core.CycleReport publishes: books that do
	// not close fail the run.
	ca, err := scalesim.NewCycleReport(nodes)
	if err != nil {
		return err
	}
	ca.Roofline = roofline
	if metricsPath != "" || obs.RunDir() != "" {
		m := rec.Manifest()
		m.Tool = "scalesim"
		m.Run = cfg.RunName
		m.ConfigHash = cfg.Hash()
		m.Topology = &obsv.TopologyInfo{Name: topo.Name, Layers: len(topo.Layers)}
		m.Layers = layers
		m.CycleAccounting = ca
		if cache != nil {
			st := cache.Stats()
			m.Cache = &obsv.CacheStats{Hits: st.Hits, Misses: st.Misses, Entries: st.Entries}
		}
		if metricsPath != "" {
			if err := m.WriteFile(metricsPath); err != nil {
				return err
			}
		}
		if err := obs.StoreRun(m); err != nil {
			return err
		}
	}
	return cyc.Write(ca, topo.Name)
}

// pickWorkload resolves the flags to either a flat topology or an
// operator graph (graph non-nil). -net names resolve to flat built-ins
// first, then to native operator graphs (BERTTiny, BERTBase).
func pickWorkload(cfg scalesim.Config, topoPath, netName, graphPath string) (scalesim.Topology, *scalesim.Graph, error) {
	switch {
	case graphPath != "":
		g, err := scalesim.LoadGraph(graphPath)
		if err != nil {
			return scalesim.Topology{}, nil, err
		}
		return scalesim.Topology{}, &g, nil
	case netName != "":
		if topo, ok := scalesim.BuiltInTopology(netName); ok {
			return topo, nil, nil
		}
		g, err := scalesim.BuiltInGraph(netName)
		if err != nil {
			return scalesim.Topology{}, nil, fmt.Errorf("unknown built-in %q (have %s)",
				netName, strings.Join(append(scalesim.BuiltInTopologyNames(),
					scalesim.BuiltInGraphNames()...), ", "))
		}
		return scalesim.Topology{}, &g, nil
	case topoPath != "":
		t, err := scalesim.LoadTopology(topoPath)
		return t, nil, err
	case cfg.TopologyPath != "":
		t, err := scalesim.LoadTopology(cfg.TopologyPath)
		return t, nil, err
	}
	return scalesim.Topology{}, nil, fmt.Errorf("no workload: pass -topology, -graph, -net, or a config with a Topology entry")
}

func parseArray(s string) (r, c int, err error) {
	if _, err := fmt.Sscanf(strings.ToLower(s), "%dx%d", &r, &c); err != nil {
		return 0, 0, fmt.Errorf("invalid -array %q (want RxC)", s)
	}
	return r, c, nil
}

func writeReports(dir, runName string, res scalesim.RunResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	reports := map[string]func(*os.File) error{
		"cycles":    func(f *os.File) error { return report.WriteCycles(f, res) },
		"bandwidth": func(f *os.File) error { return report.WriteBandwidth(f, res) },
		"detail":    func(f *os.File) error { return report.WriteDetail(f, res) },
		"summary":   func(f *os.File) error { return report.WriteSummary(f, res) },
	}
	if res.Graph != nil {
		reports["operators"] = func(f *os.File) error { return report.WriteOperators(f, res) }
	}
	for name, write := range reports {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s_%s.csv", runName, name)))
		if err != nil {
			return err
		}
		werr := write(f)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
	}
	return nil
}
