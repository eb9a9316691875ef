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
//	scalesim -net AlexNet -array 16x16 -parts 2x4 [-outdir out] [-metrics run.json]
//
// Either -config or the individual flags describe the hardware. The
// workload is one of -topology (a layer CSV), -net (a built-in: a flat
// network or a native operator graph such as BERTTiny) and -graph (an
// operator-graph JSON file, scalesim.graph/v1); any of them overrides the
// config's Topology entry, and two of them together are refused. Graph
// workloads run in the graph's topological order and additionally emit an
// operators report. -parts runs every layer scale-out on a grid of
// -array-shaped partitions and prints the scaleout report (-json dumps the
// run with each layer's partition ledgers); it does not combine with
// vector nodes, -dram, -dram-bw or -traces.
// -metrics writes a machine-readable run
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
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"scalesim"
	"scalesim/internal/cliobs"
	"scalesim/internal/disk"
	"scalesim/internal/job"
	"scalesim/internal/topology"
)

func main() { cliobs.Main("scalesim", run) }

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
		workers  = fs.Int("workers", 0, "layers (under -parts: partition windows) simulated concurrently (0 = number of CPUs, 1 = sequential)")
		dramBW   = fs.Float64("dram-bw", 0, "bound the DRAM link in words/cycle and compute stall cycles (0 = unbounded)")
		vlanes   = fs.Int("vector-lanes", 0, "vector-unit lanes for softmax/layernorm/eltwise nodes (0 = array width)")
	)
	cacheFlags := cliobs.RegisterCache(fs)
	obs := cliobs.Register(fs)
	obs.RegisterPprof(fs, "serve net/http/pprof on this address (e.g. localhost:6060) during the run")
	obs.RegisterTimeline(fs, "write a Chrome Trace Event timeline (Perfetto/chrome://tracing) to this path")
	cyc := cliobs.RegisterCycleProf(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rec, prog, endObs, err := obs.Begin("scalesim", "scalesim")
	if err != nil {
		return err
	}
	defer endObs(&retErr)

	cfg := scalesim.NewConfig()
	if *cfgPath != "" {
		if cfg, err = scalesim.LoadConfig(*cfgPath); err != nil {
			return err
		}
	}
	cfg, err = job.Override(cfg, *array, *df, *sram, *vlanes)
	if err != nil {
		return err
	}
	w, err := pickWorkload(cfg, *topoPath, *netName, *grPath)
	if err != nil {
		return err
	}

	// Every mode is one job.Spec; what a mode does not support is refused
	// here or by Validate, before anything is opened, printed or written.
	if *traces && *outDir == "" {
		return fmt.Errorf("-traces requires -outdir")
	}
	spec := job.Spec{Config: cfg, Graph: &w, DRAMBandwidth: *dramBW, Workers: *workers}
	if *useDRAM {
		ddr := scalesim.DDR3()
		spec.DRAM = &ddr
	}
	if *partsArg != "" {
		if spec.Parts, err = job.ParseParts(*partsArg); err != nil {
			return err
		}
		if *traces {
			return fmt.Errorf("-parts does not support -traces: sibling partitions of a layer would share trace files")
		}
	}
	if err := spec.Validate(); err != nil {
		return err
	}

	cache, err := cacheFlags.Open()
	if err != nil {
		return err
	}

	tlw, err := obs.OpenTimeline()
	if err != nil {
		return err
	}

	// The CLI runs through the same job.Runner the scalesimd daemon
	// executes on — one orchestration path, sized here for a single
	// in-process job so the output stays byte-identical to a direct run.
	runner := job.NewRunner(job.Options{Workers: 1, QueueDepth: 1, Cache: cache})
	defer func() { _ = runner.Close(context.Background()) }()
	live := job.Live{Obs: rec, Progress: prog, Timeline: tlw}
	if *traces {
		live.TraceDir = *outDir
	}

	result, err := runner.Run(spec, live)
	if err != nil {
		return err
	}

	if err := obs.Publish(result.Manifest); err != nil {
		return err
	}
	if err := cyc.Write(result.Manifest.CycleAccounting, spec.Net()); err != nil {
		return err
	}
	if *outDir != "" {
		if err := writeReports(*outDir, cfg.RunName, result); err != nil {
			return err
		}
	}
	switch {
	case *asJSON:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(result.Run)
	case result.Run.Parts != nil:
		fmt.Fprintf(stdout, "scale-out: %s partitions of %dx%d, %d MACs total | topology %s\n", spec.Parts,
			cfg.ArrayHeight, cfg.ArrayWidth, spec.Parts.Count()*int64(cfg.MACs()), w.Name)
		return result.WriteReport(stdout, "scaleout")
	case !w.Flat:
		fmt.Fprintf(stdout, "run: %s | graph: %s (%d nodes, %d edges) | array %dx%d %s | %d lanes\n",
			cfg.RunName, w.Name, len(w.Nodes), w.Edges(),
			cfg.ArrayHeight, cfg.ArrayWidth, cfg.Dataflow, cfg.Lanes())
		if err := result.WriteReport(stdout, "operators"); err != nil {
			return err
		}
	default:
		fmt.Fprintf(stdout, "run: %s | topology: %s (%d layers) | array %dx%d %s\n",
			cfg.RunName, w.Name, len(w.Nodes), cfg.ArrayHeight, cfg.ArrayWidth, cfg.Dataflow)
	}
	return result.WriteReport(stdout, "summary")
}

// pickWorkload resolves the one workload flag given — or, with none, the
// config's Topology entry — to its graph; a layer CSV is a flat network.
func pickWorkload(cfg scalesim.Config, topoPath, netName, graphPath string) (scalesim.Graph, error) {
	var given []string
	for _, f := range []struct{ name, val string }{{"-topology", topoPath}, {"-net", netName}, {"-graph", graphPath}} {
		if f.val != "" {
			given = append(given, f.name)
		}
	}
	if len(given) > 1 {
		return scalesim.Graph{}, fmt.Errorf("%s: pass one workload", strings.Join(given, " and "))
	}
	switch csv := cmp.Or(topoPath, cfg.TopologyPath); {
	case graphPath != "":
		return scalesim.LoadGraph(graphPath)
	case netName != "":
		return topology.Workload(netName)
	case csv != "":
		t, err := scalesim.LoadTopology(csv)
		return t.Graph(), err
	}
	return scalesim.Graph{}, fmt.Errorf("no workload: pass -topology, -graph, -net, or a config with a Topology entry")
}

// writeReports writes every report the result offers to
// <dir>/<run>_<name>.csv — the bytes the daemon serves under ?report=.
func writeReports(dir, runName string, result *job.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range result.Reports() {
		err := disk.Create(filepath.Join(dir, fmt.Sprintf("%s_%s.csv", runName, name)),
			func(w io.Writer) error { return result.WriteReport(w, name) })
		if err != nil {
			return err
		}
	}
	return nil
}
