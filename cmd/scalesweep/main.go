// Command scalesweep runs a declarative design-space sweep: the cartesian
// product of array shapes, dataflows and SRAM provisions over a set of
// workloads, each point a full cycle-accurate simulation, executed in
// parallel.
//
// Usage:
//
//	scalesweep -spec sweep.cfg [-config base.cfg] [-o results.csv]
//	scalesweep -arrays 16x16,32x32 -dataflows os,ws -nets AlexNet
//	scalesweep -nets TinyNet -metrics sweep.json -progress -pprof localhost:6060
//	scalesweep -nets Resnet50 -arrays 16x16,32x32 -cache-dir .simcache -metrics sweep.json
//
// -metrics writes a sweep manifest (one entry per grid point plus engine
// span aggregates and runtime stats), -progress reports per-point
// completion to stderr, and -pprof serves net/http/pprof during the run.
// -run-dir registers the manifest in the scalequery run registry, -log
// writes a structured JSONL event log, and -metrics-addr/-metrics-jsonl
// expose the live metric registry (Prometheus text / periodic
// snapshots).
//
// The spec file uses the same INI dialect as hardware configs:
//
//	[sweep]
//	arrays    = 16x16, 32x32, 64x64
//	dataflows = os, ws
//	srams     = 128/128/64, 512/512/256
//	nets      = AlexNet, TinyNet
package main

import (
	"context"
	"flag"
	"io"
	"os"

	"scalesim/internal/batch"
	"scalesim/internal/cliobs"
	"scalesim/internal/config"
	"scalesim/internal/job"
)

func main() { cliobs.Main("scalesweep", run) }

func run(args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("scalesweep", flag.ContinueOnError)
	var (
		specPath  = fs.String("spec", "", "sweep specification file")
		cfgPath   = fs.String("config", "", "base hardware configuration file")
		out       = fs.String("o", "", "output CSV (default stdout)")
		arrays    = fs.String("arrays", "", "inline axis: comma-separated RxC shapes")
		dataflows = fs.String("dataflows", "", "inline axis: comma-separated os/ws/is")
		srams     = fs.String("srams", "", "inline axis: comma-separated i/f/o KiB triples")
		nets      = fs.String("nets", "", "inline axis: comma-separated built-in workloads (flat nets or operator graphs)")
		parallel  = fs.Int("parallel", 0, "workers over the layers of every grid point (default GOMAXPROCS)")
	)
	cacheFlags := cliobs.RegisterCache(fs)
	obs := cliobs.Register(fs)
	obs.RegisterPprof(fs, "serve net/http/pprof on this address during the sweep")
	obs.RegisterTimeline(fs, "write a Chrome Trace Event timeline (one machine process per grid point, in grid order, then one host-engine process) to this path")
	cyc := cliobs.RegisterCycleProf(fs, false)
	if err := fs.Parse(args); err != nil {
		return err
	}

	base := config.New()
	if *cfgPath != "" {
		var err error
		if base, err = config.Load(*cfgPath); err != nil {
			return err
		}
	}

	var spec batch.Spec
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if spec, err = batch.ParseSpec(f, base); err != nil {
			return err
		}
	} else {
		var err error
		axes := batch.Axes{Arrays: *arrays, Dataflows: *dataflows, SRAMs: *srams, Nets: *nets}
		if spec, err = axes.Spec(base); err != nil {
			return err
		}
	}
	if *parallel > 0 {
		spec.Parallel = *parallel
	}
	cache, err := cacheFlags.Open()
	if err != nil {
		return err
	}
	rec, prog, endObs, err := obs.Begin("scalesweep", "scalesweep")
	if err != nil {
		return err
	}
	defer endObs(&retErr)
	tlw, err := obs.OpenTimeline()
	if err != nil {
		return err
	}

	// The whole grid runs as one sweep job on the same job.Runner the
	// scalesimd daemon uses; per-point parallelism stays inside the job
	// (spec.Parallel), so a single runner worker is enough.
	runner := job.NewRunner(job.Options{Workers: 1, QueueDepth: 1, Cache: cache})
	defer func() { _ = runner.Close(context.Background()) }()
	result, err := runner.RunSweep("sweep", spec, job.Live{Obs: rec, Progress: prog, Timeline: tlw})
	if err != nil {
		return err
	}
	if err := obs.Publish(result.Manifest); err != nil {
		return err
	}
	if err := cyc.Write(result.Manifest.CycleAccounting, "sweep"); err != nil {
		return err
	}
	return cliobs.Output(stdout, *out, func(w io.Writer) error { return batch.WriteCSV(w, result.Rows) })
}
