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
	"fmt"
	"io"
	"os"

	"scalesim"
	"scalesim/internal/batch"
	"scalesim/internal/cliobs"
	"scalesim/internal/config"
	"scalesim/internal/job"
	"scalesim/internal/obsv"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scalesweep:", err)
		os.Exit(1)
	}
}

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
		parallel  = fs.Int("parallel", 0, "concurrent runs (default GOMAXPROCS)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address during the sweep")
		tlPath    = fs.String("timeline", "", "write a Chrome Trace Event timeline (one process per grid point) to this path")
		tlWindow  = fs.Int64("timeline-window", 0, "timeline counter sampling window in cycles (default 64)")
	)
	cacheFlags := cliobs.RegisterCache(fs)
	obs := cliobs.Register(fs)
	cyc := cliobs.RegisterCycleProf(fs, false)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofAddr != "" {
		addr, stopPprof, err := obsv.ServePprof(*pprofAddr)
		if err != nil {
			return err
		}
		defer func() { _ = stopPprof() }()
		fmt.Fprintf(os.Stderr, "scalesweep: pprof at http://%s/debug/pprof/\n", addr)
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
	if cyc.Active() {
		if err := cyc.Write(result.Manifest.CycleAccounting, "sweep"); err != nil {
			return err
		}
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return batch.WriteCSV(w, result.Rows)
}
