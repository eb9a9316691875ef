// Command scaledse runs the two-tier design-space search: tier 1 scores
// the full grid with the paper's analytical model (Eqs. 1-4) and keeps
// the ε-pareto band on (runtime, MACs); tier 2 refines the band with
// cycle-accurate simulation and reports the measured analytical error.
//
// Usage:
//
//	scaledse run -nets TinyNet -arrays 8x8,16x16,32x32 -eps 0.1
//	scaledse run -nets AlexNet -enum-macs 4096 -srams 128/128/64,512/512/256
//	scaledse run -nets TinyNet -arrays 8x8,16x16 -shard 0/2 -part p0.jsonl -cache-dir c0
//	scaledse run -nets TinyNet -arrays 8x8,16x16 -shard 1/2 -part p1.jsonl -cache-dir c1
//	scaledse merge -o merged.csv -cache-dir merged -caches c0,c1 p0.jsonl p1.jsonl
//
// `run` explores; with -shard i/n it refines only a deterministic slice
// of the band (possibly an empty one) and -part records the slice in a
// mergeable part file. Tier 2 runs as one sweep job on the job.Runner
// every simulating CLI shares, so -cache/-cache-dir/-cache-max-mb are the
// shared result-cache flags and a -run-dir registered search answers
// `scalequery cycles` and `top -by`, one node per refined point.
// `merge` folds part files (and optionally the shards' cache
// directories) back into one CSV + manifest, byte-identical to an
// unsharded run. -tier1-only stops after the band cut and reports the
// cut statistics without simulating.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"scalesim/internal/analytical"
	"scalesim/internal/batch"
	"scalesim/internal/cliobs"
	"scalesim/internal/config"
	"scalesim/internal/disk"
	"scalesim/internal/dse"
	"scalesim/internal/job"
	"scalesim/internal/obsv"
	"scalesim/internal/simcache"
)

func main() { cliobs.Main("scaledse", run) }

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: scaledse run|merge [flags] (see -h)")
	}
	verb := args[0]
	rest := args[1:]
	switch verb {
	case "run":
		return runExplore(rest, stdout)
	case "merge":
		return runMerge(rest, stdout)
	default:
		// Bare flags default to the run verb, mirroring scalesweep.
		if strings.HasPrefix(verb, "-") {
			return runExplore(args, stdout)
		}
		return fmt.Errorf("unknown verb %q (want run or merge)", verb)
	}
}

func runExplore(args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("scaledse run", flag.ContinueOnError)
	var (
		cfgPath   = fs.String("config", "", "base hardware configuration file")
		out       = fs.String("o", "", "output CSV (default stdout)")
		arrays    = fs.String("arrays", "", "array axis: comma-separated RxC shapes")
		enumMACs  = fs.String("enum-macs", "", "array axis: enumerate every RxC factorization of these comma-separated MAC budgets")
		minDim    = fs.Int64("min-dim", 1, "minimum array dimension for -enum-macs")
		dataflows = fs.String("dataflows", "", "dataflow axis: comma-separated os/ws/is (default base config)")
		srams     = fs.String("srams", "", "SRAM axis: comma-separated i/f/o KiB triples (default base config)")
		nets      = fs.String("nets", "", "workload axis: comma-separated built-in flat nets")
		eps       = fs.Float64("eps", 0.1, "pareto band width: keep configs within (1+eps) of the per-workload front")
		shardSpec = fs.String("shard", "", "refine only shard i of n, as i/n (tier 1 always runs in full)")
		partPath  = fs.String("part", "", "write this shard's rows as a mergeable part file (JSONL)")
		tier1Only = fs.Bool("tier1-only", false, "stop after the band cut; report statistics, simulate nothing")
		parallel  = fs.Int("parallel", 0, "concurrent workers for both tiers (default GOMAXPROCS)")
	)
	cacheFlags := cliobs.RegisterCache(fs)
	obs := cliobs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// +Inf keeps every candidate, but JSON has no infinity: the part
	// header and the manifest both carry ε, so refuse the pair before
	// scoring rather than fail once the search has run.
	if math.IsInf(*eps, 1) {
		for _, name := range []string{"part", "metrics", "run-dir"} {
			if fs.Lookup(name).Value.String() != "" {
				return fmt.Errorf("-eps %g cannot be written to -%s (JSON has no infinity); give a finite band width", *eps, name)
			}
		}
	}

	base := config.New()
	if *cfgPath != "" {
		var err error
		if base, err = config.Load(*cfgPath); err != nil {
			return err
		}
	}
	grid, err := batch.Axes{Arrays: *arrays, Dataflows: *dataflows, SRAMs: *srams, Nets: *nets}.Spec(base)
	if err != nil {
		return err
	}
	grid.Parallel = *parallel
	if *enumMACs != "" {
		budgets, err := config.ParseIntList(*enumMACs)
		if err != nil {
			return fmt.Errorf("-enum-macs: %w", err)
		}
		for _, macs := range budgets {
			if macs < 1 {
				return fmt.Errorf("-enum-macs: invalid MAC budget %d", macs)
			}
			for _, s := range analytical.Shapes(macs, *minDim) {
				grid.Arrays = append(grid.Arrays, [2]int{int(s.R), int(s.C)})
			}
		}
	}

	opt := dse.Options{Epsilon: *eps, Tier1Only: *tier1Only}
	if *shardSpec != "" {
		shard, err := config.ParseInts(*shardSpec, "/", 2)
		if err != nil || shard[1] < 1 {
			return fmt.Errorf("invalid -shard %q (want i/n with n >= 1)", *shardSpec)
		}
		opt.Shard, opt.Shards = shard[0], shard[1]
	}
	cache, err := cacheFlags.Open()
	if err != nil {
		return err
	}
	rec, prog, endObs, err := obs.Begin("scaledse", "scaledse")
	if err != nil {
		return err
	}
	defer endObs(&retErr)

	// Tier 2 is one sweep job on the Runner scalesim, scalesweep and the
	// scalesimd daemon execute on; per-point parallelism stays inside the
	// job, so a single runner worker is enough.
	runner := job.NewRunner(job.Options{Workers: 1, QueueDepth: 1, Cache: cache})
	defer func() { _ = runner.Close(context.Background()) }()
	res, err := dse.Explore(grid, opt, runner, job.Live{Obs: rec, Progress: prog})
	if err != nil {
		return err
	}
	reportStats(os.Stderr, res.Stats)
	if *partPath != "" {
		if err := dse.WritePart(*partPath, res); err != nil {
			return err
		}
	}
	if err := obs.Publish(res.Manifest); err != nil {
		return err
	}
	if *tier1Only {
		return nil
	}
	return cliobs.Output(stdout, *out, func(w io.Writer) error { return dse.WriteCSV(w, res.Rows) })
}

func runMerge(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scaledse merge", flag.ContinueOnError)
	var (
		out      = fs.String("o", "", "merged CSV (default stdout)")
		metrics  = fs.String("metrics", "", "write the merged search manifest (JSON) to this path")
		cacheDst = fs.String("cache-dir", "", "merge shard cache directories into this one")
		caches   = fs.String("caches", "", "comma-separated shard cache directories to merge into -cache-dir")
	)
	obs := cliobs.RegisterLog(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	parts := fs.Args()
	if len(parts) == 0 {
		return fmt.Errorf("merge: no part files given")
	}
	stopObs, err := obs.Start("scaledse", nil)
	if err != nil {
		return err
	}
	defer stopObs()

	if srcs := config.SplitList(*caches); len(srcs) > 0 {
		if *cacheDst == "" {
			return fmt.Errorf("merge: -caches requires -cache-dir")
		}
		st, err := simcache.MergeDirs(*cacheDst, srcs...)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scaledse: caches merged: %d copied, %d present, %d invalid\n",
			st.Copied, st.Present, st.Invalid)
	}

	res, err := dse.MergeFiles(parts)
	if err != nil {
		return err
	}
	reportStats(os.Stderr, res.Stats)
	if *metrics != "" {
		if err := disk.Create(*metrics, res.Manifest.WriteJSON); err != nil {
			return err
		}
	}
	return cliobs.Output(stdout, *out, func(w io.Writer) error { return dse.WriteCSV(w, res.Rows) })
}

// reportStats prints the band-cut and error summary to w.
func reportStats(w io.Writer, s obsv.SearchStats) {
	fmt.Fprintf(w, "scaledse: grid %d points; tier 1 scored %d candidates at %.0f configs/s; band kept %d/%d (cut %d, eps=%g)\n",
		s.GridPoints, s.Scored, s.Tier1PointsPerSec, s.BandCandidates, s.Candidates, s.CutCandidates, s.Epsilon)
	if s.RefinedPoints > 0 {
		fmt.Fprintf(w, "scaledse: tier 2 refined %d/%d band points (shard %d/%d); rel err max %.4f%% mean %.4f%%\n",
			s.RefinedPoints, s.BandPoints, s.Shard, s.Shards, 100*s.MaxRelErr, 100*s.MeanRelErr)
	}
}
