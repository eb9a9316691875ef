// Command traceanalyze inspects trace CSVs produced by the simulator
// (cmd/scalesim -traces): aggregate statistics, demand-bandwidth profiles,
// and the LRU miss-ratio curve that tells how much SRAM a trace's reuse
// pattern actually needs. -trace repeats to compare several traces: -plot
// then overlays their bandwidth profiles in one chart, and -timeline
// reconstructs a counter timeline (one track per trace) viewable in
// Perfetto or chrome://tracing.
//
// Usage:
//
//	traceanalyze -trace out/run_Conv1_sram_read_ifmap.csv [-capacities 1024,4096,...] [-plot]
//	traceanalyze -trace a.csv -trace b.csv -plot
//	traceanalyze -trace a.csv -trace b.csv -timeline bw.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"scalesim/internal/cliobs"
	"scalesim/internal/config"
	"scalesim/internal/disk"
	"scalesim/internal/obsv/timeline"
	"scalesim/internal/trace"
	"scalesim/internal/tracetools"
	"scalesim/internal/viz"
)

func main() { cliobs.Main("traceanalyze", run) }

// stringList collects a repeatable flag.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("traceanalyze", flag.ContinueOnError)
	var tracePaths stringList
	fs.Var(&tracePaths, "trace", "trace CSV to analyze (repeat to compare several)")
	var (
		caps   = fs.String("capacities", "256,1024,4096,16384,65536,262144", "LRU capacities (words) for the miss-ratio curve")
		window = fs.Int64("window", 64, "bandwidth profiling window in cycles")
		plot   = fs.Bool("plot", false, "render a chart: miss-ratio curve for one trace, overlaid bandwidth profiles for several")
		tlPath = fs.String("timeline", "", "write the traces' bandwidth profiles as a Chrome Trace Event timeline to this path")
	)
	obs := cliobs.RegisterLog(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopObs, err := obs.Start("traceanalyze", nil)
	if err != nil {
		return err
	}
	defer stopObs()
	if len(tracePaths) == 0 {
		return fmt.Errorf("pass -trace <file.csv> (repeatable)")
	}
	capacities, err := config.ParseIntList(*caps)
	if err != nil {
		return fmt.Errorf("-capacities: %w", err)
	}
	for _, v := range capacities {
		if v < 1 {
			return fmt.Errorf("capacity %d must be positive", v)
		}
	}

	// Scan every trace once; each gets its own stats, meter and reuse
	// profiler.
	scans := make([]scanned, 0, len(tracePaths))
	for _, path := range tracePaths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		s := scanned{
			path:  path,
			stats: trace.NewStats(),
			meter: trace.NewBandwidthMeter(*window, 1),
			prof:  tracetools.NewReuseProfiler(),
		}
		scanErr := trace.ScanCSV(f, trace.Tee(s.stats, s.meter, s.prof))
		if cerr := f.Close(); scanErr == nil {
			scanErr = cerr
		}
		if scanErr != nil {
			return fmt.Errorf("%s: %w", path, scanErr)
		}
		scans = append(scans, s)
	}

	for _, s := range scans {
		fmt.Fprintf(stdout, "trace: %s\n", s.path)
		fmt.Fprintf(stdout, "accesses: %d over %d active cycles ([%d, %d])\n",
			s.stats.Accesses, s.stats.Span(), s.stats.FirstCycle, s.stats.LastCycle)
		fmt.Fprintf(stdout, "distinct addresses: %d (%.1f%% of accesses are reuse)\n",
			s.prof.Distinct(), 100*(1-float64(s.prof.Distinct())/float64(max(s.stats.Accesses, 1))))
		fmt.Fprintf(stdout, "bandwidth: avg %.3f peak %.3f words/cycle (window %d)\n",
			s.meter.AvgBytesPerCycle(), s.meter.PeakBytesPerCycle(), *window)
	}

	if *tlPath != "" {
		if err := writeTimeline(*tlPath, *window, scans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "timeline: %s (%d traces, window %d)\n", *tlPath, len(scans), *window)
	}

	if *plot && len(scans) > 1 {
		series := make([]viz.Series, 0, len(scans))
		for _, sc := range scans {
			s := viz.Series{Name: trackName(sc.path)}
			for _, p := range sc.meter.Profile() {
				s.X = append(s.X, float64(p.StartCycle))
				s.Y = append(s.Y, float64(p.Words)/float64(*window))
			}
			series = append(series, s)
		}
		out, err := (viz.Chart{
			Title:  "bandwidth profiles",
			XLabel: "cycle", YLabel: "words/cycle",
		}).Render(series...)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, out)
		return nil
	}

	if *plot {
		curve := scans[0].prof.MissRatioCurve(capacities)
		s := viz.Series{Name: "miss ratio"}
		for _, p := range curve {
			s.X = append(s.X, float64(p.CapacityWords))
			s.Y = append(s.Y, p.Ratio)
		}
		out, err := (viz.Chart{
			Title: "LRU miss-ratio curve",
			LogX:  true, XLabel: "capacity (words)", YLabel: "miss ratio",
		}).Render(s)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, out)
		return nil
	}

	if len(scans) == 1 {
		fmt.Fprintln(stdout, "CapacityWords,Misses,MissRatio")
		for _, p := range scans[0].prof.MissRatioCurve(capacities) {
			fmt.Fprintf(stdout, "%d,%d,%.4f\n", p.CapacityWords, p.Misses, p.Ratio)
		}
	}
	return nil
}

// scanned is one analyzed trace file.
type scanned struct {
	path  string
	stats *trace.Stats
	meter *trace.BandwidthMeter
	prof  *tracetools.ReuseProfiler
}

// writeTimeline reconstructs a counter timeline from the scanned traces:
// one counter track per trace inside a single "trace bandwidth" process,
// sampled at the profiling window.
func writeTimeline(path string, window int64, scans []scanned) error {
	return disk.Create(path, func(f io.Writer) error {
		w := timeline.New(f, timeline.Options{Window: window})
		pid := w.Process("trace bandwidth")
		for _, sc := range scans {
			timeline.Sampler{BandwidthMeter: sc.meter}.Emit(w, pid, trackName(sc.path), 0)
		}
		return w.Close()
	})
}

// trackName labels a trace in charts and timelines by its file base name.
func trackName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), ".csv")
}
