// Package cliobs is the shell every command-line tool runs in: the flags
// that bracket a run, what each brings up before the run and tears down
// after it, and how the run's documents reach the files the user named.
// -metrics, -progress, -log, -log-level, -metrics-addr, -metrics-jsonl and
// -run-dir mean the same thing in scalesim, scalesweep, scaledse and
// scalestudy; the workload tools (topogen, traceanalyze) share the logging
// subset; the tools that have them share one -pprof and one -timeline.
//
//	-metrics              write the run's manifest (JSON)
//	-progress             report per-unit completion on stderr
//	-log / -log-level     install the process-wide structured logger
//	-metrics-addr         serve /metrics (Prometheus text) + pprof live
//	-metrics-jsonl        append periodic metric snapshots for headless runs
//	-run-dir              register the run's manifest in a runstore
//	-pprof                serve net/http/pprof for the run (RegisterPprof)
//	-timeline[-window]    write a Chrome Trace Event timeline (RegisterTimeline)
//	-cache[-dir|-max-mb]  the result cache (RegisterCache)
//	-cycleprof, -roofline cycle-accounting exports (RegisterCycleProf)
//	-o                    the tool's own output, or stdout (Output)
//
// Usage: Register the flags, then Begin after parsing (deferring its
// end), OpenTimeline once the run is known to be valid, and Publish the
// run's manifest on the way out. Tools that only log use RegisterLog and
// Start. Every file a flag names is written through package disk, so a
// failed write or close is the run's error.
package cliobs

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"scalesim/internal/disk"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/export"
	"scalesim/internal/obsv/log"
	"scalesim/internal/obsv/timeline"
	"scalesim/internal/runstore"
)

// Main is a tool's main function: run gets the process arguments and
// stdout, and an error it returns goes to stderr under the tool's name and
// exits 1.
func Main(tool string, run func(args []string, stdout io.Writer) error) {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, tool+":", err)
		os.Exit(1)
	}
}

// Flags holds the observability flag values for one CLI invocation.
type Flags struct {
	metrics      string
	progress     bool
	metricsAddr  string
	metricsJSONL string
	interval     time.Duration
	logPath      string
	logLevel     string
	runDir       string
	pprofAddr    string
	tlPath       string
	tlWindow     int64
	// closeTimeline flushes and closes what OpenTimeline opened.
	closeTimeline func() error
}

// Register adds the full observability flag set to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := RegisterLog(fs)
	fs.StringVar(&f.metrics, "metrics", "",
		"write a machine-readable run manifest (JSON) to this path")
	fs.BoolVar(&f.progress, "progress", false,
		"report per-unit progress to stderr")
	fs.StringVar(&f.metricsAddr, "metrics-addr", "",
		"serve live /metrics (Prometheus text format) and pprof on this address during the run")
	fs.StringVar(&f.metricsJSONL, "metrics-jsonl", "",
		"append periodic metric snapshots as JSON lines to this file")
	fs.DurationVar(&f.interval, "metrics-interval", time.Second,
		"snapshot period for -metrics-jsonl")
	fs.StringVar(&f.runDir, "run-dir", "",
		"register the run's manifest in this run registry directory (query with scalequery)")
	return f
}

// RegisterPprof adds -pprof under the tool's own help text; Start serves
// it for the run.
func (f *Flags) RegisterPprof(fs *flag.FlagSet, usage string) {
	fs.StringVar(&f.pprofAddr, "pprof", "", usage)
}

// RegisterTimeline adds -timeline (under the tool's own help text) and
// -timeline-window; OpenTimeline resolves them.
func (f *Flags) RegisterTimeline(fs *flag.FlagSet, usage string) {
	fs.StringVar(&f.tlPath, "timeline", "", usage)
	fs.Int64Var(&f.tlWindow, "timeline-window", 0,
		"timeline counter sampling window in cycles (default 64)")
}

// OpenTimeline creates the -timeline file and returns its writer (nil
// without the flag). Call it after Begin, once nothing can refuse the run
// any more: Begin's end closes it, and a failed flush or close becomes the
// run's error.
func (f *Flags) OpenTimeline() (*timeline.Writer, error) {
	if f.tlPath == "" {
		return nil, nil
	}
	file, err := os.Create(f.tlPath)
	if err != nil {
		return nil, err
	}
	w := timeline.New(file, timeline.Options{Window: f.tlWindow})
	f.closeTimeline = func() error { return errors.Join(w.Close(), file.Close()) }
	return w, nil
}

// RegisterLog adds only the structured-logging flags — enough for tools
// that simulate nothing (topogen, traceanalyze).
func RegisterLog(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.logPath, "log", "",
		`write structured JSONL event logs to this path ("-" or "stderr" for stderr)`)
	fs.StringVar(&f.logLevel, "log-level", "info",
		"minimum level for -log: debug, info, warn or error")
	return f
}

// Begin starts the run's observability once the flags are parsed: a
// recorder when a manifest, a live endpoint, a snapshot stream or a
// registered run wants real numbers (nil otherwise), everything Start
// brings up, and the -progress writer on stderr under label (nil without
// the flag). Defer end with the address of the run's error: the timeline
// closes first, a failed run terminates its progress stream (a no-op after
// the run's own Finish or Abort), then everything stops. A failed timeline
// or snapshot stream becomes the run's error unless it already has one.
func (f *Flags) Begin(tool, label string) (rec *obsv.Recorder, prog *obsv.Progress, end func(*error), err error) {
	if f.metrics != "" || f.metricsAddr != "" || f.metricsJSONL != "" || f.runDir != "" {
		rec = obsv.NewRecorder()
	}
	stop, err := f.Start(tool, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	if f.progress {
		prog = obsv.NewProgress(os.Stderr, label)
	}
	return rec, prog, func(errp *error) {
		if f.closeTimeline != nil {
			if err := f.closeTimeline(); err != nil && *errp == nil {
				*errp = err
			}
		}
		if *errp != nil {
			prog.Abort((*errp).Error())
		}
		if err := stop(); err != nil && *errp == nil {
			*errp = err
		}
	}, nil
}

// Start applies the parsed flags: serves pprof, installs the process
// logger, brings up the /metrics endpoint and starts the snapshot writer,
// the last two reading from rec's registry (nil-safe — an empty registry
// exports empty families).
// The returned stop function flushes and shuts everything down, and
// returns the snapshot stream's write or close error; always defer it.
// tool labels log lines and stderr notices.
func (f *Flags) Start(tool string, rec *obsv.Recorder) (stop func() error, err error) {
	var stops []func()
	var snapErr error
	stop = func() error {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		return snapErr
	}
	fail := func(err error) (func() error, error) {
		stop()
		return func() error { return nil }, err
	}

	if f.pprofAddr != "" {
		addr, stopPprof, err := export.Serve(f.pprofAddr, nil)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "%s: pprof at http://%s/debug/pprof/\n", tool, addr)
		stops = append(stops, func() { _ = stopPprof() })
	}
	if f.logPath != "" {
		closeLog, err := log.Setup(f.logPath, f.logLevel)
		if err != nil {
			return fail(err)
		}
		log.Default().Info("run start", "subsystem", tool, "pid", os.Getpid())
		stops = append(stops, func() {
			log.Default().Info("run end", "subsystem", tool)
			log.SetDefault(nil)
			_ = closeLog()
		})
	}

	src := func() obsv.MetricsSnapshot { return rec.Metrics().Snapshot() }
	if f.metricsAddr != "" {
		addr, stopServe, err := export.Serve(f.metricsAddr, src)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "%s: metrics at http://%s/metrics\n", tool, addr)
		stops = append(stops, func() { _ = stopServe() })
	}
	if f.metricsJSONL != "" {
		file, err := os.Create(f.metricsJSONL)
		if err != nil {
			return fail(err)
		}
		snap := export.NewSnapshotter(file, src, f.interval)
		stops = append(stops, func() { snapErr = errors.Join(snap.Stop(), file.Close()) })
	}
	return stop, nil
}

// Publish writes the run's manifest to the -metrics path and registers
// it in the -run-dir registry; each a no-op without its flag. The stored
// entry is what scalequery list/diff/top read back later.
func (f *Flags) Publish(m *obsv.Manifest) error {
	if f.metrics != "" {
		if err := disk.Create(f.metrics, m.WriteJSON); err != nil {
			return err
		}
	}
	if f.runDir == "" {
		return nil
	}
	s, err := runstore.Open(f.runDir)
	if err != nil {
		return err
	}
	e, err := s.Add(m)
	if err != nil {
		return err
	}
	log.Default().Info("run registered", "subsystem", "runstore", "id", e.ID, "key", e.Key, "dir", f.runDir)
	fmt.Fprintf(os.Stderr, "run registered: %s (%s)\n", e.ID, f.runDir)
	return nil
}

// Output runs write against the file the tool's -o flag names, or against
// stdout without one. The file is a disk.Create: a failed write or close
// is the run's error. Stdout gets the output only once write has returned
// nil, so a run that fails part-way prints nothing there.
func Output(stdout io.Writer, path string, write func(io.Writer) error) error {
	if path != "" {
		return disk.Create(path, write)
	}
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	_, err := buf.WriteTo(stdout)
	return err
}
