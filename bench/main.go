// Command bench is the repository's one benchmark: six workloads from the
// scalesim cold path to the scalesimd daemon under load, each with an
// untraced timed run that reports the end-to-end metrics and a separate
// traced run that reports host cost per module. BENCHMARK.json lists the
// two of them that repeat well enough on a shared host to be gated. See
// README.md beside this file for the tables of workloads and metrics.
//
// Usage (from the repository root):
//
//	go run ./bench                          all workloads, timed run
//	go run ./bench -workload resnet50_cold  one workload
//	go run ./bench -trace 1                 the traced run
//	go run ./bench -o run.json              also write the result document
//	go run ./bench compare A.json B.json    gate B against A
//	go run ./bench -update-golden           rewrite bench/golden.json
//
// End-to-end numbers come from executing the shipped binaries, because
// that is what a user pays for; per-layer numbers come from an in-process
// pass that times calls into each module's public functions from outside.
// Every output is checked against bench/golden.json and the checked-in
// Fig. 4 / Fig. 12 references, so a speed figure is never printed for a
// program whose simulated numbers moved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

const schema = "scalesim.bench/v1"

// document is what -o writes and compare reads.
type document struct {
	Schema    string      `json:"schema"`
	Env       environment `json:"env"`
	Workloads []*result   `json:"workloads"`
}

// result is one workload's run.
type result struct {
	Name  string `json:"name"`
	Trace bool   `json:"trace"`
	// Correct is false when any output differed from its golden record or
	// the simulated cycles left the paper's equations.
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Noisy marks a run during which the machine's own speed moved by
	// more than a tenth (see spin).
	Noisy bool `json:"noisy"`
	// FailedShare counts ops or requests that errored, were refused,
	// timed out or returned bytes that differ from golden, over attempted.
	FailedShare float64 `json:"failed_share"`
	// RefRelErrMax is the largest relative gap between simulated compute
	// cycles and the analytical Eq. 4/6 runtime; 0 on stall-free runs.
	RefRelErrMax float64   `json:"ref_rel_err_max"`
	Errors       []string  `json:"errors,omitempty"`
	Metrics      metricSet `json:"metrics"`
}

func newResult(name string, trace bool) *result {
	return &result{Name: name, Trace: trace, Metrics: metricSet{}}
}

// count records the run's attempted and failed ops and keeps the first
// few error texts.
func (r *result) count(attempted, failed int, errs []string) {
	r.Attempted, r.Failed = attempted, failed
	r.FailedShare = ratio(float64(failed), float64(attempted))
	r.Errors = errs[:min(len(errs), 5)]
}

// finish derives Correct and completes the metric list for the run's kind.
func (r *result) finish() {
	r.Correct = r.Failed == 0 && r.RefRelErrMax == 0 && r.Attempted > 0
	if r.Trace {
		r.Metrics.set("bench.failed_share", r.FailedShare)
		r.Metrics.set("bench.ref_rel_err_max", r.RefRelErrMax)
		r.Metrics.complete(perLayer)
	} else {
		r.Metrics.complete(endToEnd)
	}
}

// print writes every metric by name with its unit and sample count.
func (r *result) print(w io.Writer) {
	kind := "timed"
	if r.Trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s run): attempted %d, failed %d, failed_share %g, ref_rel_err_max %g",
		r.Name, kind, r.Attempted, r.Failed, r.FailedShare, r.RefRelErrMax)
	if r.Noisy {
		fmt.Fprint(w, ", NOISY")
	}
	fmt.Fprintln(w)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  (n=%d)", v.N)
		}
		fmt.Fprintf(w, "   %-30s %16.6g %-8s%s\n", d.Name, v.Value, v.Unit, n)
	}
}

// line is the driver's contract: the last line of standard output.
func (r *result) line() string {
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]wire, len(r.Metrics))
	for k, v := range r.Metrics {
		metrics[k] = wire{v.Value, v.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload (default: all six, one after another)")
		seed     = fs.Int64("seed", 1, "seed of the generated inputs: request draws, arrival schedule, novel specs")
		secs     = fs.Int("seconds", 25, "how long one workload's run measures")
		trace    = fs.Int("trace", 0, "1 = the traced per-layer run instead of the timed run")
		outPath  = fs.String("o", "", "write the result document (JSON) to this file")
		update   = fs.Bool("update-golden", false, "rewrite bench/golden.json from the current binaries and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	if fs.NArg() > 0 {
		return 2, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *secs < 1 || *trace < 0 || *trace > 1 {
		return 2, fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *workload == "" || *workload == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return 2, fmt.Errorf("unknown workload %q", *workload)
	}

	h, err := newHarness(*seed, *secs)
	if err != nil {
		return 2, err
	}
	defer h.close()
	// An interrupted harness still stops its daemon and removes its
	// scratch directory.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.close()
		os.Exit(130)
	}()
	if *update {
		return 0, h.updateGolden()
	}
	gold, err := loadGolden(h.root)
	if err != nil {
		return 2, err
	}

	doc := document{Schema: schema, Env: h.env}
	fmt.Fprintf(stdout, "bench: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %d s per run, scratch on %s\n",
		h.env.Commit, h.env.GoVersion, h.env.NProc, h.env.GOMAXPROCS, h.env.Seed, h.env.Seconds, h.env.ScratchFS)
	code := 0
	for _, w := range selected {
		r, err := h.runWorkload(w, gold, *trace == 1)
		if err != nil {
			return 2, fmt.Errorf("%s: %w", w.Name, err)
		}
		r.print(stdout)
		doc.Workloads = append(doc.Workloads, r)
		if !r.Correct {
			code = 1
		}
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return 2, err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return 2, err
		}
	}
	for _, r := range doc.Workloads {
		fmt.Fprintln(stdout, r.line())
	}
	return code, nil
}

// runWorkload runs one workload between two spins of the noise probe.
func (h *harness) runWorkload(w workloadDef, gold *golden, trace bool) (*result, error) {
	name := w.Name
	before := spin()
	d := time.Duration(h.env.Seconds) * time.Second
	var r *result
	var err error
	switch {
	case w.daemon && trace:
		r, err = h.traceDaemon(name, gold, d)
	case w.daemon:
		r, err = h.runDaemon(name, gold, d)
	case trace:
		r, err = h.traceCLI(name, gold)
	default:
		r, err = h.runCLI(name, gold, d)
	}
	if err != nil {
		return nil, err
	}
	r.Noisy = noisy(before, spin())
	r.finish()
	return r, nil
}
