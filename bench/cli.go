package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/dataflow"
	"scalesim/internal/dram"
	"scalesim/internal/experiments"
	"scalesim/internal/job"
	"scalesim/internal/partition"
	"scalesim/internal/topology"
)

// cliWorkload is one of the four workloads whose op is a process
// execution of a shipped binary.
type cliWorkload struct {
	name string
	bin  string
	// args builds the command line for an op writing under dir and
	// returns the path holding its outputs.
	args func(dir string) (argv []string, out string)
	// spec is the job the op submits, for the in-process passes and the
	// reference check; the zero Spec for fig12_scaleout, which does not
	// run through internal/job.
	spec job.Spec
	// traces marks an op that passes -traces: the in-process passes then
	// write the per-layer trace CSVs too.
	traces bool
}

// Table IV's GEMMs at full size take 74 s per op on a 32x32 array; with
// every dimension clamped to this the op takes under half a second and
// still writes 234 MB of trace.
const tableIVClamp = 512

// fig12 flags, the command results/README.md documents for
// results/fig12_cb2a3.csv.
var (
	fig12Budgets = []int64{1024, 4096, 16384, 65536, 262144}
	fig12Parts   = []int64{1, 4, 16, 64, 256}
)

func joinInts(v []int64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprint(x)
	}
	return strings.Join(s, ",")
}

// newCLIWorkload resolves a workload name, generating the inputs it needs
// into the scratch directory.
func (h *harness) newCLIWorkload(name string) (*cliWorkload, error) {
	outdir := func(flags ...string) func(string) ([]string, string) {
		return func(dir string) ([]string, string) {
			out := filepath.Join(dir, "out")
			return append(flags, "-outdir", out), out
		}
	}
	w := &cliWorkload{name: name, bin: "scalesim"}
	switch name {
	case "resnet50_cold":
		topo, _ := topology.BuiltIn("Resnet50")
		w.args = outdir("-net", "Resnet50")
		w.spec = job.Spec{Config: config.New(), Topology: topo}
	case "bertbase_dram_cold":
		g, err := topology.BuiltInGraph("BERTBase")
		if err != nil {
			return nil, err
		}
		ddr := dram.DDR3()
		w.args = outdir("-net", "BERTBase", "-dram", "-dram-bw", "4")
		w.spec = job.Spec{Config: config.New(), Graph: &g, DRAM: &ddr, DRAMBandwidth: 4}
	case "tableiv_traced":
		path := filepath.Join(h.scratch, "tableiv_512.csv")
		if err := writeTableIV(path); err != nil {
			return nil, err
		}
		topo, err := topology.LoadCSV(path)
		if err != nil {
			return nil, err
		}
		w.args = outdir("-topology", path, "-traces")
		w.spec = job.Spec{Config: config.New(), Topology: topo}
		w.traces = true
	case "fig12_scaleout":
		w.bin = "scalestudy"
		w.args = func(dir string) ([]string, string) {
			out := filepath.Join(dir, "fig12.csv")
			return []string{"fig12", "-layer", "CB2a_3", "-macs", joinInts(fig12Budgets),
				"-parts", joinInts(fig12Parts), "-o", out}, out
		}
	default:
		return nil, fmt.Errorf("%s is not a CLI workload", name)
	}
	return w, nil
}

// writeTableIV writes the Table IV language-model GEMMs with every
// dimension clamped to tableIVClamp as a topology CSV.
func writeTableIV(path string) error {
	src := topology.LanguageModels()
	topo := topology.Topology{Name: "tableiv_512"}
	for _, l := range src.Layers {
		m, k, n := l.GEMM()
		c := func(v int64) int { return int(min(v, tableIVClamp)) }
		topo.Layers = append(topo.Layers, topology.FromGEMM(l.Name, c(m), c(k), c(n)))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := topology.WriteCSV(f, topo); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// isReport tells the report CSVs of an -outdir from per-layer trace
// files: reports are <run>_<report>.csv for the five report names.
func isReport(name string) bool {
	for _, r := range []string{"cycles", "bandwidth", "detail", "summary", "operators"} {
		if name == "scale_sim_"+r+".csv" {
			return true
		}
	}
	return false
}

// op is one timed process execution.
type op struct {
	wall  time.Duration
	cpu   time.Duration
	rssKB int64
	dir   string // the op's directory; the caller removes it
	out   string // where the outputs are
}

// exec runs the workload's command once. Wall is Start to Wait; CPU and
// peak RSS come from the child's rusage.
func (w *cliWorkload) exec(h *harness) (op, error) {
	dir, err := h.dir("op")
	if err != nil {
		return op{}, err
	}
	argv, out := w.args(dir)
	cmd := exec.Command(filepath.Join(h.bin, w.bin), argv...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return op{dir: dir}, err
	}
	err = cmd.Wait()
	o := op{wall: time.Since(t0), dir: dir, out: out}
	if err != nil {
		return o, fmt.Errorf("%s %s: %w: %s", w.bin, strings.Join(argv, " "), err, stderr.String())
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	o.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	o.rssKB = ru.Maxrss
	return o, nil
}

// verify checks an op's outputs against the golden record. full also
// digests the trace files, which set-up does once.
func (w *cliWorkload) verify(h *harness, g cliGolden, o op, full bool) error {
	if w.name == "fig12_scaleout" {
		got, err := os.ReadFile(o.out)
		if err != nil {
			return err
		}
		want, err := os.ReadFile(filepath.Join(h.root, "results", "fig12_cb2a3.csv"))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("output differs from results/fig12_cb2a3.csv")
		}
		return nil
	}
	outs, err := scanOutputs(o.out)
	if err != nil {
		return err
	}
	if err := g.check(outs); err != nil {
		return err
	}
	if full && g.TraceSHA256 != "" {
		got, err := traceDigest(o.out, outs.traceNames)
		if err != nil {
			return err
		}
		if got != g.TraceSHA256 {
			return fmt.Errorf("trace files: sha256 %.12s, golden %.12s", got, g.TraceSHA256)
		}
	}
	return nil
}

// fig12Point is one (MAC budget, partition count) of the fig12 sweep as
// the in-process passes see it.
type fig12Point struct {
	spec      partition.Spec
	res       partition.Result
	searchDur time.Duration
	runDur    time.Duration
	// analytical is Eq. 6's runtime for the chosen spec.
	analytical int64
}

// fig12Sweep repeats what scalestudy fig12 computes, one public call at a
// time: the analytical search for each (budget, P), then the
// cycle-accurate scale-out run.
func fig12Sweep() ([]fig12Point, error) {
	l := experiments.CB2a3()
	base := config.New().WithSRAM(512, 512, 256).WithDataflow(config.OutputStationary)
	m := dataflow.Map(l, base.Dataflow)
	var points []fig12Point
	for _, b := range fig12Budgets {
		for _, p := range fig12Parts {
			t0 := time.Now()
			spec, ok := partition.BestSpec(m, b, p, 8)
			searchDur := time.Since(t0)
			if !ok {
				continue
			}
			t0 = time.Now()
			res, err := partition.Run(l, base, spec, partition.Options{})
			if err != nil {
				return nil, err
			}
			points = append(points, fig12Point{
				spec: spec, res: res, searchDur: searchDur, runDur: time.Since(t0),
				analytical: analytical.ScaleOutRuntime(m, spec.Parts.Pr, spec.Parts.Pc, spec.Shape.R, spec.Shape.C),
			})
		}
	}
	return points, nil
}

// fig12Reference reduces a sweep to the workload's simulated-cycle total
// and its worst relative gap to Eq. 6.
func fig12Reference(points []fig12Point) (cycles int64, relErr float64) {
	for _, p := range points {
		cycles += p.res.Cycles
		relErr = math.Max(relErr, math.Abs(float64(p.res.Cycles-p.analytical))/float64(p.analytical))
	}
	return cycles, relErr
}

// fig12Check is fig12_scaleout's reference check: the sweep's cycle total
// must be the golden one, and it returns the worst gap to Eq. 6.
func fig12Check(points []fig12Point, g cliGolden) (relErr float64, err error) {
	cycles, relErr := fig12Reference(points)
	if cycles != g.SimCycles {
		return relErr, fmt.Errorf("fig12 simulates %d cycles, golden %d", cycles, g.SimCycles)
	}
	return relErr, nil
}

// cliSetup is everything before the first timed op: the reference gate,
// one discarded warm-up op verified in full, and the Eq. 4 check of its
// cycles report. Nothing here may grow the harness: a child's ru_maxrss
// starts from the peak RSS of the process that spawned it, so a harness
// larger than the program would be what peak_rss_mb reports. That is why
// fig12_scaleout's Eq. 6 check, which simulates in process, runs after
// the timed ops (fig12Check).
type cliSetup struct {
	refRelErr float64
	elapsed   time.Duration
}

func (w *cliWorkload) setup(h *harness, g cliGolden, start time.Time) (cliSetup, error) {
	var s cliSetup
	if err := h.referenceGate(); err != nil {
		return s, err
	}
	o, err := w.exec(h)
	defer os.RemoveAll(o.dir)
	if err != nil {
		return s, err
	}
	if err := w.verify(h, g, o, true); err != nil {
		return s, fmt.Errorf("warm-up op: %w", err)
	}
	if w.name != "fig12_scaleout" {
		csv, err := os.ReadFile(filepath.Join(o.out, "scale_sim_cycles.csv"))
		if err != nil {
			return s, err
		}
		_, cycles, err := cyclesColumn(csv)
		if err != nil {
			return s, err
		}
		if got := sumInt64(cycles); got != g.SimCycles {
			return s, fmt.Errorf("cycles report sums to %d, golden %d", got, g.SimCycles)
		}
		if s.refRelErr, err = refRelErr(w.spec, csv); err != nil {
			return s, err
		}
	}
	s.elapsed = time.Since(start)
	return s, nil
}

// cliOps runs verified ops until the deadline (at least minOps) and
// returns their samples; failed ops are counted, not sampled.
const minOps = 5

// setupRounds is how many times a timed run sets up; setup_s is the median.
const setupRounds = 3

type cliSamples struct {
	wall, cpu []float64
	rssKB     []float64
	attempted int
	failed    int
	errors    []string
}

func (w *cliWorkload) ops(h *harness, g cliGolden, d time.Duration) cliSamples {
	var s cliSamples
	deadline := time.Now().Add(d)
	for s.attempted < minOps || time.Now().Before(deadline) {
		s.attempted++
		o, err := w.exec(h)
		if err == nil {
			err = w.verify(h, g, o, false)
		}
		os.RemoveAll(o.dir)
		if err != nil {
			s.failed++
			s.errors = append(s.errors, err.Error())
			if s.failed >= minOps {
				break // a broken program; no point timing it further
			}
			continue
		}
		s.wall = append(s.wall, o.wall.Seconds())
		s.cpu = append(s.cpu, o.cpu.Seconds())
		s.rssKB = append(s.rssKB, float64(o.rssKB))
	}
	return s
}

// runCLI is the timed (untraced) run of a CLI workload.
func (h *harness) runCLI(name string, gold *golden, d time.Duration) (*result, error) {
	g := gold.CLI[name]
	// Set-up runs setupRounds times and the median is reported: a single
	// warm-up op is one sample of a quantity that moves by a tenth.
	var w *cliWorkload
	var su cliSetup
	var setups []float64
	for round := 0; round < setupRounds; round++ {
		start := time.Now()
		var err error
		if w, err = h.newCLIWorkload(name); err != nil {
			return nil, err
		}
		if su, err = w.setup(h, g, start); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, su.elapsed.Seconds())
	}
	s := w.ops(h, g, d)
	if hwm, err := procHWM(os.Getpid()); err != nil || hwm*1024 >= quantile(s.rssKB, 0.01) {
		return nil, fmt.Errorf("harness peak RSS %.0f MiB (%v) reaches the program's: ru_maxrss would report the harness", hwm, err)
	}
	r := newResult(name, false)
	r.RefRelErrMax = su.refRelErr
	if name == "fig12_scaleout" {
		points, err := fig12Sweep()
		if err != nil {
			return nil, err
		}
		if r.RefRelErrMax, err = fig12Check(points, g); err != nil {
			return nil, err
		}
	}
	r.count(s.attempted, s.failed, s.errors)
	n := len(s.wall)
	rate := make([]float64, n)
	for i, wall := range s.wall {
		rate[i] = float64(g.SimCycles) / wall
	}
	r.Metrics.setN("wall_op_s", quantile(s.wall, 0.25), n)
	r.Metrics.setN("cpu_op_s", quantile(s.cpu, 0.25), n)
	r.Metrics.setN("sim_cycles_per_s", quantile(rate, 0.75), n)
	// The mean, not a quantile: an op's peak RSS depends on when the
	// collector ran and falls into two groups some 35 MiB apart
	// (tableiv_traced: 73-81 and 108-119 MiB), so a median jumps between
	// the groups from one run to the next.
	r.Metrics.setN("peak_rss_mb", ratio(sum(s.rssKB), float64(n))/1024, n)
	r.Metrics.setN("setup_s", median(setups), len(setups))
	return r, nil
}
