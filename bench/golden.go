package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"scalesim/internal/analytical"
	"scalesim/internal/dataflow"
	"scalesim/internal/job"
	"scalesim/internal/topology"
)

const goldenPath = "bench/golden.json"

// golden pins what the programs must print. Simulated statistics repeat
// exactly, so any change to a digest is a change of the model, not noise.
type golden struct {
	// CLI is keyed by workload name.
	CLI map[string]cliGolden `json:"cli"`
	// Daemon is keyed by warm-spec label ("Resnet50@32x32"): the sha256 of
	// the scalesim CLI's _cycles.csv for that spec, which the daemon's
	// ?report=cycles bytes must equal.
	Daemon map[string]string `json:"daemon"`
}

type cliGolden struct {
	// SimCycles is the workload's fixed simulated-cycle total per op.
	SimCycles int64 `json:"sim_cycles"`
	// Reports maps report file name to sha256; empty for fig12_scaleout,
	// whose reference is results/fig12_cb2a3.csv itself.
	Reports map[string]string `json:"reports,omitempty"`
	// TraceFiles, TraceBytes and TraceSHA256 pin the -traces output:
	// count and size are checked on every op, the digest over all files
	// in name order once in set-up.
	TraceFiles  int    `json:"trace_files,omitempty"`
	TraceBytes  int64  `json:"trace_bytes,omitempty"`
	TraceSHA256 string `json:"trace_sha256,omitempty"`
}

func loadGolden(root string) (*golden, error) {
	data, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return &g, nil
}

func (g *golden) write(root string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, goldenPath), append(data, '\n'), 0o644)
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// outputs is what one CLI op left in its output directory.
type outputs struct {
	reports    map[string]string // file name -> sha256
	traceFiles int
	traceBytes int64
	traceNames []string // sorted, for the set-up digest
}

// scanOutputs digests the report files of dir and sizes its trace files.
func scanOutputs(dir string) (outputs, error) {
	out := outputs{reports: map[string]string{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return out, err
	}
	for _, e := range entries {
		if isReport(e.Name()) {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				return out, err
			}
			out.reports[e.Name()] = digest(data)
			continue
		}
		info, err := e.Info()
		if err != nil {
			return out, err
		}
		out.traceFiles++
		out.traceBytes += info.Size()
		out.traceNames = append(out.traceNames, e.Name())
	}
	sort.Strings(out.traceNames)
	return out, nil
}

// traceDigest hashes every trace file of dir in name order, streaming:
// the files total 245 MB and the harness must stay small (see cliSetup).
func traceDigest(dir string, names []string) (string, error) {
	h := sha256.New()
	for _, n := range names {
		f, err := os.Open(filepath.Join(dir, n))
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// check compares an op's outputs with the golden record.
func (g cliGolden) check(o outputs) error {
	if len(o.reports) != len(g.Reports) {
		return fmt.Errorf("wrote %d report files, golden has %d", len(o.reports), len(g.Reports))
	}
	for name, want := range g.Reports {
		if got := o.reports[name]; got != want {
			return fmt.Errorf("%s: sha256 %.12s, golden %.12s", name, got, want)
		}
	}
	if o.traceFiles != g.TraceFiles || o.traceBytes != g.TraceBytes {
		return fmt.Errorf("traces: %d files %d bytes, golden %d files %d bytes",
			o.traceFiles, o.traceBytes, g.TraceFiles, g.TraceBytes)
	}
	return nil
}

// fig4Sizes is the reference gate's sweep; results/fig4.csv was produced
// with the same list.
const fig4Sizes = "4,8,16,32,64,128"

// referenceGate runs scalestudy fig4 and refuses to benchmark unless it
// reproduces results/fig4.csv byte for byte with the RTL reference and
// the simulator agreeing on every row (the paper's Fig. 4 validation).
func (h *harness) referenceGate() error {
	got, err := exec.Command(filepath.Join(h.bin, "scalestudy"), "fig4", "-sizes", fig4Sizes).Output()
	if err != nil {
		return fmt.Errorf("scalestudy fig4: %w", err)
	}
	want, err := os.ReadFile(filepath.Join(h.root, "results", "fig4.csv"))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("scalestudy fig4 no longer reproduces results/fig4.csv")
	}
	rows := strings.Split(strings.TrimSpace(string(got)), "\n")
	for _, row := range rows[1:] {
		f := strings.Split(row, ",")
		if len(f) != 3 || f[1] != f[2] {
			return fmt.Errorf("fig4 row %q: RTL and simulated cycles differ", row)
		}
	}
	return nil
}

// cyclesColumn parses a _cycles.csv: layer names and cycle counts in row
// order.
func cyclesColumn(csv []byte) (names []string, cycles []int64, err error) {
	rows := strings.Split(strings.TrimSpace(string(csv)), "\n")
	for _, row := range rows[1:] {
		f := strings.Split(row, ",")
		if len(f) < 2 {
			return nil, nil, fmt.Errorf("cycles report row %q", row)
		}
		c, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("cycles report row %q: %w", row, err)
		}
		names = append(names, f[0])
		cycles = append(cycles, c)
	}
	return names, cycles, nil
}

func sumInt64(v []int64) int64 {
	var t int64
	for _, x := range v {
		t += x
	}
	return t
}

// execOrder lists the spec's nodes in the order reports print them.
func execOrder(spec job.Spec) ([]topology.Node, error) {
	if spec.Graph != nil {
		return spec.Graph.ExecutionOrder()
	}
	nodes := make([]topology.Node, len(spec.Topology.Layers))
	for i, l := range spec.Topology.Layers {
		nodes[i] = topology.NodeOf(l)
	}
	return nodes, nil
}

// refRelErr is the reference check of the scalesim workloads: the largest
// relative gap, over matmul layers, between the simulated compute cycles
// the CLI reported and the paper's Eq. 4 runtime for the same mapping.
func refRelErr(spec job.Spec, cyclesCSV []byte) (float64, error) {
	nodes, err := execOrder(spec)
	if err != nil {
		return 0, err
	}
	names, cycles, err := cyclesColumn(cyclesCSV)
	if err != nil {
		return 0, err
	}
	if len(names) != len(nodes) {
		return 0, fmt.Errorf("cycles report has %d rows, workload %d nodes", len(names), len(nodes))
	}
	var worst float64
	for i, n := range nodes {
		if names[i] != n.Name {
			return 0, fmt.Errorf("cycles report row %d is %q, workload node is %q", i, names[i], n.Name)
		}
		if !n.Kind.Matmul() {
			continue
		}
		m := dataflow.Map(n.Layer, spec.Config.Dataflow)
		want := analytical.Runtime(m, int64(spec.Config.ArrayHeight), int64(spec.Config.ArrayWidth))
		worst = math.Max(worst, math.Abs(float64(cycles[i]-want))/float64(want))
	}
	return worst, nil
}

// updateGolden rewrites bench/golden.json from what the current binaries
// print. It runs only under -update-golden: a digest that moved is a model
// change someone has to mean.
func (h *harness) updateGolden() error {
	if err := h.referenceGate(); err != nil {
		return err
	}
	g := &golden{CLI: map[string]cliGolden{}, Daemon: map[string]string{}}
	for _, def := range workloads {
		if def.daemon {
			continue
		}
		w, err := h.newCLIWorkload(def.Name)
		if err != nil {
			return err
		}
		o, err := w.exec(h)
		if err != nil {
			return err
		}
		var cg cliGolden
		if def.Name == "fig12_scaleout" {
			points, err := fig12Sweep()
			if err != nil {
				return err
			}
			cg.SimCycles, _ = fig12Reference(points)
		} else {
			outs, err := scanOutputs(o.out)
			if err != nil {
				return err
			}
			csv, err := os.ReadFile(filepath.Join(o.out, "scale_sim_cycles.csv"))
			if err != nil {
				return err
			}
			_, cycles, err := cyclesColumn(csv)
			if err != nil {
				return err
			}
			cg = cliGolden{SimCycles: sumInt64(cycles), Reports: outs.reports,
				TraceFiles: outs.traceFiles, TraceBytes: outs.traceBytes}
			if outs.traceFiles > 0 {
				if cg.TraceSHA256, err = traceDigest(o.out, outs.traceNames); err != nil {
					return err
				}
			}
		}
		os.RemoveAll(o.dir)
		g.CLI[def.Name] = cg
	}
	for _, spec := range warmSpecs() {
		dir, err := h.dir("golden")
		if err != nil {
			return err
		}
		cmd := exec.Command(filepath.Join(h.bin, "scalesim"), "-net", spec.Net, "-array", spec.Array, "-outdir", dir)
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("scalesim -net %s -array %s: %w: %s", spec.Net, spec.Array, err, out)
		}
		csv, err := os.ReadFile(filepath.Join(dir, "scale_sim_cycles.csv"))
		if err != nil {
			return err
		}
		g.Daemon[specLabel(spec)] = digest(csv)
	}
	return g.write(h.root)
}
