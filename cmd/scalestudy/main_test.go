package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"scalesim/internal/dataflow"
	"scalesim/internal/experiments"
	"scalesim/internal/job"
	"scalesim/internal/obsv"
	"scalesim/internal/partition"
	"scalesim/internal/topology"
)

func lines(s string) int {
	return len(strings.Split(strings.TrimSpace(s), "\n"))
}

func TestFig4Command(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"fig4", "-sizes", "4,8"}, &buf); err != nil {
		t.Fatal(err)
	}
	if lines(buf.String()) != 3 {
		t.Errorf("output:\n%s", buf.String())
	}
	if !strings.HasPrefix(buf.String(), "ArraySize,RTLCycles,SimCycles") {
		t.Errorf("missing header: %s", buf.String())
	}
}

func TestStudyMetricsManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "study.json")
	var buf bytes.Buffer
	if err := run([]string{"fig4", "-sizes", "4,8", "-metrics", path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obsv.ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "scalestudy" || m.Run != "fig4" {
		t.Errorf("identity = %q/%q", m.Tool, m.Run)
	}
	var found bool
	for _, p := range m.Phases {
		if p.Name == "scalestudy.fig4" {
			found = true
		}
	}
	if !found {
		t.Errorf("phases = %+v, want scalestudy.fig4", m.Phases)
	}
}

// TestFig11MetricsManifest: every scale-out subcommand (fig11, fig12,
// sweetspot) states one manifest unit, with a distinct name, and one
// progress step per (series, partition count) point, of every budget; no
// budget's units overwrite another's. Engine spans count partition
// windows: each series here has one at P = 1 and four at P = 4. Each unit
// is the point's run record: real cycles and MACs, one closed cycle node
// apiece, and for fig11 its CSV row's numbers and the record a -parts job
// states for the same layer and system.
func TestFig11MetricsManifest(t *testing.T) {
	for _, c := range []struct {
		args    []string
		points  int
		windows int64
	}{
		{[]string{"fig11", "-macs", "4096"}, 4, 10},      // two series x two partition counts
		{[]string{"fig11", "-macs", "1024,4096"}, 8, 20}, // and two budgets
		{[]string{"fig12", "-macs", "1024,4096"}, 4, 10},
		{[]string{"sweetspot", "-macs", "1024,4096"}, 4, 10},
	} {
		path := filepath.Join(t.TempDir(), "m.json")
		var runErr error
		var stdout bytes.Buffer
		stderr := captureStderr(t, func() {
			runErr = run(append(c.args, "-parts", "1,4", "-metrics", path, "-progress"), &stdout)
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := obsv.ParseManifest(data)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, l := range m.Layers {
			names[l.Name] = true
		}
		if m.Run != c.args[0] || len(m.Layers) != c.points || len(names) != c.points {
			t.Errorf("%v: run %q, units %d, distinct names %d, want %d: %+v",
				c.args, m.Run, len(m.Layers), len(names), c.points, m.Layers)
		}
		if m.Spans == nil || m.Spans.Jobs != c.windows {
			t.Errorf("%v: spans = %+v, want %d jobs", c.args, m.Spans, c.windows)
		}
		last := fmt.Sprintf("[%d/%d] ", c.points, c.points)
		if strings.Count(stderr, fmt.Sprintf("/%d] ", c.points)) != c.points || !strings.Contains(stderr, last) ||
			!strings.Contains(stderr, fmt.Sprintf("done, %d units", c.points)) {
			t.Errorf("%v: progress:\n%s", c.args, stderr)
		}
		for _, l := range m.Layers {
			if l.Cycles <= 0 || l.MACs <= 0 {
				t.Errorf("%v: unit %s has %d cycles, %d MACs", c.args, l.Name, l.Cycles, l.MACs)
			}
		}
		if ca := m.CycleAccounting; ca == nil || len(ca.Nodes) != len(m.Layers) || ca.Check() != nil {
			t.Fatalf("%v: cycle accounting %+v, want one closed node per unit", c.args, ca)
		}
		if c.args[0] == "fig11" {
			checkUnitsMatchCSV(t, m.Layers, stdout.String())
			checkPartsJobEntry(t, m)
		}
	}
}

// checkUnitsMatchCSV: each fig11 unit's cycles and DRAM words are its CSV
// row's, the row found by the point name <layer>@<macs>MACs/<P>parts.
func checkUnitsMatchCSV(t *testing.T, units []obsv.LayerMetrics, csv string) {
	t.Helper()
	rows := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(csv), "\n")[1:] {
		f := strings.Split(line, ",")
		rows[fmt.Sprintf("%s@%sMACs/%sparts", f[0], f[1], f[2])] = f
	}
	if len(rows) != len(units) {
		t.Errorf("%d CSV rows for %d units", len(rows), len(units))
	}
	for _, u := range units {
		f, ok := rows[u.Name]
		if got := fmt.Sprint(u.Cycles, u.DRAMReads, u.DRAMWrites); !ok || got != strings.Join([]string{f[4], f[7], f[8]}, " ") {
			t.Errorf("unit %s: cycles, DRAM reads, writes %s; CSV row %v", u.Name, got, f)
		}
	}
}

// checkPartsJobEntry: the study's unit for CB2a_3 at 4096 MACs on four
// partitions is, entry and cycle node, what a -parts job states for that
// layer on the same system, index and wall time aside.
func checkPartsJobEntry(t *testing.T, m *obsv.Manifest) {
	t.Helper()
	const name = "CB2a_3@4096MACs/4parts"
	l, base := experiments.CB2a3(), experiments.Fig11Base()
	spec, ok := partition.BestSpec(dataflow.Map(l, base.Dataflow), 4096, 4, 8)
	if !ok {
		t.Fatal("no spec")
	}
	l.Name = name
	r := job.NewRunner(job.Options{Workers: 1})
	defer r.Close(context.Background())
	res, err := r.Run(job.Spec{
		Config:   base.WithArray(int(spec.Shape.R), int(spec.Shape.C)),
		Topology: topology.Topology{Name: "point", Layers: []topology.Layer{l}},
		Parts:    spec.Parts,
	}, job.Live{})
	if err != nil {
		t.Fatal(err)
	}
	want, wantNode := res.Manifest.Layers[0], res.Manifest.CycleAccounting.Nodes[0]
	for i, got := range m.Layers {
		if got.Name != name {
			continue
		}
		node := m.CycleAccounting.Nodes[i]
		got.Index, got.WallSeconds, node.Index = want.Index, want.WallSeconds, wantNode.Index
		if got != want || !reflect.DeepEqual(node, wantNode) {
			t.Errorf("study unit\n%+v\n%+v\n-parts job\n%+v\n%+v", got, node, want, wantNode)
		}
		return
	}
	t.Errorf("no unit %s in %+v", name, m.Layers)
}

// captureStderr runs f with os.Stderr redirected and returns what it wrote.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	f()
	os.Stderr = saved
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestFig9Commands(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"fig9a", "-macs", "1024"}, &buf); err != nil {
		t.Fatal(err)
	}
	if lines(buf.String()) < 3 {
		t.Errorf("fig9a too small:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"fig9bc", "-macs", "4096"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MappingUtil") {
		t.Error("fig9bc missing header")
	}
}

func TestFig10Commands(t *testing.T) {
	for _, cmd := range []string{"fig10a", "fig10b"} {
		var buf bytes.Buffer
		if err := run([]string{cmd, "-macs", "1024,4096"}, &buf); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		if lines(buf.String()) < 5 {
			t.Errorf("%s output too small", cmd)
		}
	}
}

func TestFig11Command(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"fig11", "-macs", "4096", "-parts", "1,4"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "CB2a_3") || !strings.Contains(out, "TF0") {
		t.Errorf("fig11 missing layers:\n%s", out)
	}
}

func TestFig12Command(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"fig12", "-macs", "1024", "-parts", "1,4", "-layer", "CB2a_3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "EnergyTotal") {
		t.Error("fig12 missing energy header")
	}
	buf.Reset()
	if err := run([]string{"fig12", "-macs", "1024", "-parts", "1", "-layer", "TF0"}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"fig12", "-layer", "NoSuchLayer", "-macs", "1024"}, &buf); err == nil {
		t.Error("unknown layer accepted")
	}
}

func TestFig13Fig14Commands(t *testing.T) {
	for _, cmd := range []string{"fig13", "fig14"} {
		var buf bytes.Buffer
		if err := run([]string{cmd, "-macs", "1024"}, &buf); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		if !strings.Contains(buf.String(), "CandidateRank") {
			t.Errorf("%s missing header", cmd)
		}
	}
}

// TestOutputFile: -o receives exactly the bytes stdout would have, and a
// file that cannot be created or fully written fails the study.
func TestOutputFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig4.csv")
	if err := run([]string{"fig4", "-sizes", "4", "-o", path}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run([]string{"fig4", "-sizes", "4"}, &stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, stdout.Bytes()) || !strings.Contains(string(data), "ArraySize") {
		t.Errorf("-o file:\n%s\nstdout:\n%s", data, stdout.Bytes())
	}

	if err := run([]string{"fig4", "-sizes", "4", "-o", filepath.Join(dir, "missing", "fig4.csv")}, &stdout); err == nil {
		t.Error("-o under a missing directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Error("-o under a missing directory created it")
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := run([]string{"fig4", "-sizes", "4", "-o", "/dev/full"}, &stdout); err == nil {
			t.Error("-o onto a full device succeeded")
		}
	}
}

// TestCommandErrors: a bad invocation, or a study that fails part-way,
// prints nothing; a MAC budget or partition count below 1, an array size
// outside 1..1024, a bandwidth budget that is not positive, and a per-figure
// flag given to paper are refused by the flag's name, and a refused paper
// writes no file.
func TestCommandErrors(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		args []string
		flag string // the flag the refusal names, if any
	}{
		{[]string{}, ""},
		{[]string{"figX"}, ""},
		{[]string{"fig4", "-sizes", "abc"}, ""},
		{[]string{"fig4", "-sizes", ""}, ""},
		{[]string{"fig9a", "-macs", "32"}, ""}, // infeasible under minDim 8
		{[]string{"fig4", "-badflag"}, ""},
		{[]string{"fig11", "-parts", "0,1"}, "-parts"},
		{[]string{"fig12", "-macs", "1024", "-parts", "-4,1"}, "-parts"},
		{[]string{"sweetspot", "-parts", "1,0"}, "-parts"},
		{[]string{"cells", "-macs", "-4096,4096"}, "-macs"},
		{[]string{"fig11", "-macs", "0"}, "-macs"},
		{[]string{"fig9a", "-macs", "1024,-1"}, "-macs"},
		{[]string{"sweetspot", "-bw", "0"}, "-bw"},
		{[]string{"sweetspot", "-macs", "4096", "-parts", "1,4", "-bw", "NaN"}, "-bw"},
		// A later budget fails after an earlier one succeeded.
		{[]string{"sweetspot", "-layer", "TF0", "-macs", "4096,16384", "-bw", "32"}, ""},
		{[]string{"cells", "-macs", "4096,32"}, ""},
		// The PE-level reference would build two N x N matrices.
		{[]string{"fig4", "-sizes", "4,100000"}, "-sizes"},
		{[]string{"fig4", "-sizes", "0"}, "-sizes"},
		// paper needs a directory and has no per-figure flag: its table
		// gives every figure's.
		{[]string{"paper"}, "-o"},
		{[]string{"paper", "-o", dir, "-sizes", "4"}, "flag provided but not defined: -sizes"},
		{[]string{"paper", "-o", dir, "-macs", "1024"}, "flag provided but not defined: -macs"},
		{[]string{"paper", "-o", dir, "-parts", "1,4"}, "flag provided but not defined: -parts"},
		{[]string{"paper", "-o", dir, "-mindim", "4"}, "flag provided but not defined: -mindim"},
		{[]string{"paper", "-o", dir, "-layer", "TF0"}, "flag provided but not defined: -layer"},
		{[]string{"paper", "-o", dir, "-bw", "32"}, "flag provided but not defined: -bw"},
		{[]string{"paper", "-o", dir, "-net", "TinyNet"}, "flag provided but not defined: -net"},
		{[]string{"paper", "-o", dir, "-plot"}, "flag provided but not defined: -plot"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		err := run(c.args, &buf)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag) {
			t.Errorf("run(%v) = %v, want a refusal naming %q", c.args, err, c.flag)
		}
		if buf.Len() != 0 {
			t.Errorf("run(%v) printed before failing:\n%s", c.args, buf.String())
		}
	}
	if written, _ := os.ReadDir(dir); len(written) != 0 {
		t.Errorf("refused paper runs wrote %v", written)
	}
}

// paperPoints counts the scale-out points of the paper table: 26 of
// Fig. 11 and 35 of Fig. 12, the points no -parts entry fits skipped.
const paperPoints = 61

// TestPaperMatchesResults: paper writes exactly the CSVs of results/, byte
// for byte, checked both ways, so a file it no longer writes and a file
// results/ lacks both fail. Its manifest states one unit per scale-out
// point, each a closed cycle node.
func TestPaperMatchesResults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(t.TempDir(), "paper.json")
	if err := run([]string{"paper", "-o", dir, "-metrics", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, _ := filepath.Glob(filepath.Join(dir, "*"))
	want, _ := filepath.Glob(filepath.Join("..", "..", "results", "*.csv"))
	base := func(paths []string) []string {
		out := make([]string, len(paths))
		for i, p := range paths {
			out[i] = filepath.Base(p)
		}
		return out
	}
	if !reflect.DeepEqual(base(got), base(want)) || len(want) == 0 {
		t.Fatalf("paper wrote %v, results/ holds %v", base(got), base(want))
	}
	for i := range got {
		g, err := os.ReadFile(got[i])
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from results/:\n%s", filepath.Base(got[i]), g)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obsv.ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Run != "paper" || len(m.Layers) != paperPoints {
		t.Errorf("run %q with %d units, want paper with %d", m.Run, len(m.Layers), paperPoints)
	}
	if ca := m.CycleAccounting; ca == nil || len(ca.Nodes) != paperPoints || ca.Check() != nil {
		t.Errorf("cycle accounting %+v, want %d closed nodes", ca, paperPoints)
	}
}

// BenchmarkPaper is the whole paper in process, as `scalestudy paper -o
// DIR` runs it: every results/ CSV, its scale-out points in one sweep. A
// pass allocates 72.3 MiB (0.51 s at GOMAXPROCS 2, on a 2-vCPU Xeon); one
// that allocates more than 1.5x that, 108 MiB, fails.
func BenchmarkPaper(b *testing.B) {
	b.ReportAllocs()
	dir := b.TempDir()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		if err := run([]string{"paper", "-o", dir}, io.Discard); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 108<<20 {
			b.Fatalf("pass %d allocated %d bytes, want at most 108 MiB", i, got)
		}
		before = after
	}
	b.ReportMetric(paperPoints, "points/op")
}

// TestScaleOutMinDim: -mindim reaches the scale-out sweep. At the default
// 8, a 1024-MAC budget has no 64-way partitioning; at 4 it runs on 4x4
// arrays.
func TestScaleOutMinDim(t *testing.T) {
	for cmd, series := range map[string]int{"fig11": 2, "fig12": 1} {
		var buf bytes.Buffer
		if err := run([]string{cmd, "-macs", "1024", "-parts", "64", "-mindim", "4"}, &buf); err != nil {
			t.Fatalf("%s -mindim 4: %v", cmd, err)
		}
		rows := strings.Split(strings.TrimSpace(buf.String()), "\n")[1:]
		if len(rows) != series {
			t.Fatalf("%s: rows %q, want one per series (%d)", cmd, rows, series)
		}
		for _, row := range rows {
			if f := strings.Split(row, ","); f[1] != "1024" || f[2] != "64" ||
				(cmd == "fig11" && !strings.HasSuffix(f[3], " partitions of 4x4")) {
				t.Errorf("%s: row %q, want 64 partitions of 4x4 arrays", cmd, row)
			}
		}
		if err := run([]string{cmd, "-macs", "1024", "-parts", "64"}, &bytes.Buffer{}); err == nil ||
			!strings.Contains(err.Error(), "(minDim 8)") {
			t.Errorf("%s at the default -mindim = %v, want no feasible partitioning", cmd, err)
		}
	}
}

func TestSweetSpotCommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"sweetspot", "-macs", "4096", "-parts", "1,4", "-layer", "CB2a_3", "-bw", "100"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BWBudget") {
		t.Errorf("missing header:\n%s", buf.String())
	}
	if err := run([]string{"sweetspot", "-macs", "4096", "-parts", "1", "-bw", "0.0001"}, &buf); err == nil {
		t.Error("impossible budget accepted")
	}
}

func TestDataflowCommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"dataflow", "-net", "TinyNet"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "BestDataflow") || !strings.Contains(out, "TOTAL") {
		t.Errorf("output:\n%s", out)
	}
	if err := run([]string{"dataflow", "-net", "Nope"}, &buf); err == nil {
		t.Error("unknown net accepted")
	}
}

func TestBWCurveCommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"bwcurve", "-layer", "CB2a_3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Slowdown") {
		t.Errorf("output:\n%s", buf.String())
	}
}

// TestBWCurveMetricsManifest: bwcurve records its simulations into the
// study's manifest — one unit per bandwidth point, each a closed cycle node
// whose roofline sits against the point's bandwidth, and the engine spans
// of the points' runs.
func TestBWCurveMetricsManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	var buf bytes.Buffer
	if err := run([]string{"bwcurve", "-layer", "CB2a_3", "-metrics", path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obsv.ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	points := lines(buf.String()) - 1
	if len(m.Layers) != points || m.Spans == nil || m.Spans.Jobs == 0 {
		t.Fatalf("%d units and spans %+v for %d bandwidth points", len(m.Layers), m.Spans, points)
	}
	if err := m.CycleAccounting.Check(); err != nil {
		t.Fatal(err)
	}
	for i, row := range m.CycleAccounting.Roofline {
		if e := m.Layers[i]; row.Name != e.Name || e.Name != fmt.Sprintf("CB2a_3@%gwpc", row.LinkWordsPerCycle) ||
			e.Cycles+e.StallCycles != m.CycleAccounting.Nodes[i].Total {
			t.Errorf("unit %d: entry %+v, roofline %+v", i, e, row)
		}
	}
}

func TestPlotModes(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"bwcurve", "-layer", "CB2a_3", "-plot"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "slowdown vs available DRAM bandwidth") {
		t.Errorf("bwcurve plot:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"fig11", "-macs", "4096", "-parts", "1,4", "-plot"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "runtime vs partitions") || !strings.Contains(out, "DRAM demand vs partitions") {
		t.Errorf("fig11 plot:\n%s", out)
	}
}

func TestCellsCommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"cells", "-macs", "4096,16384"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Speedup") || lines(out) != 3 {
		t.Errorf("output:\n%s", out)
	}
}
