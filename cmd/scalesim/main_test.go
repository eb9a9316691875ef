package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"scalesim"
	"scalesim/internal/obsv"
)

func TestRunBuiltInNet(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-net", "TinyNet", "-array", "8x8", "-sram", "2,2,1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"TinyNet", "TotalCycles,", "EnergyTotal,"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunWithConfigFileAndReports(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "scale.cfg")
	cfgText := `
[general]
run_name = testrun
[architecture_presets]
ArrayHeight: 8
ArrayWidth: 8
IfmapSramSz: 2
FilterSramSz: 2
OfmapSramSz: 1
Dataflow: ws
`
	if err := os.WriteFile(cfgPath, []byte(cfgText), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "out")
	var buf bytes.Buffer
	err := run([]string{"-config", cfgPath, "-net", "TinyNet", "-outdir", outDir, "-traces", "-dram"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cycles", "bandwidth", "detail", "summary"} {
		path := filepath.Join(outDir, "testrun_"+name+".csv")
		if _, err := os.Stat(path); err != nil {
			t.Errorf("missing report %s: %v", name, err)
		}
	}
	// Trace CSVs were requested too.
	matches, _ := filepath.Glob(filepath.Join(outDir, "testrun_*_sram_read_ifmap.csv"))
	if len(matches) != 3 {
		t.Errorf("trace files = %d, want 3", len(matches))
	}
}

func TestRunTopologyFromFile(t *testing.T) {
	dir := t.TempDir()
	topoPath := filepath.Join(dir, "net.csv")
	csv := "conv, 8, 8, 3, 3, 2, 4, 1,\n"
	if err := os.WriteFile(topoPath, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-topology", topoPath, "-array", "4x4", "-sram", "1,1,1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Layers,1") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{},                                   // no topology
		{"-net", "Nope"},                     // unknown builtin
		{"-net", "TinyNet", "-array", "bad"}, // bad array
		{"-net", "TinyNet", "-dataflow", "xx"},
		{"-net", "TinyNet", "-sram", "1"},
		{"-net", "TinyNet", "-traces"}, // traces without outdir
		{"-config", "/nonexistent/scale.cfg"},
		{"-topology", "/nonexistent/net.csv"},
		{"-badflag"},
		{"-net", "TinyNet", "-array", "0x4"},
	}
	for _, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}

	// A grid that is not a grid is refused before the report header is
	// printed, not inside the first layer.
	for _, grid := range []string{"0x2", "2x0", "-1x2"} {
		buf.Reset()
		args := []string{"-net", "TinyNet", "-array", "8x8", "-sram", "4,4,2", "-parts", grid}
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), "parts") {
			t.Errorf("run(%v) = %v, want an error naming parts", args, err)
		}
		if buf.Len() != 0 {
			t.Errorf("run(%v) printed a report before refusing:\n%s", args, buf.String())
		}
	}

	// A bandwidth bound that is not a finite number is refused by name, not
	// run as an unbounded link, with or without -parts.
	for _, args := range [][]string{
		{"-dram-bw", "NaN"}, {"-dram-bw", "Inf"}, {"-dram-bw", "NaN", "-parts", "1x1"},
	} {
		buf.Reset()
		args = append([]string{"-net", "TinyNet"}, args...)
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), "non-finite DRAM bandwidth") {
			t.Errorf("run(%v) = %v, want an error naming a non-finite DRAM bandwidth", args, err)
		}
		if buf.Len() != 0 {
			t.Errorf("run(%v) printed a report before refusing:\n%s", args, buf.String())
		}
	}
}

// TestPartsFlagMatrix pairs -parts with every flag that could interact
// with it: each pair either produces its artefact beside an unchanged
// stdout table, or is refused naming the flag or the Spec field, with
// nothing printed and nothing created.
func TestPartsFlagMatrix(t *testing.T) {
	base := []string{"-net", "TinyNet", "-array", "8x8", "-sram", "4,4,2", "-parts", "1x2"}
	var want bytes.Buffer
	if err := run(base, &want); err != nil {
		t.Fatal(err)
	}
	graphPath := filepath.Join(t.TempDir(), "bert.json")
	gf, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := scalesim.BuiltInGraph("BERTTiny")
	if err := scalesim.WriteGraph(gf, g); err != nil {
		t.Fatal(err)
	}
	gf.Close()

	for _, tc := range []struct {
		flags    []string // "@" is replaced by the case's scratch directory
		refused  string   // the error must name this
		artefact string   // this path under the scratch directory must be non-empty
	}{
		{flags: []string{"-dram"}, refused: "DRAM"},
		{flags: []string{"-dram-bw", "0.5"}, refused: "DRAMBandwidth"},
		{flags: []string{"-traces", "-outdir", "@/out", "-timeline", "@/tl.json"}, refused: "-parts does not support -traces"},
		{flags: []string{"-traces", "-timeline", "@/tl.json", "-cache-dir", "@/cache"}, refused: "-traces requires -outdir"},
		{flags: []string{"-graph", graphPath}, refused: "Graph"},
		{flags: []string{"-net", "BERTTiny"}, refused: "Graph"},
		{flags: []string{"-outdir", "@/out"}, artefact: "out/scale_sim_scaleout.csv"},
		{flags: []string{"-cache"}},
		{flags: []string{"-cache-dir", "@/cache"}, artefact: "cache"},
		{flags: []string{"-metrics", "@/m.json"}, artefact: "m.json"},
		{flags: []string{"-timeline", "@/tl.json"}, artefact: "tl.json"},
		{flags: []string{"-cycleprof", "@/c.pb.gz"}, artefact: "c.pb.gz"},
		{flags: []string{"-roofline", "@/r.csv"}, artefact: "r.csv"},
		{flags: []string{"-progress"}},
		{flags: []string{"-workers", "1"}},
		{flags: []string{"-run-dir", "@/runs"}, artefact: "runs"},
	} {
		dir := t.TempDir()
		args := append([]string(nil), base...)
		for _, f := range tc.flags {
			args = append(args, strings.Replace(f, "@", dir, 1))
		}
		var buf bytes.Buffer
		err := run(args, &buf)
		left, _ := os.ReadDir(dir)
		if tc.refused != "" {
			if err == nil || !strings.Contains(err.Error(), tc.refused) {
				t.Errorf("run(%v) = %v, want an error naming %s", tc.flags, err, tc.refused)
			}
			if buf.Len() != 0 || len(left) != 0 {
				t.Errorf("run(%v) refused after printing %d bytes and creating %d entries", tc.flags, buf.Len(), len(left))
			}
			continue
		}
		if err != nil {
			t.Errorf("run(%v): %v", tc.flags, err)
			continue
		}
		if buf.String() != want.String() {
			t.Errorf("run(%v) changed the stdout table:\n%s", tc.flags, buf.String())
		}
		if tc.artefact == "" {
			continue
		}
		path := filepath.Join(dir, tc.artefact)
		if st, err := os.Stat(path); err != nil {
			t.Errorf("run(%v): %v", tc.flags, err)
		} else if st.IsDir() {
			if ents, _ := os.ReadDir(path); len(ents) == 0 {
				t.Errorf("run(%v) left %s empty", tc.flags, tc.artefact)
			}
		} else if st.Size() == 0 {
			t.Errorf("run(%v) left %s empty", tc.flags, tc.artefact)
		}
	}

	// -outdir writes exactly one report: the stdout table below its header.
	dir := filepath.Join(t.TempDir(), "out")
	if err := run(append(base, "-outdir", dir), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 || ents[0].Name() != "scale_sim_scaleout.csv" {
		t.Fatalf("-outdir holds %v, want exactly scale_sim_scaleout.csv", ents)
	}
	csv, err := os.ReadFile(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(want.String(), "\n")
	if string(csv) != table {
		t.Errorf("scaleout.csv differs from the stdout table:\n%s\n--\n%s", csv, table)
	}

	// -json dumps the run the table is rendered from: each layer's cycles
	// are the table's column, and each partition's books close on them.
	var buf bytes.Buffer
	if err := run(append(base[:len(base)-1:len(base)-1], "2x2", "-json"), &buf); err != nil {
		t.Fatal(err)
	}
	var res scalesim.RunResult
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("-parts -json does not decode: %v", err)
	}
	var want2x2 bytes.Buffer
	if err := run(append(base[:len(base)-1:len(base)-1], "2x2"), &want2x2); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(want2x2.String()), "\n")[2:]
	if len(res.Layers) != len(rows)-1 || res.Parts == nil || res.Parts.String() != "2x2" {
		t.Fatalf("%d layers, grid %v, for %d table rows", len(res.Layers), res.Parts, len(rows)-1)
	}
	for i, lr := range res.Layers {
		if cycles := strings.Split(rows[i], ",")[1]; strconv.FormatInt(lr.Compute.Cycles, 10) != cycles {
			t.Errorf("layer %d: -json cycles %d, table %s", i, lr.Compute.Cycles, cycles)
		}
		if len(lr.Partitions) == 0 {
			t.Errorf("layer %d: no partition ledgers", i)
		}
		for _, p := range lr.Partitions {
			if err := p.Check(); err != nil || p.Total != lr.Compute.Cycles {
				t.Errorf("layer %d partition (%d,%d): total %d of %d cycles: %v", i, p.Pi, p.Pj, p.Total, lr.Compute.Cycles, err)
			}
		}
	}
}

// TestScaleOutWorkers: -workers bounds the partition fan-out of a -parts
// run and is recorded in its manifest, and like every other run its
// outputs do not depend on the value.
func TestScaleOutWorkers(t *testing.T) {
	dir := t.TempDir()
	outputs := func(workers string) (stdout string, roofline []byte, m *obsv.Manifest) {
		t.Helper()
		manifest := filepath.Join(dir, "m"+workers+".json")
		csv := filepath.Join(dir, "r"+workers+".csv")
		var buf bytes.Buffer
		err := run([]string{"-net", "TinyNet", "-array", "8x8", "-sram", "4,4,2", "-parts", "2x2",
			"-workers", workers, "-metrics", manifest, "-roofline", csv}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(manifest)
		if err != nil {
			t.Fatal(err)
		}
		if m, err = obsv.ParseManifest(data); err != nil {
			t.Fatal(err)
		}
		if roofline, err = os.ReadFile(csv); err != nil {
			t.Fatal(err)
		}
		return buf.String(), roofline, m
	}
	out1, roof1, m1 := outputs("1")
	out4, roof4, m4 := outputs("4")
	if m1.Workers != 1 || m4.Workers != 4 {
		t.Errorf("manifest workers = %d and %d, want 1 and 4", m1.Workers, m4.Workers)
	}
	if out1 != out4 || !bytes.Equal(roof1, roof4) {
		t.Errorf("-workers 1 and 4 disagree:\n%s\n--\n%s", out1, out4)
	}
	ca1, _ := json.Marshal(m1.CycleAccounting)
	ca4, _ := json.Marshal(m4.CycleAccounting)
	if !bytes.Equal(ca1, ca4) {
		t.Errorf("cycle_accounting differs between -workers 1 and 4")
	}
}

// TestParseArray: -array and -parts take RxC in either case.
func TestParseArray(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-net", "TinyNet", "-array", "8X4", "-sram", "4,4,2", "-parts", "1X2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "scale-out: 1x2 partitions of 8x4") {
		t.Errorf("header:\n%s", buf.String())
	}
	// A shape is exactly its integers: a trailing field is refused, not
	// dropped, before anything is printed.
	for _, args := range [][]string{
		{"-array", "8x8x3"},
		{"-array", "8x8,"},
		{"-parts", "2x2x5"},
		{"-sram", "4,4,2,9"},
		{"-sram", "4,4"},
	} {
		buf.Reset()
		if err := run(append([]string{"-net", "TinyNet"}, args...), &buf); err == nil || buf.Len() != 0 {
			t.Errorf("%v: err = %v, stdout %q; want a refusal and empty stdout", args, err, buf.String())
		}
	}
}

func TestJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-net", "TinyNet", "-array", "8x8", "-sram", "2,2,1", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TotalCycles int64
		Layers      []struct {
			Compute struct{ Cycles int64 }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded.TotalCycles <= 0 || len(decoded.Layers) != 3 {
		t.Errorf("decoded = %+v", decoded)
	}
	var sum int64
	for _, l := range decoded.Layers {
		sum += l.Compute.Cycles
	}
	if sum != decoded.TotalCycles {
		t.Errorf("layer cycles %d != total %d", sum, decoded.TotalCycles)
	}
}

func TestMetricsManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	var buf bytes.Buffer
	err := run([]string{"-net", "TinyNet", "-array", "8x8", "-sram", "2,2,1", "-metrics", path}, &buf)
	if err != nil {
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
	if m.Tool != "scalesim" {
		t.Errorf("tool = %q", m.Tool)
	}
	if len(m.Layers) != 3 {
		t.Errorf("layers = %d, want 3", len(m.Layers))
	}
	if m.Spans == nil || m.Spans.Jobs != 3 {
		t.Errorf("spans = %+v, want 3 jobs", m.Spans)
	}
	if m.ConfigHash == "" || m.Topology == nil || len(m.Phases) == 0 {
		t.Errorf("manifest incomplete: %+v", m)
	}
}

func TestScaleOutMetricsManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	var buf bytes.Buffer
	err := run([]string{"-net", "TinyNet", "-array", "8x8", "-sram", "4,4,2",
		"-parts", "1x2", "-metrics", path}, &buf)
	if err != nil {
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
	if m.Tool != "scalesim" || len(m.Layers) != 3 {
		t.Errorf("tool %q, layers %d", m.Tool, len(m.Layers))
	}
	// Scale-out routes every layer's partitions through the engine, so the
	// span aggregate counts partition tasks, not layers.
	if m.Spans == nil || m.Spans.Jobs < 3 {
		t.Errorf("spans = %+v", m.Spans)
	}
}

// TestRunDiskCache runs the same network twice against one -cache-dir and
// requires identical summary output, a warm manifest that reports disk
// replays, and the same behaviour through the scale-out path.
func TestRunDiskCache(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	base := []string{"-net", "TinyNet", "-array", "8x8", "-sram", "2,2,1", "-cache-dir", cacheDir}
	var cold, warm bytes.Buffer
	warmManifest := filepath.Join(dir, "warm.json")
	if err := run(base, &cold); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-metrics", warmManifest), &warm); err != nil {
		t.Fatal(err)
	}
	if cold.String() != warm.String() {
		t.Fatalf("warm output differs:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}
	data, err := os.ReadFile(warmManifest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obsv.ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cache == nil || m.Cache.Hits == 0 {
		t.Fatalf("warm manifest cache = %+v, want hits > 0", m.Cache)
	}

	// Scale-out shares the same cache flags and manifest surface.
	soManifest := filepath.Join(dir, "so.json")
	var so bytes.Buffer
	soArgs := []string{"-net", "TinyNet", "-array", "8x8", "-sram", "4,4,2",
		"-parts", "1x2", "-cache", "-metrics", soManifest}
	if err := run(soArgs, &so); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(soManifest); err != nil {
		t.Fatal(err)
	}
	if m, err = obsv.ParseManifest(data); err != nil {
		t.Fatal(err)
	}
	if m.Cache == nil || m.Cache.Misses == 0 {
		t.Fatalf("scale-out manifest cache = %+v, want misses > 0", m.Cache)
	}
}

// TestCappedWarmRunAdvancesRecency: an all-hit capped run remembers what
// it used — the mtime of every spill file it hit moves to now — so the
// next capped process does not evict exactly what this one just used. The
// directory holds spill files and nothing else.
func TestCappedWarmRunAdvancesRecency(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	args := []string{"-net", "TinyNet", "-cache-dir", cacheDir, "-cache-max-mb", "64"}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(cacheDir)
	if err != nil || len(des) == 0 {
		t.Fatalf("cold run left %d cache files (err %v)", len(des), err)
	}
	past := time.Now().Add(-time.Hour)
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), ".json") {
			t.Errorf("cache directory holds %s, want only spill files", de.Name())
		}
		if err := os.Chtimes(filepath.Join(cacheDir, de.Name()), past, past); err != nil {
			t.Fatal(err)
		}
	}
	metrics := filepath.Join(t.TempDir(), "warm.json")
	if err := run(append(args, "-metrics", metrics), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := obsv.ParseManifest(data); err != nil || m.Cache == nil || m.Cache.Misses != 0 {
		t.Fatalf("warm run is not all-hit: %+v (err %v)", m, err)
	}
	for _, de := range des {
		info, err := os.Stat(filepath.Join(cacheDir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !info.ModTime().After(past.Add(time.Minute)) {
			t.Errorf("%s: mtime %v after a hit, want about now", de.Name(), info.ModTime())
		}
	}
}

// TestScaleOutCycleAccounting: a -parts run carries the cycle account
// like any other — one node per layer with a closed ledger per partition —
// into the manifest, the pprof profile and the roofline CSV.
func TestScaleOutCycleAccounting(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "run.json")
	prof := filepath.Join(dir, "cycles.pb.gz")
	roofline := filepath.Join(dir, "roofline.csv")
	var buf bytes.Buffer
	err := run([]string{"-net", "TinyNet", "-array", "8x8", "-sram", "4,4,2", "-parts", "1x2",
		"-cycleprof", prof, "-roofline", roofline, "-metrics", manifest}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obsv.ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	ca := m.CycleAccounting
	if ca == nil {
		t.Fatal("scale-out manifest carries no cycle_accounting")
	}
	if err := ca.Check(); err != nil {
		t.Fatal(err)
	}
	if len(ca.Nodes) != 3 || len(ca.Roofline) != 3 {
		t.Fatalf("nodes = %d, roofline rows = %d, want 3 and 3", len(ca.Nodes), len(ca.Roofline))
	}
	for i, n := range ca.Nodes {
		if n.Index != i || len(n.Partitions) != 2 {
			t.Errorf("node %d: index %d, %d partitions, want 2", i, n.Index, len(n.Partitions))
		}
	}
	if ca.Categories["mac_active"] == 0 {
		t.Errorf("categories = %v", ca.Categories)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Errorf("cycle profile: %v", err)
	}
	rows, err := os.ReadFile(roofline)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(rows), "\n"); n != 4 {
		t.Errorf("roofline CSV has %d lines, want a header and 3 rows:\n%s", n, rows)
	}
}

func TestScaleOutMode(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-net", "TinyNet", "-array", "8x8", "-sram", "4,4,2", "-parts", "1x2"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "scale-out: 1x2 partitions of 8x8") {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "TOTAL,") || !strings.Contains(out, "conv1,") {
		t.Errorf("rows missing:\n%s", out)
	}
	if err := run([]string{"-net", "TinyNet", "-parts", "bad"}, &buf); err == nil {
		t.Error("bad -parts accepted")
	}
}

// TestScaleOutTimeline pins the structure of a -parts timeline: one
// simulated-machine process per layer carrying one thread per active
// partition (its span, fold schedule and "p<i>."-prefixed counter tracks),
// followed by the run's one host-engine process, whose job spans are named
// after the layers and partitions they ran.
func TestScaleOutTimeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tl.json")
	var buf bytes.Buffer
	err := run([]string{"-net", "TinyNet", "-array", "8x8", "-sram", "4,4,2",
		"-parts", "2x2", "-timeline", path}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string
		Ph   string
		PID  int64
		TID  int64
		Args struct{ Name string }
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("timeline is not a JSON event array: %v", err)
	}

	type process struct {
		name            string
		threads         map[int64]string
		spans, counters map[string]int
	}
	procs := map[int64]*process{}
	var order []int64
	proc := func(pid int64) *process {
		p, ok := procs[pid]
		if !ok {
			p = &process{threads: map[int64]string{}, spans: map[string]int{}, counters: map[string]int{}}
			procs[pid] = p
			order = append(order, pid)
		}
		return p
	}
	for _, e := range events {
		p := proc(e.PID)
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			p.name = e.Args.Name
		case e.Ph == "M" && e.Name == "thread_name":
			p.threads[e.TID] = e.Args.Name
		case e.Ph == "X":
			p.spans[e.Name]++
		case e.Ph == "C":
			p.counters[e.Name]++
		}
	}

	// TinyNet's fc1 maps to a single spatial row, so a 2x2 grid leaves its
	// second partition row idle: 4, 4 and 2 active partitions.
	layers := []string{"conv1", "conv2", "fc1"}
	active := []int{4, 4, 2}
	if len(order) != len(layers)+1 {
		t.Fatalf("%d processes, want a machine process per layer and a host process", len(order))
	}
	host := procs[order[len(layers)]]
	for li, layer := range layers {
		machine := procs[order[li]]
		if want := "simulated machine: " + layer + " on 2x2 partitions of 8x8"; machine.name != want {
			t.Errorf("layer %d: machine process %q, want %q", li, machine.name, want)
		}
		if host.name != "host engine" {
			t.Errorf("layer %d: host process %q", li, host.name)
		}
		if len(machine.threads) != active[li] {
			t.Errorf("%s: %d partition threads, want %d", layer, len(machine.threads), active[li])
		}
		folds := 0
		for name, n := range machine.spans {
			if strings.HasPrefix(name, "fold ") {
				folds += n
			}
		}
		if folds < active[li] {
			t.Errorf("%s: %d fold spans for %d partitions", layer, folds, active[li])
		}
		for tid, name := range machine.threads {
			if !strings.HasPrefix(name, "partition ") {
				t.Errorf("%s: thread %d named %q", layer, tid, name)
			}
			if machine.spans[name] != 1 {
				t.Errorf("%s: %d machine spans named %q, want 1", layer, machine.spans[name], name)
			}
			if host.spans[layer+" "+name] != 1 {
				t.Errorf("%s: %d host-engine spans named %q, want 1", layer, host.spans[layer+" "+name], layer+" "+name)
			}
			for _, track := range []string{"sram.ifmap_read", "sram.filter_read", "sram.ofmap_write", "dram.read", "dram.write"} {
				if full := "p" + strconv.FormatInt(tid, 10) + "." + track; machine.counters[full] == 0 {
					t.Errorf("%s: no samples on counter track %q", layer, full)
				}
			}
		}
		for track := range machine.counters {
			if !strings.HasPrefix(track, "p") || !strings.Contains(track, ".") {
				t.Errorf("%s: counter track %q lacks its partition prefix", layer, track)
			}
		}
	}
}
