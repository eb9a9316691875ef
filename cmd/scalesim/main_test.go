package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

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

	// The scale-out path implements none of these; each is refused by
	// name, before anything is simulated or written.
	outDir := filepath.Join(t.TempDir(), "out")
	for _, extra := range [][]string{
		{"-dram"}, {"-dram-bw", "0.5"}, {"-traces", "-outdir", outDir}, {"-outdir", outDir}, {"-json"},
	} {
		buf.Reset()
		args := append([]string{"-net", "TinyNet", "-array", "8x8", "-sram", "4,4,2", "-parts", "1x2"}, extra...)
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), extra[0]) {
			t.Errorf("run(%v) = %v, want an error naming %s", args, err, extra[0])
		}
		if buf.Len() != 0 {
			t.Errorf("run(%v) printed a report before refusing:\n%s", args, buf.String())
		}
	}
	if _, err := os.Stat(outDir); err == nil {
		t.Error("a refused run created its -outdir")
	}
}

func TestParseArray(t *testing.T) {
	r, c, err := parseArray("128X64")
	if err != nil || r != 128 || c != 64 {
		t.Errorf("parseArray = %d,%d,%v", r, c, err)
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
// each followed by a host-engine process whose job spans are named after
// the partitions they ran.
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
	if len(order) != 2*len(layers) {
		t.Fatalf("%d processes, want a machine and a host process per layer", len(order))
	}
	for li, layer := range layers {
		machine, host := procs[order[2*li]], procs[order[2*li+1]]
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
			if host.spans[name] != 1 {
				t.Errorf("%s: %d host-engine spans named %q, want 1", layer, host.spans[name], name)
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
