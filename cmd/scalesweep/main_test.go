package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scalesim/internal/obsv"
)

// TestSweepTimelineProcesses: a -parallel 2 sweep's timeline holds one
// simulated-machine process per grid point, in grid order and titled with
// the point's label, then the plan's one host-engine process; two runs
// list the same processes.
func TestSweepTimelineProcesses(t *testing.T) {
	dir := t.TempDir()
	var lists [2][]string
	for i := range lists {
		tl, mp := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
		if err := run([]string{"-arrays", "8x8,16x16,32x32", "-dataflows", "os,ws", "-nets", "TinyNet",
			"-parallel", "2", "-timeline", tl, "-metrics", mp}, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		var events []struct {
			Ph, Name string
			Args     struct{ Name string }
		}
		data, err := os.ReadFile(tl)
		if err == nil {
			err = json.Unmarshal(data, &events)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if e.Ph == "M" && e.Name == "process_name" {
				lists[i] = append(lists[i], e.Args.Name)
			}
		}
		if data, err = os.ReadFile(mp); err != nil {
			t.Fatal(err)
		}
		m, err := obsv.ParseManifest(data)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, l := range m.Layers { // the grid's points, in grid order
			want = append(want, "simulated machine: "+l.Name)
		}
		want = append(want, "host engine")
		if len(m.Layers) != 6 || strings.Join(lists[i], "|") != strings.Join(want, "|") {
			t.Errorf("run %d processes %q, want %q", i, lists[i], want)
		}
	}
	if strings.Join(lists[0], "|") != strings.Join(lists[1], "|") {
		t.Errorf("processes differ between runs:\n%q\n%q", lists[0], lists[1])
	}
}

func TestInlineSweep(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-arrays", "8x8,16x16",
		"-dataflows", "os",
		"-srams", "2/2/1",
		"-nets", "TinyNet",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 points
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[1], "TinyNet,8x8,os") {
		t.Errorf("row: %s", lines[1])
	}
}

func TestSpecFileSweep(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "sweep.cfg")
	spec := "[sweep]\narrays = 8x8\ndataflows = os, ws\nsrams = 2/2/1\nnets = TinyNet\n"
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.csv")
	if err := run([]string{"-spec", specPath, "-o", outPath, "-parallel", "2"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(data), "\n") != 3 {
		t.Errorf("output:\n%s", data)
	}
}

// TestInlineMatchesSpecFile: the inline axis flags and the equivalent
// -spec document reach one parser, so the sweeps are byte-identical —
// flat nets and operator graphs alike.
func TestInlineMatchesSpecFile(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "sweep.cfg")
	spec := "[sweep]\narrays = 8x8, 16x16\ndataflows = os, ws\nsrams = 2/2/1\nnets = TinyNet, BERTTiny\n"
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var inline, file bytes.Buffer
	if err := run([]string{"-arrays", "8x8,16x16", "-dataflows", "os,ws", "-srams", "2/2/1",
		"-nets", "TinyNet,BERTTiny"}, &inline); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", specPath}, &file); err != nil {
		t.Fatal(err)
	}
	if inline.Len() == 0 || !bytes.Equal(inline.Bytes(), file.Bytes()) {
		t.Errorf("inline flags:\n%s\n-spec file:\n%s", inline.String(), file.String())
	}
}

func TestSweepMetricsManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.json")
	var buf bytes.Buffer
	err := run([]string{
		"-arrays", "8x8,16x16", "-dataflows", "os", "-srams", "2/2/1",
		"-nets", "TinyNet", "-metrics", path,
	}, &buf)
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
	if m.Tool != "scalesweep" || len(m.Layers) != 2 {
		t.Errorf("tool %q, entries %d, want scalesweep with 2", m.Tool, len(m.Layers))
	}
	if m.Layers[0].Name != "TinyNet/8x8/os/2-2-1" {
		t.Errorf("entry name %q", m.Layers[0].Name)
	}
	// One plan runs both points: one span per context, TinyNet's three
	// layers on each array, none of them repeated.
	if m.Spans == nil || m.Spans.Jobs != 6 {
		t.Errorf("spans = %+v, want 6 jobs", m.Spans)
	}
}

// TestSweepDiskCache runs the same grid twice against one -cache-dir: the
// second run must replay from disk (manifest cache.hits > 0) and its CSV
// must be byte-identical to the first's.
func TestSweepDiskCache(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	grid := []string{
		"-arrays", "8x8", "-dataflows", "os,ws", "-srams", "2/2/1",
		"-nets", "TinyNet", "-cache-dir", cacheDir,
	}
	var cold, warm bytes.Buffer
	coldManifest := filepath.Join(dir, "cold.json")
	warmManifest := filepath.Join(dir, "warm.json")
	if err := run(append(grid, "-metrics", coldManifest), &cold); err != nil {
		t.Fatal(err)
	}
	if err := run(append(grid, "-metrics", warmManifest), &warm); err != nil {
		t.Fatal(err)
	}
	if cold.String() != warm.String() {
		t.Fatalf("warm CSV differs from cold:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}
	parse := func(path string) *obsv.CacheStats {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := obsv.ParseManifest(data)
		if err != nil {
			t.Fatal(err)
		}
		if m.Cache == nil {
			t.Fatalf("%s: manifest has no cache stats", path)
		}
		return m.Cache
	}
	if st := parse(coldManifest); st.Misses == 0 {
		t.Errorf("cold run misses = %d, want > 0", st.Misses)
	}
	if st := parse(warmManifest); st.Hits == 0 {
		t.Errorf("warm run hits = %d, want > 0 (disk replay)", st.Hits)
	}
	// -cache without a directory memoizes within the run only.
	var mem bytes.Buffer
	if err := run([]string{"-arrays", "8x8", "-dataflows", "os", "-srams", "2/2/1",
		"-nets", "TinyNet", "-cache"}, &mem); err != nil {
		t.Fatal(err)
	}
}

// TestOutputFile: -o receives exactly the bytes stdout would have, and a
// file that cannot be created or fully written fails the sweep.
func TestOutputFile(t *testing.T) {
	dir := t.TempDir()
	grid := []string{"-nets", "TinyNet", "-arrays", "8x8,16x16"}
	path := filepath.Join(dir, "sweep.csv")
	var stdout, none bytes.Buffer
	if err := run(grid, &stdout); err != nil {
		t.Fatal(err)
	}
	if err := run(append(grid, "-o", path), &none); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, stdout.Bytes()) || len(data) == 0 || none.Len() != 0 {
		t.Errorf("-o file:\n%s\nstdout:\n%s", data, stdout.Bytes())
	}

	if err := run(append(grid, "-o", filepath.Join(dir, "missing", "sweep.csv")), &none); err == nil {
		t.Error("-o under a missing directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Error("-o under a missing directory created it")
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := run(append(grid, "-o", "/dev/full"), &none); err == nil {
			t.Error("-o onto a full device succeeded")
		}
	}
}

func TestSweepErrors(t *testing.T) {
	var buf bytes.Buffer
	badParallel := filepath.Join(t.TempDir(), "bad.spec")
	if err := os.WriteFile(badParallel, []byte("[sweep]\nnets = TinyNet\nparallel = 2x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{},                        // no nets anywhere
		{"-nets", "NoSuchNet"},    // unknown net
		{"-spec", "/nonexistent"}, // missing spec
		{"-config", "/nonexistent", "-nets", "TinyNet"},
		{"-badflag"},
		{"-nets", "TinyNet", "-arrays", "8x8x9"},   // trailing field
		{"-nets", "TinyNet", "-srams", "2/2/1/7"},  // trailing field
		{"-nets", "TinyNet", "-arrays", "8x8,0x4"}, // one invalid point refuses the grid
		{"-spec", badParallel},                     // [sweep] parallel = 2x
	}
	for _, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("a refused sweep wrote to stdout:\n%s", buf.String())
	}
}
