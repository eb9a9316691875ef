package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/obsv"
	"scalesim/internal/runstore"
	"scalesim/internal/topology"
)

// seedStore populates a registry with two runs of one config (identical
// replays) and one run of a regressed config, returning the three IDs.
func seedStore(t *testing.T, dir string) (base, replay, regressed string) {
	t.Helper()
	s, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(hash string, cycles, stall int64) *obsv.Manifest {
		m := (*obsv.Recorder)(nil).Manifest()
		m.Tool = "scalesim"
		m.Run = "unit"
		m.ConfigHash = hash
		m.Topology = &obsv.TopologyInfo{Name: "net", Layers: 2}
		m.Layers = []obsv.LayerMetrics{
			{Index: 0, Name: "conv1", Cycles: cycles, StallCycles: stall, Utilization: 0.8},
			{Index: 1, Name: "fc", Cycles: 50, Utilization: 0.9},
		}
		return m
	}
	e1, err := s.Add(mk("sha256:aaaa", 100, 10))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Add(mk("sha256:aaaa", 100, 10))
	if err != nil {
		t.Fatal(err)
	}
	e3, err := s.Add(mk("sha256:bbbb", 160, 40))
	if err != nil {
		t.Fatal(err)
	}
	return e1.ID, e2.ID, e3.ID
}

func TestListShowsRuns(t *testing.T) {
	dir := t.TempDir()
	base, replay, regressed := seedStore(t, dir)

	var out bytes.Buffer
	if err := run([]string{"-dir", dir, "list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{base, replay, regressed} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("list missing %s:\n%s", id, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"-dir", dir, "-ids", "list"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Errorf("-ids list = %d lines, want 3:\n%s", len(lines), out.String())
	}
	for _, l := range lines {
		if strings.ContainsAny(l, " \t") {
			t.Errorf("-ids line not bare: %q", l)
		}
	}
}

func TestShowPrintsManifest(t *testing.T) {
	dir := t.TempDir()
	base, _, _ := seedStore(t, dir)
	var out bytes.Buffer
	if err := run([]string{"-dir", dir, "show", base}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sha256:aaaa", "conv1", "fc", "net (2 layers)", "command:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("show missing %q:\n%s", want, out.String())
		}
	}
}

func TestDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	base, replay, regressed := seedStore(t, dir)

	// Identical replays: exit 0, says so.
	var out bytes.Buffer
	if err := run([]string{"-dir", dir, "diff", base, replay}, &out); err != nil {
		t.Fatalf("identical diff errored: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "runs are identical") {
		t.Errorf("identical diff output:\n%s", out.String())
	}

	// Regressed config: errDiffers (mapped to exit 2 in main), REGRESSION flag.
	out.Reset()
	err := run([]string{"-dir", dir, "diff", base, regressed}, &out)
	if err != errDiffers {
		t.Fatalf("regressed diff err = %v, want errDiffers", err)
	}
	for _, want := range []string{"config: DIFFERS", "REGRESSION", "+60.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff missing %q:\n%s", want, out.String())
		}
	}
}

func TestTopRanksLayers(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	var out bytes.Buffer
	if err := run([]string{"-dir", dir, "top", "-n", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	// The regressed run's conv1 stalls hardest (40/200 = 20%).
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 || !strings.Contains(lines[1], "20.0%") || !strings.Contains(lines[1], "conv1") {
		t.Errorf("top output:\n%s", out.String())
	}
}

func TestBadInvocations(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-dir", dir},
		{"-dir", dir, "frobnicate"},
		{"-dir", dir, "show"},
		{"-dir", dir, "diff", "onlyone"},
		{"-dir", dir, "show", "nosuchrun"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// seedSimulated registers a real TinyNet run under a 1 word/cycle DRAM
// link (so dram_bw_stall is populated) and returns its ID and manifest.
func seedSimulated(t *testing.T, dir string) (string, *obsv.Manifest) {
	t.Helper()
	sim, err := core.New(config.New(), core.Options{DRAMBandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Simulate(topology.TinyNet())
	if err != nil {
		t.Fatal(err)
	}
	s, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Manifest(res)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.Add(m)
	if err != nil {
		t.Fatal(err)
	}
	return e.ID, m
}

// TestFlagsOnEitherSideOfTheVerb: the package doc writes flags after the
// verb and its IDs; they must mean the same there as in front.
func TestFlagsOnEitherSideOfTheVerb(t *testing.T) {
	dir := t.TempDir()
	base, _, regressed := seedStore(t, dir)
	sim, _ := seedSimulated(t, dir)
	prof := filepath.Join(t.TempDir(), "p.pb.gz")

	for _, c := range []struct {
		name  string
		flags []string // written once before and once after the positionals
		pos   []string
		check func(t *testing.T, out string, err error)
	}{
		{"top -n", []string{"-n", "2"}, []string{"top"}, func(t *testing.T, out string, err error) {
			if lines := strings.Count(out, "\n"); err != nil || lines != 3 {
				t.Errorf("want header + 2 rows, got %d lines (err %v):\n%s", lines, err, out)
			}
		}},
		{"top -by", []string{"-by", "dram_bw_stall"}, []string{"top"}, func(t *testing.T, out string, err error) {
			if err != nil || !strings.HasPrefix(out, "SHARE%") || !strings.Contains(out, "dram_bw_stall") {
				t.Errorf("not ranked by category (err %v):\n%s", err, out)
			}
		}},
		{"diff -threshold", []string{"-threshold", "3.5"}, []string{"diff", base, regressed}, func(t *testing.T, out string, err error) {
			// conv1's stalls grow 300%: a regression at the default 5%, not at 350%.
			if err != errDiffers || !strings.Contains(out, "0 regression(s) beyond 350%") {
				t.Errorf("threshold not applied (err %v):\n%s", err, out)
			}
		}},
		{"cycles -cycleprof", []string{"-cycleprof", prof}, []string{"cycles", sim}, func(t *testing.T, out string, err error) {
			st, serr := os.Stat(prof)
			if err != nil || serr != nil || st.Size() == 0 {
				t.Errorf("profile not written (err %v, stat %v)", err, serr)
			}
			os.Remove(prof)
		}},
	} {
		lead := append(append([]string{"-dir", dir}, c.flags...), c.pos...)
		trail := append(append([]string{"-dir", dir}, c.pos...), c.flags...)
		for where, args := range map[string][]string{"leading": lead, "trailing": trail} {
			t.Run(c.name+"/"+where, func(t *testing.T) {
				var out bytes.Buffer
				err := run(args, &out)
				c.check(t, out.String(), err)
			})
		}
	}
}

// TestCyclesRendersStoredAccount: the node table closes on the manifest's
// total, shares and roofline follow, and the two file outputs are the
// pprof profile and roofline CSV the simulating CLIs write.
func TestCyclesRendersStoredAccount(t *testing.T) {
	dir := t.TempDir()
	id, m := seedSimulated(t, dir)
	tmp := t.TempDir()
	prof, roof := filepath.Join(tmp, "p.pb.gz"), filepath.Join(tmp, "roof.csv")

	var out bytes.Buffer
	if err := run([]string{"-dir", dir, "cycles", id, "-cycleprof", prof, "-roofline", roof}, &out); err != nil {
		t.Fatal(err)
	}
	total := m.CycleAccounting.TotalCycles
	var layers int64
	for _, l := range m.Layers {
		layers += l.Cycles + l.StallCycles
	}
	if total <= 0 || total != layers {
		t.Fatalf("fixture: cycle_accounting.total_cycles = %d, layers sum to %d", total, layers)
	}
	var totalRow []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "TOTAL") {
			totalRow = strings.Fields(line)
		}
	}
	if len(totalRow) < 2 || totalRow[1] != fmt.Sprint(total) {
		t.Errorf("TOTAL row %v, want total %d:\n%s", totalRow, total, out.String())
	}
	for _, want := range []string{
		fmt.Sprintf("cycle accounting: TinyNet, %d cycles attributed", total),
		"conv1", "conv2", "fc1", // node table
		fmt.Sprintf("dram_bw_stall (%d cycles)", m.CycleAccounting.Categories["dram_bw_stall"]), // shares
		"ops/byte", "memory", // roofline table
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("cycles output missing %q:\n%s", want, out.String())
		}
	}

	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("-cycleprof output is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	// The pprof string table is plain bytes inside the protobuf.
	for _, want := range []string{"TinyNet", "mac_active", "dram_bw_stall", "cycles"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("profile string table lacks %q", want)
		}
	}
	csv, err := os.ReadFile(roof)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "name,op,ops,dram_bytes,intensity") || strings.Count(string(csv), "\n") != 4 {
		t.Errorf("-roofline output:\n%s", csv)
	}
}

func TestCyclesWithoutAccountNamesTheRun(t *testing.T) {
	dir := t.TempDir()
	base, _, _ := seedStore(t, dir) // hand-built manifests: no cycle_accounting
	var out bytes.Buffer
	err := run([]string{"-dir", dir, "cycles", base[:20]}, &out)
	if err == nil || !strings.Contains(err.Error(), base) {
		t.Errorf("err = %v, want one naming run %s", err, base)
	}
	if err := run([]string{"-dir", dir, "cycles"}, &out); err == nil {
		t.Error("cycles without a run ID accepted")
	}
}
