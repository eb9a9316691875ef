package core

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/obsv/cycleacct"
	"scalesim/internal/simcache"
	"scalesim/internal/topology"
)

// checkRunLedgers asserts the cycle-accounting invariant on every layer of
// a run and on the rolled-up report: ledgers exist, their books close
// (sum(bins) == Total == StalledCycles), the dram_bw_stall bin equals the
// stall analyzer's answer, and the report re-validates.
func checkRunLedgers(t *testing.T, s *Simulator, res RunResult) *cycleacct.Report {
	t.Helper()
	for i, lr := range res.Layers {
		if lr.Ledger == nil {
			t.Fatalf("layer %d %q has no ledger", i, lr.Compute.Layer.Name)
		}
		if err := lr.Ledger.Check(); err != nil {
			t.Fatalf("layer %d %q: %v", i, lr.Compute.Layer.Name, err)
		}
		if lr.Ledger.Total != lr.StalledCycles() {
			t.Fatalf("layer %d %q: ledger total %d, stalled cycles %d",
				i, lr.Compute.Layer.Name, lr.Ledger.Total, lr.StalledCycles())
		}
		if got := lr.Ledger.Category(cycleacct.DRAMBwStall); got != lr.StallCycles {
			t.Fatalf("layer %d %q: dram_bw_stall bin %d, StallCycles %d",
				i, lr.Compute.Layer.Name, got, lr.StallCycles)
		}
	}
	rep := mustManifest(t, s, res).CycleAccounting
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	var stalled int64
	for _, lr := range res.Layers {
		stalled += lr.StalledCycles()
	}
	if rep.TotalCycles != stalled {
		t.Fatalf("report total %d, summed stalled cycles %d", rep.TotalCycles, stalled)
	}
	return rep
}

// TestCycleLedgerPropertyGrid sweeps a randomized sample of the
// (dataflow x array x SRAM x DRAM bandwidth) space and requires the sum
// invariant to hold at every point. This is the package's property test:
// whatever the operating point, every simulated cycle is attributed to
// exactly one taxonomy bin.
func TestCycleLedgerPropertyGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	arrays := [][2]int{{4, 4}, {8, 8}, {8, 16}, {32, 8}}
	srams := [][3]int{{1, 1, 1}, {4, 4, 2}, {16, 16, 8}}
	bws := []float64{0, 0.7, 1, 2.5, 8}
	topo := topology.TinyNet()

	for _, df := range config.Dataflows {
		for trial := 0; trial < 6; trial++ {
			a := arrays[rng.Intn(len(arrays))]
			s := srams[rng.Intn(len(srams))]
			bw := bws[rng.Intn(len(bws))]
			cfg := config.New().WithArray(a[0], a[1]).WithSRAM(s[0], s[1], s[2]).WithDataflow(df)
			sim := newSim(t, cfg, Options{DRAMBandwidth: bw})
			res, err := sim.Simulate(topo)
			if err != nil {
				t.Fatalf("df=%v array=%v sram=%v bw=%v: %v", df, a, s, bw, err)
			}
			rep := checkRunLedgers(t, sim, res)
			if bw == 0 && rep.Categories[cycleacct.DRAMBwStall] != 0 {
				t.Errorf("df=%v array=%v: unbounded link accrued dram_bw_stall", df, a)
			}
			if bw > 0 && bw < 1 && rep.Categories[cycleacct.DRAMBwStall] == 0 {
				t.Errorf("df=%v array=%v bw=%v: starved link accrued no stall", df, a, bw)
			}
			for _, row := range rep.Roofline {
				if bw == 0 && row.Bound != cycleacct.BoundCompute {
					t.Errorf("unbounded link classified %q", row.Bound)
				}
			}
		}
	}
}

// TestCycleLedgerVectorGraph runs the BERTTiny operator graph: vector
// nodes (softmax, layernorm) must account their cycles as vector passes
// while matmul nodes account fold phases, and the books still close under
// a bounded link.
func TestCycleLedgerVectorGraph(t *testing.T) {
	g, err := topology.BuiltInGraph("BERTTiny")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.New().WithArray(16, 16).WithSRAM(64, 64, 32)
	sim := newSim(t, cfg, Options{DRAMBandwidth: 2})
	res, err := sim.SimulateGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	rep := checkRunLedgers(t, sim, res)
	if rep.Categories[cycleacct.VectorPass] == 0 {
		t.Error("BERTTiny has softmax/layernorm nodes but no vector_pass cycles")
	}
	if rep.Categories[cycleacct.MACActive] == 0 {
		t.Error("no mac_active cycles on matmul nodes")
	}
	var sawVector bool
	for i, lr := range res.Layers {
		if lr.Vector == nil {
			continue
		}
		sawVector = true
		// A vector node's compute cycles are all passes; the rest of its
		// ledger is the bounded link's stall share.
		if got := lr.Ledger.Category(cycleacct.VectorPass); got != lr.Compute.Cycles {
			t.Errorf("node %d: vector node binned %d of %d compute cycles as passes",
				i, got, lr.Compute.Cycles)
		}
	}
	if !sawVector {
		t.Fatal("graph exposed no vector nodes; test is vacuous")
	}
}

// TestCycleReportLeavesTracesIdentical pins the observability contract:
// rolling the ledgers into a report and encoding the pprof profile must
// not change a byte of trace output — attribution is a read-only tap.
func TestCycleReportLeavesTracesIdentical(t *testing.T) {
	topo := topology.TinyNet()
	cfg := config.New().WithArray(8, 8)

	readAll := func(dir string) map[string][]byte {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte, len(entries))
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		return files
	}

	plainDir := t.TempDir()
	plain, err := New(cfg, Options{TraceDir: plainDir, DRAMBandwidth: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Simulate(topo); err != nil {
		t.Fatal(err)
	}

	profDir := t.TempDir()
	prof, err := New(cfg, Options{TraceDir: profDir, DRAMBandwidth: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := prof.Simulate(topo)
	if err != nil {
		t.Fatal(err)
	}
	rep := checkRunLedgers(t, prof, res)
	var pprofBuf bytes.Buffer
	if err := rep.WritePprof(&pprofBuf, topo.Name); err != nil {
		t.Fatal(err)
	}
	if pprofBuf.Len() == 0 {
		t.Fatal("empty pprof profile")
	}

	want, got := readAll(plainDir), readAll(profDir)
	if len(want) != len(got) || len(want) == 0 {
		t.Fatalf("trace file counts differ: %d vs %d", len(want), len(got))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("trace file %s differs once cycle accounting is consumed", name)
		}
	}
}

// TestCacheReplaysLedgers requires warm cache hits — in-memory and via a
// disk round trip — to replay the recorded ledgers exactly, so a cached
// run's cycle accounting is indistinguishable from a fresh simulation.
func TestCacheReplaysLedgers(t *testing.T) {
	cfg := config.New().WithArray(8, 8).WithSRAM(4, 4, 2)
	topo := topology.TinyNet()
	opt := Options{DRAMBandwidth: 1.5}

	base := runWith(t, cfg, opt, topo)

	check := func(name string, res RunResult) {
		t.Helper()
		for i := range base.Layers {
			if res.Layers[i].Ledger == nil {
				t.Fatalf("%s: layer %d ledger missing after cache replay", name, i)
			}
			if !reflect.DeepEqual(*res.Layers[i].Ledger, *base.Layers[i].Ledger) {
				t.Errorf("%s: layer %d ledger differs:\n fresh %+v\n replay %+v",
					name, i, *base.Layers[i].Ledger, *res.Layers[i].Ledger)
			}
		}
	}

	mem := simcache.New()
	mopt := opt
	mopt.Cache = mem
	runWith(t, cfg, mopt, topo) // cold fill
	warm := runWith(t, cfg, mopt, topo)
	if mem.Stats().Hits == 0 {
		t.Fatal("warm in-memory run produced no hits")
	}
	check("memory", warm)

	dir := t.TempDir()
	c1, err := simcache.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	dopt := opt
	dopt.Cache = c1
	runWith(t, cfg, dopt, topo) // fill the disk cache
	c2, err := simcache.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	dopt.Cache = c2
	disk := runWith(t, cfg, dopt, topo)
	if c2.Stats().Hits == 0 || c2.Stats().Misses != 0 {
		t.Fatalf("disk replay: hits=%d misses=%d, want all hits", c2.Stats().Hits, c2.Stats().Misses)
	}
	check("disk", disk)
}
