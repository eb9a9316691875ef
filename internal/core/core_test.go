package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/engine"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
)

func newSim(t *testing.T, cfg config.Config, opt Options) *Simulator {
	t.Helper()
	s, err := New(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidates(t *testing.T) {
	if _, err := New(config.New().WithArray(0, 1), Options{}); err == nil {
		t.Error("accepted invalid config")
	}
	if _, err := New(config.New(), Options{DRAM: &dram.Config{}}); err == nil {
		t.Error("accepted invalid dram config")
	}
	if s := newSim(t, config.New(), Options{}); s.cfg.ArrayHeight != config.DefaultArrayHeight {
		t.Error("New lost the configuration")
	}
}

func TestSimulateLayerConsistency(t *testing.T) {
	cfg := config.New().WithArray(8, 8).WithSRAM(4, 4, 2)
	s := newSim(t, cfg, Options{})
	l := topology.TinyNet().Layers[0]
	lr, err := s.SimulateLayer(l)
	if err != nil {
		t.Fatal(err)
	}
	want, err := systolic.Estimate(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Compute.Cycles != want.Cycles {
		t.Errorf("Cycles = %d, want %d", lr.Compute.Cycles, want.Cycles)
	}
	if lr.Memory.IfmapSRAMReads != want.IfmapReads {
		t.Errorf("IfmapSRAMReads = %d, want %d", lr.Memory.IfmapSRAMReads, want.IfmapReads)
	}
	// All outputs eventually reach DRAM (OS dataflow writes each once).
	if lr.Memory.OfmapDRAMWrites != l.OfmapWords() {
		t.Errorf("OfmapDRAMWrites = %d, want %d", lr.Memory.OfmapDRAMWrites, l.OfmapWords())
	}
	// DRAM reads at least cover each distinct input/filter element once.
	if lr.Memory.IfmapDRAMReads < l.IfmapWords() {
		t.Errorf("IfmapDRAMReads = %d < %d distinct words", lr.Memory.IfmapDRAMReads, l.IfmapWords())
	}
	if lr.Memory.FilterDRAMReads < l.FilterWords() {
		t.Errorf("FilterDRAMReads = %d < %d", lr.Memory.FilterDRAMReads, l.FilterWords())
	}
	if lr.Energy.Total() <= 0 {
		t.Error("non-positive energy")
	}
	if lr.DRAMStats != nil {
		t.Error("DRAMStats set without a DRAM model")
	}
}

func TestSimulateTopology(t *testing.T) {
	cfg := config.New().WithArray(8, 8).WithSRAM(4, 4, 2)
	s := newSim(t, cfg, Options{})
	topo := topology.TinyNet()
	run, err := s.Simulate(topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Layers) != len(topo.Layers) {
		t.Fatalf("layers = %d", len(run.Layers))
	}
	var cycles, macs int64
	for _, lr := range run.Layers {
		cycles += lr.Compute.Cycles
		macs += lr.Compute.MACs
	}
	if run.TotalCycles != cycles || run.TotalMACs != macs {
		t.Errorf("totals %d/%d, want %d/%d", run.TotalCycles, run.TotalMACs, cycles, macs)
	}
	if run.TotalMACs != topo.TotalMACOps() {
		t.Errorf("TotalMACs = %d, want %d", run.TotalMACs, topo.TotalMACOps())
	}
	if run.AvgBandwidth() <= 0 {
		t.Error("AvgBandwidth <= 0")
	}
	if run.DRAMReads() <= 0 || run.DRAMWrites() <= 0 {
		t.Error("DRAM totals not positive")
	}
	if got := run.TotalEnergy.Total(); got <= 0 {
		t.Error("TotalEnergy <= 0")
	}

	bad := topology.Topology{Name: "bad"}
	if _, err := s.Simulate(bad); err == nil {
		t.Error("accepted empty topology")
	}
	badLayer := topology.Topology{Name: "b", Layers: []topology.Layer{{Name: "x"}}}
	if _, err := s.Simulate(badLayer); err == nil {
		t.Error("accepted invalid layer")
	}
}

func TestTraceFilesWritten(t *testing.T) {
	dir := t.TempDir()
	cfg := config.New().WithArray(4, 4).WithSRAM(1, 1, 1)
	cfg.RunName = "run/1" // exercises sanitization
	s := newSim(t, cfg, Options{TraceDir: dir})
	l := topology.TinyNet().Layers[0]
	lr, err := s.SimulateLayer(l)
	if err != nil {
		t.Fatal(err)
	}
	streams := []string{
		"sram_read_ifmap", "sram_read_filter", "sram_write_ofmap",
		"dram_read", "dram_write",
	}
	for _, stream := range streams {
		path := filepath.Join(dir, "run_1_conv1_"+stream+".csv")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", stream, err)
		}
		if len(data) == 0 {
			t.Errorf("%s: empty trace", stream)
		}
	}
	// The SRAM read trace replays to the same access count.
	f, err := os.Open(filepath.Join(dir, "run_1_conv1_sram_read_ifmap.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := trace.ParseCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Accesses() != lr.Memory.IfmapSRAMReads {
		t.Errorf("trace accesses %d != report %d", rec.Accesses(), lr.Memory.IfmapSRAMReads)
	}
}

func TestDRAMModelIntegration(t *testing.T) {
	cfgDram := dram.DDR3()
	cfg := config.New().WithArray(8, 8).WithSRAM(2, 2, 1)
	s := newSim(t, cfg, Options{DRAM: &cfgDram})
	lr, err := s.SimulateLayer(topology.TinyNet().Layers[1])
	if err != nil {
		t.Fatal(err)
	}
	if lr.DRAMStats == nil {
		t.Fatal("DRAMStats missing")
	}
	if lr.DRAMStats.Requests != lr.Memory.DRAMAccesses() {
		t.Errorf("DRAM model saw %d requests, interface moved %d words",
			lr.DRAMStats.Requests, lr.Memory.DRAMAccesses())
	}
	if lr.DRAMStats.TotalLatency <= 0 {
		t.Error("DRAM latency not positive")
	}
}

func TestTraceDirFailure(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "file")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newSim(t, config.New().WithArray(4, 4), Options{TraceDir: filepath.Join(blocked, "sub")})
	if _, err := s.SimulateLayer(topology.TinyNet().Layers[0]); err == nil {
		t.Error("SimulateLayer succeeded with unusable trace dir")
	}
}

// TestSimulateWorkersEquivalence: any worker count yields the exact
// RunResult of the sequential run, including per-layer start offsets.
func TestSimulateWorkersEquivalence(t *testing.T) {
	cfg := config.New().WithArray(8, 8).WithSRAM(4, 4, 2)
	topo := topology.TinyNet()
	seq, err := newSim(t, cfg, Options{Workers: 1}).Simulate(topo)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i, lr := range seq.Layers {
		if lr.StartCycle != want {
			t.Errorf("layer %d StartCycle = %d, want %d", i, lr.StartCycle, want)
		}
		want += lr.Compute.Cycles
	}
	for _, workers := range []int{0, 2, 4, 16} {
		par, err := newSim(t, cfg, Options{Workers: workers}).Simulate(topo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: RunResult differs from sequential run", workers)
		}
	}
}

// TestConcurrentRunsShareTables: runs of different networks on one
// Simulator at once — each sizing the residency tables it allocates for its
// own largest regions, all of them handing tables on through the
// Simulator's one spare list — report exactly what each reports alone, and
// so does a single node drawing on the same list beside windows.
func TestConcurrentRunsShareTables(t *testing.T) {
	cfg := config.New().WithArray(8, 8).WithSRAM(16, 16, 8)
	wide := topology.Topology{Name: "wide", Layers: []topology.Layer{
		{Name: "w1", IfmapH: 18, IfmapW: 18, FilterH: 3, FilterW: 3, Channels: 16, NumFilters: 24, Stride: 1},
		{Name: "w2", IfmapH: 16, IfmapW: 16, FilterH: 1, FilterW: 1, Channels: 24, NumFilters: 48, Stride: 1},
		{Name: "w3", IfmapH: 16, IfmapW: 16, FilterH: 1, FilterW: 1, Channels: 24, NumFilters: 48, Stride: 1},
	}}
	topos := []topology.Topology{topology.TinyNet(), wide}
	want := make([]RunResult, len(topos))
	for i, topo := range topos {
		var err error
		if want[i], err = newSim(t, cfg, Options{Workers: 2}).Simulate(topo); err != nil {
			t.Fatal(err)
		}
	}
	l := topos[1].Layers[0]
	wantNode := want[1].Layers[0]
	wantNode.StartCycle = 0
	sim := newSim(t, cfg, Options{Workers: 2})
	var wg sync.WaitGroup
	for i := range topos {
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := sim.Simulate(topos[i])
				if err != nil {
					t.Error(err)
				} else if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s: a run beside others differs from the run alone", topos[i].Name)
				}
			}()
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, err := sim.SimulateLayer(l)
		if err != nil {
			t.Error(err)
		} else if !reflect.DeepEqual(got, wantNode) {
			t.Errorf("layer %s simulated alone differs from its run's", l.Name)
		}
		if _, err := sim.execute(nil, windowContexts(sim, l, systolic.Window{SrLen: 4, ScLen: 4}, systolic.Window{SrOff: 4, SrLen: 4, ScLen: 4}), nil); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
}

// TestCustomSinkFactory: caller-supplied factories receive per-layer jobs
// and fresh consumers.
func TestCustomSinkFactory(t *testing.T) {
	type tap struct {
		job engine.Job
		rec *trace.Recorder
	}
	var mu sync.Mutex
	var taps []tap
	opt := Options{Sinks: engine.Registry{
		func(job engine.Job, set *engine.SinkSet) error {
			rec := &trace.Recorder{}
			set.Attach(engine.SRAMWriteOfmap, rec)
			mu.Lock()
			taps = append(taps, tap{job, rec})
			mu.Unlock()
			return nil
		},
	}, Workers: 2}
	s := newSim(t, config.New().WithArray(8, 8).WithSRAM(4, 4, 2), opt)
	topo := topology.TinyNet()
	run, err := s.Simulate(topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(taps) != len(topo.Layers) {
		t.Fatalf("factory ran %d times, want %d", len(taps), len(topo.Layers))
	}
	for _, tp := range taps {
		if tp.job.Layer == "" {
			t.Error("factory job missing layer name")
		}
		want := run.Layers[tp.job.Index].Memory.OfmapSRAMWrites
		if tp.rec.Accesses() != want {
			t.Errorf("layer %d sink saw %d writes, want %d", tp.job.Index, tp.rec.Accesses(), want)
		}
	}
}

func TestAvgBandwidthZeroCycles(t *testing.T) {
	r := RunResult{Config: config.New()}
	if r.AvgBandwidth() != 0 {
		t.Error("zero-cycle AvgBandwidth != 0")
	}
}

// TestLanguageModelLayer runs a Table IV GEMM end to end as a smoke test of
// the full stack at a realistic (small) scale.
func TestLanguageModelLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("full GEMM layer in -short mode")
	}
	topo := topology.LanguageModels()
	l, _ := topo.Layer("TF1") // 84 x 4096 x 1024
	cfg := config.New().WithArray(32, 32).WithSRAM(64, 64, 32)
	s := newSim(t, cfg, Options{})
	lr, err := s.SimulateLayer(l)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := systolic.Estimate(l, cfg)
	if lr.Compute.Cycles != want.Cycles {
		t.Errorf("Cycles = %d, want %d", lr.Compute.Cycles, want.Cycles)
	}
	if lr.Memory.AvgTotalBW() <= 0 {
		t.Error("no bandwidth measured")
	}
}

func TestBoundedBandwidthStalls(t *testing.T) {
	cfg := config.New().WithArray(8, 8).WithSRAM(2, 2, 1)
	l := topology.TinyNet().Layers[1]

	// Unbounded link: no stall accounting.
	free := newSim(t, cfg, Options{})
	lrFree, err := free.SimulateLayer(l)
	if err != nil {
		t.Fatal(err)
	}
	if lrFree.StallCycles != 0 || lrFree.StalledCycles() != lrFree.Compute.Cycles {
		t.Errorf("unbounded link reported stalls: %d", lrFree.StallCycles)
	}

	// A very fast bounded link: still no stalls.
	fast := newSim(t, cfg, Options{DRAMBandwidth: 1e9})
	lrFast, err := fast.SimulateLayer(l)
	if err != nil {
		t.Fatal(err)
	}
	if lrFast.StallCycles != 0 {
		t.Errorf("fast link stalled %d cycles", lrFast.StallCycles)
	}

	// A link much narrower than the layer's demand must stall, and the
	// stalled runtime must cover the time to move all traffic.
	demand := float64(lrFree.Memory.DRAMAccesses()) / float64(lrFree.Compute.Cycles)
	narrowBW := demand / 4
	narrow := newSim(t, cfg, Options{DRAMBandwidth: narrowBW})
	lrNarrow, err := narrow.SimulateLayer(l)
	if err != nil {
		t.Fatal(err)
	}
	if lrNarrow.StallCycles <= 0 {
		t.Fatalf("narrow link (%.2f w/c vs %.2f demand) did not stall", narrowBW, demand)
	}
	minTime := float64(lrNarrow.Memory.DRAMAccesses()) / narrowBW
	if float64(lrNarrow.StalledCycles()) < minTime-1 {
		t.Errorf("stalled runtime %d below link-limited time %.0f", lrNarrow.StalledCycles(), minTime)
	}

	// Stalls are monotone in bandwidth.
	wider := newSim(t, cfg, Options{DRAMBandwidth: narrowBW * 2})
	lrWider, err := wider.SimulateLayer(l)
	if err != nil {
		t.Fatal(err)
	}
	if lrWider.StallCycles > lrNarrow.StallCycles {
		t.Errorf("stalls rose with bandwidth: %d > %d", lrWider.StallCycles, lrNarrow.StallCycles)
	}
}

func TestNegativeBandwidthRejected(t *testing.T) {
	for _, bw := range []float64{-1, math.Inf(-1), math.Inf(1), math.NaN()} {
		if _, err := New(config.New(), Options{DRAMBandwidth: bw}); err == nil {
			t.Errorf("bandwidth %v accepted", bw)
		}
	}
}

// TestSimulateLayerPanicNamesLayer: a lone SimulateLayer runs under the
// guard a topology's layers run under, so a caller's sink that panics fails
// the call naming the layer instead of crashing through the caller.
func TestSimulateLayerPanicNamesLayer(t *testing.T) {
	boom := engine.Registry{func(_ engine.Job, set *engine.SinkSet) error {
		set.Attach(engine.SRAMWriteOfmap, trace.ConsumerFunc(func(int64, []int64) { panic("boom") }))
		return nil
	}}
	l := topology.TinyNet().Layers[0]
	sim := newSim(t, config.New().WithArray(8, 8), Options{Sinks: boom, Workers: 1})
	_, err := sim.SimulateLayer(l)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("core: layer %q panicked", l.Name)) ||
		!strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want the panic under the layer's name", err)
	}
	// A flat network's failures name layers; the same chain given as a
	// graph names nodes.
	if _, err := sim.Simulate(topology.TinyNet()); err == nil || !strings.Contains(err.Error(), `core: layer "conv1" panicked`) {
		t.Errorf("flat network: err = %v, want the panic under the layer's name", err)
	}
	if _, err := sim.SimulateGraph(topology.ChainGraph(topology.TinyNet())); err == nil || !strings.Contains(err.Error(), `core: node "conv1" panicked`) {
		t.Errorf("chain graph: err = %v, want the panic under the node's name", err)
	}
}
