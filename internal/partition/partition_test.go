package partition

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/dataflow"
	"scalesim/internal/obsv"
	"scalesim/internal/simcache"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

func testLayer() topology.Layer {
	return topology.Layer{Name: "conv", IfmapH: 14, IfmapW: 14, FilterH: 3,
		FilterW: 3, Channels: 8, NumFilters: 24, Stride: 1}
}

func spec(pr, pc, r, c int64) Spec {
	return Spec{Parts: analytical.Partitioning{Pr: pr, Pc: pc}, Shape: analytical.Shape{R: r, C: c}}
}

func TestMonolithicMatchesSystolic(t *testing.T) {
	l := testLayer()
	base := config.New().WithSRAM(16, 16, 8)
	res, err := Run(l, base, spec(1, 1, 16, 16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := systolic.Estimate(l, base.WithArray(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != direct.Cycles {
		t.Errorf("monolithic Cycles = %d, want %d", res.Cycles, direct.Cycles)
	}
	if res.Node.Compute.MACs != direct.MACs {
		t.Errorf("MACs = %d, want %d", res.Node.Compute.MACs, direct.MACs)
	}
	if (res.Node.Memory.IfmapSRAMReads + res.Node.Memory.FilterSRAMReads) != direct.IfmapReads+direct.FilterReads {
		t.Errorf("SRAMReads = %d, want %d", (res.Node.Memory.IfmapSRAMReads + res.Node.Memory.FilterSRAMReads), direct.IfmapReads+direct.FilterReads)
	}
	if res.Node.Memory.OfmapSRAMWrites != direct.OfmapWrites {
		t.Errorf("SRAMWrites = %d", res.Node.Memory.OfmapSRAMWrites)
	}
	if res.ActivePartitions != 1 {
		t.Errorf("ActivePartitions = %d", res.ActivePartitions)
	}
}

// TestPartitioningSpeedsUpAndCostsBandwidth is Fig. 11's shape as a test:
// with equal MACs, more partitions reduce runtime but increase DRAM traffic.
func TestPartitioningSpeedsUpAndCostsBandwidth(t *testing.T) {
	l := testLayer()
	base := config.New().WithSRAM(4, 4, 2) // small SRAM so reuse loss shows
	mono, err := Run(l, base, spec(1, 1, 32, 32), Options{})
	if err != nil {
		t.Fatal(err)
	}
	part, err := Run(l, base, spec(2, 2, 16, 16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if part.Cycles >= mono.Cycles {
		t.Errorf("partitioned %d cycles not faster than monolithic %d", part.Cycles, mono.Cycles)
	}
	if part.Node.Compute.MACs != mono.Node.Compute.MACs {
		t.Errorf("useful work changed: %d vs %d", part.Node.Compute.MACs, mono.Node.Compute.MACs)
	}
	if part.Node.Memory.DRAMReads() < mono.Node.Memory.DRAMReads() {
		t.Errorf("partitioned DRAM reads %d below monolithic %d (reuse should be lost)",
			part.Node.Memory.DRAMReads(), mono.Node.Memory.DRAMReads())
	}
	if part.AvgDRAMBW() <= mono.AvgDRAMBW() {
		t.Errorf("partitioned BW %v not above monolithic %v", part.AvgDRAMBW(), mono.AvgDRAMBW())
	}
}

func TestRunValidation(t *testing.T) {
	l := testLayer()
	base := config.New()
	cases := []Spec{
		spec(0, 1, 8, 8),
		spec(1, 0, 8, 8),
		spec(1, 1, 0, 8),
		spec(1, 1, 8, -1),
	}
	for _, s := range cases {
		if _, err := Run(l, base, s, Options{}); err == nil {
			t.Errorf("Run accepted %v", s)
		}
	}
	bad := l
	bad.Channels = 0
	if _, err := Run(bad, base, spec(1, 1, 8, 8), Options{}); err == nil {
		t.Error("Run accepted invalid layer")
	}
}

func TestOverPartitioningSkipsIdleParts(t *testing.T) {
	// GEMM with Sc=2 but 4 column partitions: half the grid has no work.
	l := topology.FromGEMM("g", 64, 16, 2)
	base := config.New().WithSRAM(2, 2, 2)
	res, err := Run(l, base, spec(1, 4, 8, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ActivePartitions != 2 {
		t.Errorf("ActivePartitions = %d, want 2", res.ActivePartitions)
	}
	if res.Node.Compute.MACs != l.MACOps() {
		t.Errorf("MACs = %d, want %d", res.Node.Compute.MACs, l.MACOps())
	}
}

func TestEnergyAccounting(t *testing.T) {
	l := testLayer()
	base := config.New().WithSRAM(8, 8, 4)
	res, err := Run(l, base, spec(2, 2, 8, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Array energy = spec MACs x cycles with the default model.
	wantArray := float64(res.Spec.MACs()) * float64(res.Cycles)
	if res.Node.Energy.Array != wantArray {
		t.Errorf("Energy.Array = %v, want %v", res.Node.Energy.Array, wantArray)
	}
	if res.Node.Energy.SRAM != float64((res.Node.Memory.IfmapSRAMReads+res.Node.Memory.FilterSRAMReads)+res.Node.Memory.OfmapSRAMWrites)*6 {
		t.Errorf("Energy.SRAM = %v", res.Node.Energy.SRAM)
	}
	if res.Node.Energy.DRAM != float64(res.Node.Memory.DRAMReads()+res.Node.Memory.OfmapDRAMWrites)*200 {
		t.Errorf("Energy.DRAM = %v", res.Node.Energy.DRAM)
	}
}

func TestBestSpec(t *testing.T) {
	m := dataflow.Mapping{Dataflow: config.OutputStationary, Sr: 1000, Sc: 64, T: 50}
	s, ok := BestSpec(m, 1024, 4, 8)
	if !ok {
		t.Fatal("no spec")
	}
	if s.MACs() != 1024 || s.Parts.Count() != 4 {
		t.Errorf("spec = %v", s)
	}
	// Exhaustive optimality check.
	best := analytical.ScaleOutRuntime(m, s.Parts.Pr, s.Parts.Pc, s.Shape.R, s.Shape.C)
	for _, pr := range analytical.Divisors(4) {
		for _, sh := range analytical.Shapes(256, 8) {
			cy := analytical.ScaleOutRuntime(m, pr, 4/pr, sh.R, sh.C)
			if cy < best {
				t.Errorf("(%d parts, %v) beats BestSpec", pr, sh)
			}
		}
	}
	if _, ok := BestSpec(m, 1024, 3, 8); ok {
		t.Error("BestSpec accepted non-dividing partition count")
	}
	if _, ok := BestSpec(m, 64, 4, 8); ok {
		t.Error("BestSpec accepted infeasible minDim")
	}
	if _, ok := BestSpec(m, 64, 0, 8); ok {
		t.Error("BestSpec accepted zero partitions")
	}
}

func TestSweep(t *testing.T) {
	l := testLayer()
	base := config.New().WithSRAM(8, 8, 4)
	out, err := Sweep([]Series{{Name: "conv", Layer: l, MACs: 1024, Parts: []int64{1, 2, 4, 8, 16, 3}}}, base, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 does not divide 1024; 16 partitions of 64 MACs = 8x8 works.
	results := out[0]
	if len(out) != 1 || len(results) != 5 {
		t.Fatalf("%d series, %d results, want 1 and 5", len(out), len(results))
	}
	// Runtime must be non-increasing with partitions for this layer.
	for i := 1; i < len(results); i++ {
		if results[i].Cycles > results[i-1].Cycles {
			t.Errorf("sweep runtime increased at %v: %d > %d",
				results[i].Spec, results[i].Cycles, results[i-1].Cycles)
		}
	}
	if _, err := Sweep([]Series{{Name: "conv", Layer: l, MACs: 64, Parts: []int64{4}}}, base, 8, Options{}); err == nil {
		t.Error("Sweep succeeded with no feasible point")
	}
	bad := l
	bad.Stride = 0
	if _, err := Sweep([]Series{{Name: "bad", Layer: bad, MACs: 1024, Parts: []int64{1}}}, base, 8, Options{}); err == nil {
		t.Error("Sweep accepted invalid layer")
	}
}

// TestSweepMatchesRun: a sweep returns, per series, exactly what the
// point's solo core run returns (Run's path, its unit named after the
// point) on BestSpec's pick for each feasible count, ledger and energy
// included, with infeasible counts interleaved among feasible ones — at one
// worker and at GOMAXPROCS.
func TestSweepMatchesRun(t *testing.T) {
	counts := []int64{0, 3, 1, 4, 16}
	base := config.New().WithSRAM(8, 8, 4)
	series := []Series{
		{Name: "conv@1024MACs", Layer: testLayer(), MACs: 1024, Parts: counts},
		{Name: "gemm@4096MACs", Layer: topology.FromGEMM("gemm", 64, 128, 64), MACs: 4096, Parts: counts},
	}
	want := make([][]Result, len(series))
	for i, s := range series {
		m := dataflow.Map(s.Layer, base.Dataflow)
		for _, p := range counts {
			spec, ok := BestSpec(m, s.MACs, p, 8)
			if !ok {
				continue
			}
			pt, err := newPoint(fmt.Sprintf("%s/%dparts", s.Name, p), s.Layer, base, spec, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			res, err := pt.Simulate()
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], resultOf(pt, spec, res))
		}
		if len(want[i]) != 3 {
			t.Fatalf("%s: %d feasible counts, want 3", s.Name, len(want[i]))
		}
	}
	for _, parallel := range []int{1, 0} {
		got, err := Sweep(series, base, 8, Options{Workers: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Parallel %d: Sweep differs from per-point Run", parallel)
		}
	}
}

// TestSweepRefusesBeforeRunning: a series with no feasible count fails the
// whole sweep before any point runs, naming its layer and budget: no unit,
// no span and no progress line.
func TestSweepRefusesBeforeRunning(t *testing.T) {
	rec := obsv.NewRecorder()
	var progress bytes.Buffer
	series := []Series{
		{Name: "conv@1024MACs", Layer: testLayer(), MACs: 1024, Parts: []int64{4, 16}},
		{Name: "gemm@64MACs", Layer: topology.FromGEMM("gemm", 64, 128, 64), MACs: 64, Parts: []int64{4, 16}},
	}
	_, err := Sweep(series, config.New(), 8,
		Options{Obs: rec, Progress: obsv.NewProgress(&progress, "sweep")})
	want := "partition: gemm: no feasible partitioning of 64 MACs (minDim 8)"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if s, m := rec.LayerSeconds(0), len(rec.Spans()); s != 0 || m != 0 || progress.Len() != 0 {
		t.Errorf("ran before the refusal: unit 0 took %vs, %d spans, progress %q", s, m, progress.String())
	}
}

// cancelOnWrite cancels its context on the first progress line.
type cancelOnWrite struct{ cancel context.CancelFunc }

func (w cancelOnWrite) Write(p []byte) (int, error) { w.cancel(); return len(p), nil }

// TestSweepCancelled: Options.Context reaches every context of the plan,
// so a context cancelled once the first point is done fails the second
// point, whose windows replay the first's, with context.Canceled, naming
// it, before it records a unit.
func TestSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := obsv.NewRecorder()
	series := []Series{
		{Name: "first", Layer: testLayer(), MACs: 256, Parts: []int64{4}},
		{Name: "second", Layer: testLayer(), MACs: 256, Parts: []int64{4}},
	}
	_, err := Sweep(series, config.New(), 8, Options{Context: ctx, Obs: rec,
		Progress: obsv.NewProgress(cancelOnWrite{cancel}, "points")})
	if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "partition: second/4parts: ") {
		t.Fatalf("err = %v, want context.Canceled on the second point", err)
	}
	if rec.LayerSeconds(0) == 0 || rec.LayerSeconds(1) != 0 {
		t.Errorf("unit wall times %v, %v: want the first point only", rec.LayerSeconds(0), rec.LayerSeconds(1))
	}
}

// TestSRAMShareDivides: partition SRAM is the budget divided by P with a
// 1 KiB floor, and a partition's cache key is core's key of its window on
// that share, byte for byte, so cache directories written by earlier
// builds stay warm.
func TestSRAMShareDivides(t *testing.T) {
	l := testLayer()
	base := config.New().WithSRAM(512, 2, 256)
	cache := simcache.New()
	if _, err := Run(l, base, spec(1, 4, 8, 8), Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	share := base.WithArray(8, 8).WithSRAM(128, 1, 64)
	m := dataflow.Map(l, base.Dataflow)
	key := fmt.Sprintf("core|%s|%s|w0,0,%d,%d|sb=false;win=0",
		share.CanonicalKey(), topology.NodeOf(l).Key(), m.Sr, (m.Sc+3)/4)
	if !strings.Contains(key, ";s128/1/64;") {
		t.Fatalf("share config key %q", key)
	}
	if _, ok := cache.Get(key); !ok {
		t.Errorf("no entry under %q", key)
	}
}

func TestParallelDeterminism(t *testing.T) {
	l := testLayer()
	base := config.New().WithSRAM(4, 4, 2)
	s := spec(2, 4, 8, 8)
	serial, err := Run(l, base, s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(l, base, s, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel run differs:\n serial   %+v\n parallel %+v", serial, parallel)
	}
}
