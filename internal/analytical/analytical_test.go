package analytical

import (
	"math/rand"
	"sort"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/dataflow"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

func m(sr, t, sc int64) dataflow.Mapping {
	return dataflow.Mapping{Dataflow: config.OutputStationary, Sr: sr, Sc: sc, T: t}
}

func TestEquations(t *testing.T) {
	w := m(16, 12, 5)
	if got := MinRuntime(w); got != 2*16+5+12-2 {
		t.Errorf("MinRuntime = %d", got)
	}
	if got := FoldRuntime(4, 3, 12); got != 2*4+3+12-2 {
		t.Errorf("FoldRuntime = %d", got)
	}
	// Eq.4: folds ceil(16/4)=4, ceil(5/3)=2.
	if got := Runtime(w, 4, 3); got != FoldRuntime(4, 3, 12)*4*2 {
		t.Errorf("Runtime = %d", got)
	}
	// Exactly fitting array reduces Eq.4 to Eq.1.
	if Runtime(w, 16, 5) != MinRuntime(w) {
		t.Error("exact-fit Runtime != MinRuntime")
	}
	// Eq.5.
	pw := PartitionWorkload(w, 2, 2)
	if pw.Sr != 8 || pw.Sc != 3 || pw.T != 12 {
		t.Errorf("PartitionWorkload = %+v", pw)
	}
	// Eq.6 equals Eq.4 of the partition workload.
	if ScaleOutRuntime(w, 2, 2, 4, 3) != Runtime(pw, 4, 3) {
		t.Error("ScaleOutRuntime mismatch")
	}
}

// TestRuntimeMatchesSimulator: the analytical model and the cycle-accurate
// simulator agree exactly on stall-free runtime (the design invariant).
func TestRuntimeMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		l := topology.FromGEMM("g", 1+rng.Intn(100), 1+rng.Intn(100), 1+rng.Intn(100))
		df := config.Dataflows[rng.Intn(3)]
		r, c := 1+rng.Intn(16), 1+rng.Intn(16)
		cfg := config.New().WithArray(r, c).WithDataflow(df)
		sim, err := systolic.Estimate(l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mm := dataflow.Map(l, df)
		if got := Runtime(mm, int64(r), int64(c)); got != sim.Cycles {
			t.Fatalf("layer %v %v on %dx%d: analytical %d != simulated %d",
				l.Name, df, r, c, got, sim.Cycles)
		}
	}
}

func TestDivisors(t *testing.T) {
	cases := map[int64][]int64{
		1:  {1},
		12: {1, 2, 3, 4, 6, 12},
		16: {1, 2, 4, 8, 16},
		17: {1, 17},
	}
	for n, want := range cases {
		got := Divisors(n)
		if len(got) != len(want) {
			t.Errorf("Divisors(%d) = %v", n, got)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("Divisors(%d) = %v, want %v", n, got, want)
				break
			}
		}
	}
	if Divisors(0) != nil || Divisors(-4) != nil {
		t.Error("Divisors of non-positive n should be nil")
	}
}

func TestShapes(t *testing.T) {
	shapes := Shapes(64, 1)
	if len(shapes) != 7 { // 1x64 ... 64x1
		t.Errorf("Shapes(64,1) has %d entries", len(shapes))
	}
	for _, s := range shapes {
		if s.MACs() != 64 {
			t.Errorf("shape %v has %d MACs", s, s.MACs())
		}
	}
	shapes8 := Shapes(64, 8)
	if len(shapes8) != 1 || shapes8[0] != (Shape{8, 8}) {
		t.Errorf("Shapes(64,8) = %v", shapes8)
	}
	if got := Shapes(64, 16); got != nil {
		t.Errorf("Shapes(64,16) = %v, want none", got)
	}
}

func TestEnumerateConfigs(t *testing.T) {
	configs := EnumerateConfigs(256, 8, 0)
	seen := make(map[string]bool)
	for _, c := range configs {
		if c.MACs() != 256 {
			t.Fatalf("config %v has %d MACs", c, c.MACs())
		}
		if c.Shape.R < 8 || c.Shape.C < 8 {
			t.Fatalf("config %v violates minDim", c)
		}
		key := c.String()
		if seen[key] {
			t.Fatalf("duplicate config %v", c)
		}
		seen[key] = true
	}
	// 256 MACs, minDim 8: per-partition sizes 64 (8x8), 128 (8x16, 16x8), 256
	// (8x32,16x16,32x8). Partitions: P=4 (1x4,2x2,4x1) x 1 shape, P=2
	// (1x2,2x1) x 2 shapes, P=1 x 3 shapes -> 3 + 4 + 3 = 10.
	if len(configs) != 10 {
		t.Errorf("len(configs) = %d, want 10", len(configs))
	}

	limited := EnumerateConfigs(256, 8, 2)
	for _, c := range limited {
		if c.Parts.Count() > 2 {
			t.Errorf("maxParts violated: %v", c)
		}
	}
}

func TestEvaluateUtilizationBounds(t *testing.T) {
	w := m(100, 30, 40)
	for _, c := range EnumerateConfigs(1024, 8, 0) {
		e := Evaluate(w, c)
		if e.MappingUtilization <= 0 || e.MappingUtilization > 1 {
			t.Fatalf("%v: mapping util %v", c, e.MappingUtilization)
		}
		if e.ComputeUtilization <= 0 || e.ComputeUtilization > 1 {
			t.Fatalf("%v: compute util %v", c, e.ComputeUtilization)
		}
		if e.Cycles < MinRuntime(PartitionWorkload(w, c.Parts.Pr, c.Parts.Pc)) {
			t.Fatalf("%v: cycles below the unlimited-MAC bound", c)
		}
	}
}

func TestBestScaleUpPicksOptimum(t *testing.T) {
	w := m(1000, 50, 64)
	best, ok := BestScaleUp(w, 1024, 1)
	if !ok {
		t.Fatal("no scale-up config found")
	}
	if !best.Config.Monolithic() {
		t.Fatalf("scale-up best is partitioned: %v", best.Config)
	}
	// Exhaustive check.
	for _, s := range Shapes(1024, 1) {
		if got := Runtime(w, s.R, s.C); got < best.Cycles {
			t.Fatalf("shape %v beats reported best (%d < %d)", s, got, best.Cycles)
		}
	}
	if _, ok := BestScaleUp(w, 64, 16); ok {
		t.Error("BestScaleUp found config despite impossible minDim")
	}
}

func TestBestScaleOutBeatsOrMatchesScaleUp(t *testing.T) {
	// The paper's core observation: the best partitioned configuration is
	// never slower than the best monolithic one (Fig. 10).
	workloads := []dataflow.Mapping{
		m(31999, 84, 1024), // TF0
		m(128, 4096, 2048), // GNMT0
		m(3136, 64, 256),   // a ResNet-ish conv
	}
	for _, w := range workloads {
		for _, macs := range []int64{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
			up, okUp := BestScaleUp(w, macs, 8)
			out, okOut := BestScaleOut(w, macs, 8, 0)
			if !okUp {
				t.Fatalf("no scale-up config for %d MACs", macs)
			}
			if macs <= 64*2 && !okOut {
				continue // too small to partition under minDim
			}
			if !okOut {
				t.Fatalf("no scale-out config for %d MACs", macs)
			}
			if out.Cycles > up.Cycles {
				t.Errorf("workload %+v macs %d: best scale-out %d slower than scale-up %d",
					w, macs, out.Cycles, up.Cycles)
			}
			if out.Config.Monolithic() {
				t.Errorf("BestScaleOut returned monolithic config %v", out.Config)
			}
		}
	}
}

func TestBestOverallIsGlobalMin(t *testing.T) {
	w := m(317, 45, 129)
	best, ok := BestOverall(w, 4096, 8, 0)
	if !ok {
		t.Fatal("no config")
	}
	for _, c := range EnumerateConfigs(4096, 8, 0) {
		if e := Evaluate(w, c); e.Cycles < best.Cycles {
			t.Fatalf("%v beats BestOverall (%d < %d)", c, e.Cycles, best.Cycles)
		}
	}
}

// TestSortEvals: the model's tie-break orders evaluations fastest first.
func TestSortEvals(t *testing.T) {
	w := m(100, 10, 100)
	var evals []Eval
	for _, c := range EnumerateConfigs(256, 8, 0) {
		evals = append(evals, Evaluate(w, c))
	}
	sort.Slice(evals, func(i, j int) bool { return better(evals[i], evals[j]) })
	for i := 1; i < len(evals); i++ {
		if evals[i].Cycles < evals[i-1].Cycles {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

// TestAspectRatioMatters reproduces the Fig. 9(b-c) observation that runtime
// across aspect ratios of the same MAC budget varies by large factors.
func TestAspectRatioMatters(t *testing.T) {
	tf0 := m(31999, 84, 1024)
	var lo, hi int64
	for i, s := range Shapes(1<<14, 1) {
		cy := Runtime(tf0, s.R, s.C)
		if i == 0 || cy < lo {
			lo = cy
		}
		if i == 0 || cy > hi {
			hi = cy
		}
	}
	if float64(hi)/float64(lo) < 10 {
		t.Errorf("aspect-ratio runtime spread only %.1fx, expected order(s) of magnitude",
			float64(hi)/float64(lo))
	}
}

func TestShapeHelpers(t *testing.T) {
	s := Shape{16, 64}
	if s.String() != "16x64" {
		t.Errorf("String = %q", s.String())
	}
	p := Partitioning{2, 4}
	if p.Count() != 8 || p.String() != "2x4" {
		t.Errorf("Partitioning helpers: %d %q", p.Count(), p.String())
	}
	c := SystemConfig{Parts: p, Shape: s}
	if c.MACs() != 8*1024 || c.Monolithic() {
		t.Errorf("SystemConfig helpers: %d %v", c.MACs(), c.Monolithic())
	}
}
