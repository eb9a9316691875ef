package rtlref

import (
	"math"
	"math/rand"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

func randMat(rng *rand.Rand, r, c int) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
		for j := range m[i] {
			m[i][j] = float64(rng.Intn(19) - 9)
		}
	}
	return m
}

func matEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Abs(a[i][j]-b[i][j]) > 1e-9 {
				return false
			}
		}
	}
	return true
}

func TestRunOSComputesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		sr, sc, tt := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(8)
		a := randMat(rng, sr, tt)
		b := randMat(rng, tt, sc)
		res, err := RunOS(a, b, sr+rng.Intn(3), sc+rng.Intn(3))
		if err != nil {
			t.Fatalf("RunOS: %v", err)
		}
		if !matEqual(res.Product, MatMul(a, b)) {
			t.Fatalf("product mismatch for %dx%dx%d", sr, tt, sc)
		}
		if res.MACs != int64(sr)*int64(sc)*int64(tt) {
			t.Fatalf("MACs = %d, want %d", res.MACs, sr*sc*tt)
		}
	}
}

// TestRunOSCyclesMatchEq1 checks the golden model reproduces Eq. 1:
// tau = 2*Sr + Sc + T - 2 for a fully mapped array.
func TestRunOSCyclesMatchEq1(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		sr, sc, tt := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(10)
		a := randMat(rng, sr, tt)
		b := randMat(rng, tt, sc)
		res, err := RunOS(a, b, sr, sc)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(2*sr+sc+tt) - 2
		if res.Cycles != want {
			t.Fatalf("Sr=%d Sc=%d T=%d: cycles %d, want %d", sr, sc, tt, res.Cycles, want)
		}
	}
}

// TestRunOSMatchesScaleSim is the Fig. 4 validation in test form: the
// trace-based simulator and the RTL reference agree on cycle counts for
// matrix multiplications at full utilization across array sizes.
func TestRunOSMatchesScaleSim(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{4, 8, 16, 32} {
		a := randMat(rng, size, size)
		b := randMat(rng, size, size)
		rtl, err := RunOS(a, b, size, size)
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.New().WithArray(size, size).WithDataflow(config.OutputStationary)
		sim, err := systolic.Estimate(topology.FromGEMM("v", size, size, size), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rtl.Cycles != sim.Cycles {
			t.Errorf("size %d: RTL %d cycles, SCALE-Sim %d", size, rtl.Cycles, sim.Cycles)
		}
	}
}

// TestRunOSPartialMappingMatchesEdgeTrim: a mapping smaller than the array
// matches the simulator's edge-trim timing.
func TestRunOSPartialMappingMatchesEdgeTrim(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 3, 7)
	b := randMat(rng, 7, 5)
	rtl, err := RunOS(a, b, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.New().WithArray(8, 8)
	cfg.EdgeTrim = true
	sim, err := systolic.Estimate(topology.FromGEMM("v", 3, 7, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rtl.Cycles != sim.Cycles {
		t.Errorf("RTL %d cycles, edge-trimmed sim %d", rtl.Cycles, sim.Cycles)
	}
}

// TestPartialMappingMatchesEdgeTrim: a mapping smaller than the array in
// either dimension matches the trace simulator's edge-trim timing, from
// both its closed form (Estimate) and its cycle-driven run (Run), under
// every dataflow. For the GEMM m x k x n, OS maps m x n onto the array and
// streams k; WS maps the reduction k onto the rows and the n filters onto
// the columns and streams m; IS maps k x m (the windows) and streams n.
func TestPartialMappingMatchesEdgeTrim(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 40; trial++ {
		m, k, n := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		for _, df := range []config.Dataflow{config.OutputStationary, config.WeightStationary, config.InputStationary} {
			var rtl Result
			var err error
			var rows, cols int
			switch df {
			case config.OutputStationary:
				rows, cols = m+rng.Intn(5), n+rng.Intn(5)
				rtl, err = RunOS(randMat(rng, m, k), randMat(rng, k, n), rows, cols)
			case config.WeightStationary:
				rows, cols = k+rng.Intn(5), n+rng.Intn(5)
				rtl, err = RunWS(randMat(rng, m, k), randMat(rng, k, n), rows, cols)
			default:
				rows, cols = k+rng.Intn(5), m+rng.Intn(5)
				rtl, err = RunIS(randMat(rng, n, k), randMat(rng, k, m), rows, cols)
			}
			if err != nil {
				t.Fatal(err)
			}
			cfg := config.New().WithArray(rows, cols).WithDataflow(df)
			cfg.EdgeTrim = true
			l := topology.FromGEMM("v", m, k, n)
			est, err := systolic.Estimate(l, cfg)
			if err != nil {
				t.Fatal(err)
			}
			run, err := systolic.Run(l, cfg, systolic.Sinks{})
			if err != nil {
				t.Fatal(err)
			}
			if rtl.Cycles != est.Cycles || rtl.Cycles != run.Cycles {
				t.Errorf("%v m=%d k=%d n=%d on %dx%d: RTL %d cycles, edge-trimmed Estimate %d, Run %d",
					df, m, k, n, rows, cols, rtl.Cycles, est.Cycles, run.Cycles)
			}
		}
	}
}

func TestRunWSComputesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		k, n, m := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(8)
		a := randMat(rng, m, k) // streaming operand, T x Sr
		b := randMat(rng, k, n) // stationary operand, Sr x Sc
		res, err := RunWS(a, b, k+rng.Intn(3), n+rng.Intn(3))
		if err != nil {
			t.Fatalf("RunWS: %v", err)
		}
		if !matEqual(res.Product, MatMul(a, b)) {
			t.Fatalf("WS product mismatch for m=%d k=%d n=%d", m, k, n)
		}
		if res.MACs != int64(m)*int64(k)*int64(n) {
			t.Fatalf("MACs = %d", res.MACs)
		}
	}
}

// TestRunWSCyclesMatchEq1: the WS golden model also satisfies
// tau = 2*Sr + Sc + T - 2 on a fully mapped array (the paper shows the same
// expression holds for all three dataflows).
func TestRunWSCyclesMatchEq1(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		k, n, m := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(10)
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		res, err := RunWS(a, b, k, n)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(2*k+n+m) - 2
		if res.Cycles != want {
			t.Fatalf("Sr=%d Sc=%d T=%d: cycles %d, want %d", k, n, m, res.Cycles, want)
		}
	}
}

// TestWSMatchesScaleSim cross-validates the WS dataflow against the
// trace-based simulator at full utilization.
func TestWSMatchesScaleSim(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{4, 8, 16} {
		a := randMat(rng, size, size)
		b := randMat(rng, size, size)
		rtl, err := RunWS(a, b, size, size)
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.New().WithArray(size, size).WithDataflow(config.WeightStationary)
		sim, err := systolic.Estimate(topology.FromGEMM("v", size, size, size), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rtl.Cycles != sim.Cycles {
			t.Errorf("size %d: RTL WS %d cycles, SCALE-Sim %d", size, rtl.Cycles, sim.Cycles)
		}
	}
}

func TestOperandValidation(t *testing.T) {
	good := [][]float64{{1, 2}, {3, 4}}
	cases := []struct {
		name string
		f    func() error
	}{
		{"empty A", func() error { _, err := RunOS(nil, good, 4, 4); return err }},
		{"B shape", func() error { _, err := RunOS(good, [][]float64{{1}}, 4, 4); return err }},
		{"array too small", func() error { _, err := RunOS(good, good, 1, 4); return err }},
		{"ragged A", func() error {
			_, err := RunOS([][]float64{{1, 2}, {3}}, good, 4, 4)
			return err
		}},
		{"ragged B", func() error {
			_, err := RunOS(good, [][]float64{{1, 2}, {3}}, 4, 4)
			return err
		}},
		{"WS empty B", func() error { _, err := RunWS(good, nil, 4, 4); return err }},
		{"WS A mismatch", func() error { _, err := RunWS([][]float64{{1}}, good, 4, 4); return err }},
		{"WS array too small", func() error { _, err := RunWS(good, good, 1, 1); return err }},
	}
	for _, tc := range cases {
		if tc.f() == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestRunISComputesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		k, nOut, tt := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(8)
		a := randMat(rng, k, nOut) // stationary: window elements x windows
		b := randMat(rng, tt, k)   // streaming: filters x window elements
		res, err := RunIS(b, a, k+rng.Intn(2), nOut+rng.Intn(2))
		if err != nil {
			t.Fatalf("RunIS: %v", err)
		}
		if !matEqual(res.Product, MatMul(b, a)) {
			t.Fatalf("IS product mismatch k=%d n=%d t=%d", k, nOut, tt)
		}
	}
}

// TestISMatchesScaleSim cross-validates IS cycle counts against the trace
// simulator at full utilization.
func TestISMatchesScaleSim(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, size := range []int{4, 8, 16} {
		a := randMat(rng, size, size)
		b := randMat(rng, size, size)
		rtl, err := RunIS(b, a, size, size)
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.New().WithArray(size, size).WithDataflow(config.InputStationary)
		sim, err := systolic.Estimate(topology.FromGEMM("v", size, size, size), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rtl.Cycles != sim.Cycles {
			t.Errorf("size %d: RTL IS %d cycles, SCALE-Sim %d", size, rtl.Cycles, sim.Cycles)
		}
	}
}

func TestRunISValidation(t *testing.T) {
	good := [][]float64{{1, 2}, {3, 4}}
	if _, err := RunIS(good, nil, 4, 4); err == nil {
		t.Error("empty stationary accepted")
	}
	if _, err := RunIS([][]float64{{1}}, good, 4, 4); err == nil {
		t.Error("mismatched stream accepted")
	}
}
