package rtlref

import (
	"math/rand"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

// edgeTrimCycles is the trace simulator's cycle count for the GEMM
// m x k x n on an R x C array under df, charging each partial fold only
// for the rows and columns it uses — the timing a sequence of reference
// folds, each sized to its tile, has.
func edgeTrimCycles(t *testing.T, df config.Dataflow, m, k, n, R, C int) int64 {
	t.Helper()
	cfg := config.New().WithArray(R, C).WithDataflow(df)
	cfg.EdgeTrim = true
	res, err := systolic.Run(topology.FromGEMM("v", m, k, n), cfg, systolic.Sinks{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Cycles
}

// TestFoldedOSNumerics verifies the simulator's fold decomposition is
// sound: executing a GEMM larger than the array as the sequence of OS
// folds the trace engine schedules (tiles of the output space, each
// reducing the full T dimension) reassembles into exactly the direct
// matrix product, with every MAC executed once, and the folds' reference
// cycles add up to the trace simulator's.
func TestFoldedOSNumerics(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		m, k, n := 1+rng.Intn(64), 1+rng.Intn(64), 1+rng.Intn(64)
		R, C := 1+rng.Intn(16), 1+rng.Intn(16)
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)

		out := make([][]float64, m)
		for i := range out {
			out[i] = make([]float64, n)
		}
		var totalCycles, totalMACs int64
		for fr := 0; fr < m; fr += R {
			rows := min(R, m-fr)
			for fc := 0; fc < n; fc += C {
				cols := min(C, n-fc)
				subB := make([][]float64, k)
				for t0 := range subB {
					subB[t0] = b[t0][fc : fc+cols]
				}
				res, err := RunOS(a[fr:fr+rows], subB, R, C)
				if err != nil {
					t.Fatal(err)
				}
				totalCycles += res.Cycles
				totalMACs += res.MACs
				for i := 0; i < rows; i++ {
					copy(out[fr+i][fc:fc+cols], res.Product[i])
				}
			}
		}
		if !matEqual(out, MatMul(a, b)) {
			t.Fatalf("trial %d: folded product differs (m=%d k=%d n=%d array %dx%d)",
				trial, m, k, n, R, C)
		}
		if totalMACs != int64(m)*int64(k)*int64(n) {
			t.Fatalf("trial %d: folded MACs %d, want %d", trial, totalMACs, m*k*n)
		}
		if sim := edgeTrimCycles(t, config.OutputStationary, m, k, n, R, C); totalCycles != sim {
			t.Fatalf("trial %d (m=%d k=%d n=%d on %dx%d): folds take %d cycles, edge-trimmed Run %d",
				trial, m, k, n, R, C, totalCycles, sim)
		}
	}
}

// foldStationary runs stream (T x Sr) against stationary (Sr x Sc) on an
// R x C array as the folds WS and IS schedule: tiles of the stationary
// operand, folding along the reduction dimension Sr producing partial sums
// that must be accumulated — exactly why the simulator re-writes each
// output once per row fold. It returns the T x Sc product and the folds'
// summed cycles and MACs.
func foldStationary(t *testing.T, run func(stream, stat [][]float64, rows, cols int) (Result, error),
	stream, stat [][]float64, R, C int) (out [][]float64, cycles, macs int64) {
	t.Helper()
	sr, sc := len(stat), len(stat[0])
	out = make([][]float64, len(stream))
	for i := range out {
		out[i] = make([]float64, sc)
	}
	for fr := 0; fr < sr; fr += R {
		rows := min(R, sr-fr)
		for fc := 0; fc < sc; fc += C {
			cols := min(C, sc-fc)
			subA := make([][]float64, len(stream))
			for t0 := range subA {
				subA[t0] = stream[t0][fr : fr+rows]
			}
			subB := make([][]float64, rows)
			for i := range subB {
				subB[i] = stat[fr+i][fc : fc+cols]
			}
			res, err := run(subA, subB, R, C)
			if err != nil {
				t.Fatal(err)
			}
			cycles += res.Cycles
			macs += res.MACs
			for t0, row := range res.Product {
				for j, v := range row {
					out[t0][fc+j] += v // accumulate partials
				}
			}
		}
	}
	return out, cycles, macs
}

// transpose returns m's transpose.
func transpose(m [][]float64) [][]float64 {
	out := make([][]float64, len(m[0]))
	for j := range out {
		out[j] = make([]float64, len(m))
		for i := range m {
			out[j][i] = m[i][j]
		}
	}
	return out
}

// TestFoldedWSNumerics verifies the WS and IS fold decompositions of the
// GEMM m x k x n. WS maps the reduction k onto the rows and the n filters
// onto the columns and streams the m output rows; IS maps k x m (the
// windows) and streams the n filters, producing the product's transpose.
// Both reassemble the direct product, execute every MAC once, and take
// the trace simulator's edge-trimmed cycles over their folds.
func TestFoldedWSNumerics(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 30; trial++ {
		m, k, n := 1+rng.Intn(64), 1+rng.Intn(64), 1+rng.Intn(64)
		R, C := 1+rng.Intn(16), 1+rng.Intn(16)
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		want := MatMul(a, b)
		for _, c := range []struct {
			df           config.Dataflow
			run          func(stream, stat [][]float64, rows, cols int) (Result, error)
			stream, stat [][]float64
			want         [][]float64
		}{
			{config.WeightStationary, RunWS, a, b, want},
			{config.InputStationary, RunIS, transpose(b), transpose(a), transpose(want)},
		} {
			out, cycles, macs := foldStationary(t, c.run, c.stream, c.stat, R, C)
			if !matEqual(out, c.want) {
				t.Fatalf("trial %d: %v folded product differs (m=%d k=%d n=%d array %dx%d)",
					trial, c.df, m, k, n, R, C)
			}
			if macs != int64(m)*int64(k)*int64(n) {
				t.Fatalf("trial %d: %v folded MACs %d, want %d", trial, c.df, macs, m*k*n)
			}
			if sim := edgeTrimCycles(t, c.df, m, k, n, R, C); cycles != sim {
				t.Fatalf("trial %d: %v (m=%d k=%d n=%d on %dx%d): folds take %d cycles, edge-trimmed Run %d",
					trial, c.df, m, k, n, R, C, cycles, sim)
			}
		}
	}
}
