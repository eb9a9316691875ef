// Package rtlref is a register-transfer-level reference model of a systolic
// array: an explicit 2D grid of processing elements with store-and-forward
// operand registers, evaluated cycle by cycle with two-phase (compute,
// latch) semantics. It stands in for the RTL implementation the paper
// validates SCALE-Sim against (Fig. 4): because it moves real data through
// real registers, both its cycle counts and its numerical results are
// ground truth for the trace-based simulator.
//
// The model executes a single fold: an S_R x T by T x S_C operand pair
// mapped onto an array with at least S_R rows and S_C columns. Multi-fold
// execution is sequential repetition of this primitive, which the
// trace-based core handles.
package rtlref

import (
	"fmt"
)

// Result is the outcome of one reference run.
type Result struct {
	// Cycles is the total cycle count from first operand entering to last
	// output leaving the array.
	Cycles int64
	// Product is the computed S_R x S_C result matrix.
	Product [][]float64
	// MACs counts multiply-accumulates actually executed.
	MACs int64
}

// RunOS executes A (Sr x T) times B (T x Sc) under the output-stationary
// dataflow on an array with rows x cols PEs. It requires Sr <= rows and
// Sc <= cols (a single fold).
//
// Operands are fed skewed from the left (A) and top (B) edges; every PE
// accumulates its own output in place; after the last PE finishes, the
// whole array drains through the bottom edge, one output per column per
// cycle (Sec. III-B1, Fig. 6a).
func RunOS(a, b [][]float64, rows, cols int) (Result, error) {
	sr, sc, tt, err := checkOperands(a, b, rows, cols)
	if err != nil {
		return Result{}, err
	}

	type pe struct {
		aReg, bReg     float64
		aValid, bValid bool
		acc            float64
		macs           int64
	}
	grid := make([][]pe, sr)
	for i := range grid {
		grid[i] = make([]pe, sc)
	}

	var cycles int64
	var macs int64
	// Compute phase: the last PE finishes at cycle (sr-1)+(sc-1)+(tt-1).
	lastCompute := int64(sr) + int64(sc) + tt - 3
	for u := int64(0); u <= lastCompute; u++ {
		// Two-phase update, in place: a PE reads only its left and upper
		// neighbours, and the descending sweep has not yet overwritten
		// either, so every read sees the previous cycle's registers.
		for i := sr - 1; i >= 0; i-- {
			for j := sc - 1; j >= 0; j-- {
				var aIn, bIn float64
				var aOK, bOK bool
				if j == 0 {
					if t := u - int64(i); t >= 0 && t < tt {
						aIn, aOK = a[i][t], true
					}
				} else {
					aIn, aOK = grid[i][j-1].aReg, grid[i][j-1].aValid
				}
				if i == 0 {
					if t := u - int64(j); t >= 0 && t < tt {
						bIn, bOK = b[t][j], true
					}
				} else {
					bIn, bOK = grid[i-1][j].bReg, grid[i-1][j].bValid
				}
				if aOK && bOK {
					grid[i][j].acc += aIn * bIn
					grid[i][j].macs++
					macs++
				}
				grid[i][j].aReg, grid[i][j].aValid = aIn, aOK
				grid[i][j].bReg, grid[i][j].bValid = bIn, bOK
			}
		}
		cycles++
	}

	// Every PE must have executed exactly T MACs.
	for i := 0; i < sr; i++ {
		for j := 0; j < sc; j++ {
			if grid[i][j].macs != tt {
				return Result{}, fmt.Errorf("rtlref: PE(%d,%d) executed %d MACs, want %d",
					i, j, grid[i][j].macs, tt)
			}
		}
	}

	// Drain phase: outputs shift down and out of the bottom edge, one per
	// column per cycle, bottom row first.
	product := make([][]float64, sr)
	for i := range product {
		product[i] = make([]float64, sc)
	}
	for k := 1; k <= sr; k++ {
		i := sr - k
		for j := 0; j < sc; j++ {
			product[i][j] = grid[i][j].acc
		}
		cycles++
	}
	return Result{Cycles: cycles, Product: product, MACs: macs}, nil
}

// RunWS executes the same product under the weight-stationary dataflow:
// B's elements are pre-filled into the array column by column (one array row
// per cycle), A streams in skewed from the left edge, and partial sums
// reduce down each column, leaving from the bottom edge (Fig. 6b).
//
// Under WS the array's spatial rows map the reduction dimension: the
// operand A is indexed [t][i] with t in [0, T) output rows and i in
// [0, Sr) reduction steps, i.e. A is T x Sr and B is Sr x Sc, producing a
// T x Sc result.
func RunWS(a, b [][]float64, rows, cols int) (Result, error) {
	if len(b) == 0 || len(b[0]) == 0 {
		return Result{}, fmt.Errorf("rtlref: empty stationary operand")
	}
	sr, sc := len(b), len(b[0])
	if len(a) == 0 || len(a[0]) != sr {
		return Result{}, fmt.Errorf("rtlref: streaming operand must be T x %d", sr)
	}
	if err := checkRows("stationary operand", b, sc); err != nil {
		return Result{}, err
	}
	if err := checkRows("streaming operand", a, sr); err != nil {
		return Result{}, err
	}
	tt := int64(len(a))
	if sr > rows || sc > cols {
		return Result{}, fmt.Errorf("rtlref: mapping %dx%d exceeds array %dx%d", sr, sc, rows, cols)
	}

	var cycles int64
	// Fill phase: one array row of weights per cycle.
	weights := make([][]float64, sr)
	for i := 0; i < sr; i++ {
		weights[i] = append([]float64(nil), b[i]...)
		cycles++
	}

	// Stream phase. A[t][i] enters row i at stream cycle i+t and reaches
	// column j at v = i+t+j, meeting the partial sum for output (t, j).
	type lane struct {
		val   float64
		valid bool
		t     int64
	}
	aRegs := make([][]lane, sr) // a operand moving right
	psum := make([][]lane, sr)  // partial sums moving down
	for i := range aRegs {
		aRegs[i] = make([]lane, sc)
		psum[i] = make([]lane, sc)
	}
	product := make([][]float64, tt)
	for t := range product {
		product[t] = make([]float64, sc)
	}
	var macs int64
	lastV := int64(sr) - 1 + tt - 1 + int64(sc) - 1
	var produced int64
	for v := int64(0); v <= lastV; v++ {
		// In place, as in RunOS: the descending sweep reads each left and
		// upper neighbour before overwriting it.
		for i := sr - 1; i >= 0; i-- {
			for j := sc - 1; j >= 0; j-- {
				var aIn lane
				if j == 0 {
					if t := v - int64(i); t >= 0 && t < tt {
						aIn = lane{val: a[t][i], valid: true, t: t}
					}
				} else {
					aIn = aRegs[i][j-1]
				}
				var pIn lane
				if i == 0 {
					pIn = lane{valid: aIn.valid, t: aIn.t} // zero seed
				} else {
					pIn = psum[i-1][j]
				}
				var pOut lane
				if aIn.valid && pIn.valid {
					if aIn.t != pIn.t {
						panic(fmt.Sprintf("rtlref: misaligned wavefront at PE(%d,%d): a.t=%d psum.t=%d", i, j, aIn.t, pIn.t))
					}
					pOut = lane{val: pIn.val + aIn.val*weights[i][j], valid: true, t: aIn.t}
					macs++
					if i == sr-1 {
						product[pOut.t][j] = pOut.val
						produced++
					}
				}
				aRegs[i][j] = aIn
				psum[i][j] = pOut
			}
		}
		cycles++
	}
	if produced != tt*int64(sc) {
		return Result{}, fmt.Errorf("rtlref: produced %d outputs, want %d", produced, tt*int64(sc))
	}
	return Result{Cycles: cycles, Product: product, MACs: macs}, nil
}

// checkOperands validates the OS operand shapes against the array.
func checkOperands(a, b [][]float64, rows, cols int) (sr, sc int, tt int64, err error) {
	if len(a) == 0 || len(a[0]) == 0 {
		return 0, 0, 0, fmt.Errorf("rtlref: empty A operand")
	}
	sr = len(a)
	tt = int64(len(a[0]))
	if int64(len(b)) != tt || len(b[0]) == 0 {
		return 0, 0, 0, fmt.Errorf("rtlref: B must be %d x Sc", tt)
	}
	sc = len(b[0])
	if err := checkRows("A", a, int(tt)); err != nil {
		return 0, 0, 0, err
	}
	if err := checkRows("B", b, sc); err != nil {
		return 0, 0, 0, err
	}
	if sr > rows || sc > cols {
		return 0, 0, 0, fmt.Errorf("rtlref: mapping %dx%d exceeds array %dx%d", sr, sc, rows, cols)
	}
	return sr, sc, tt, nil
}

// checkRows refuses a ragged operand, naming it: every row of m must hold
// width elements.
func checkRows(name string, m [][]float64, width int) error {
	for i, row := range m {
		if len(row) != width {
			return fmt.Errorf("rtlref: ragged %s at row %d", name, i)
		}
	}
	return nil
}

// MatMul computes the reference product of A (m x k) and B (k x n) directly,
// for checking the systolic results.
func MatMul(a, b [][]float64) [][]float64 {
	m, k := len(a), len(a[0])
	n := len(b[0])
	out := make([][]float64, m)
	for i := 0; i < m; i++ {
		out[i] = make([]float64, n)
		for p := 0; p < k; p++ {
			av := a[i][p]
			for j := 0; j < n; j++ {
				out[i][j] += av * b[p][j]
			}
		}
	}
	return out
}
