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

	// One flat register array per operand, row-major: PE (i, j) is
	// element i*sc+j.
	n := sr * sc
	aReg, bReg, acc := make([]float64, n), make([]float64, n), make([]float64, n)
	aOK, bOK := make([]bool, n), make([]bool, n)
	peMACs := make([]int64, n)

	var cycles, macs int64
	// Compute phase: the last PE finishes at cycle (sr-1)+(sc-1)+(tt-1).
	lastCompute := int64(sr) + int64(sc) + tt - 3
	for u := int64(0); u <= lastCompute; u++ {
		// Latch: every a register takes its left neighbour's value and
		// every b register its upper neighbour's, each shift a copy that
		// reads the previous cycle's registers; then the edge PEs take
		// their skewed inputs.
		for r := 0; r < n; r += sc {
			copy(aReg[r+1:r+sc], aReg[r:r+sc-1])
			copy(aOK[r+1:r+sc], aOK[r:r+sc-1])
		}
		copy(bReg[sc:], bReg[:n-sc])
		copy(bOK[sc:], bOK[:n-sc])
		for i := 0; i < sr; i++ {
			t := u - int64(i)
			if aOK[i*sc] = t >= 0 && t < tt; aOK[i*sc] {
				aReg[i*sc] = a[i][t]
			}
		}
		for j := 0; j < sc; j++ {
			t := u - int64(j)
			if bOK[j] = t >= 0 && t < tt; bOK[j] {
				bReg[j] = b[t][j]
			}
		}
		// Compute: every PE holding two valid operands accumulates.
		for k := range acc {
			if aOK[k] && bOK[k] {
				acc[k] += aReg[k] * bReg[k]
				peMACs[k]++
			}
		}
		cycles++
	}

	// Every PE must have executed exactly T MACs.
	for k, m := range peMACs {
		if m != tt {
			return Result{}, fmt.Errorf("rtlref: PE(%d,%d) executed %d MACs, want %d", k/sc, k%sc, m, tt)
		}
		macs += m
	}

	// Drain phase: outputs shift down and out of the bottom edge, one per
	// column per cycle, bottom row first.
	product := make([][]float64, sr)
	for k := 1; k <= sr; k++ {
		i := sr - k
		product[i] = acc[i*sc : (i+1)*sc : (i+1)*sc]
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

	// One flat register array per operand, row-major as in RunOS.
	n := sr * sc
	var cycles int64
	// Fill phase: one array row of weights per cycle.
	weights := make([]float64, 0, n)
	for _, row := range b {
		weights = append(weights, row...)
		cycles++
	}

	// Stream phase. A[t][i] enters row i at stream cycle i+t and reaches
	// column j at v = i+t+j, meeting the partial sum for output (t, j).
	type lane struct {
		val   float64
		valid bool
		t     int64
	}
	aRegs := make([]lane, n) // a operand moving right
	psum := make([]lane, n)  // partial sums moving down
	product := make([][]float64, tt)
	for t := range product {
		product[t] = make([]float64, sc)
	}
	var macs, produced int64
	lastV := int64(sr) - 1 + tt - 1 + int64(sc) - 1
	for v := int64(0); v <= lastV; v++ {
		// Latch, as in RunOS: a shifts one PE right and the partial sums
		// one row down; then column 0 takes the skewed A inputs, and row 0
		// a zero seed tagged like the operand it meets.
		for r := 0; r < n; r += sc {
			copy(aRegs[r+1:r+sc], aRegs[r:r+sc-1])
		}
		copy(psum[sc:], psum[:n-sc])
		for i := 0; i < sr; i++ {
			var in lane
			if t := v - int64(i); t >= 0 && t < tt {
				in = lane{val: a[t][i], valid: true, t: t}
			}
			aRegs[i*sc] = in
		}
		for j, x := range aRegs[:sc] {
			psum[j] = lane{valid: x.valid, t: x.t}
		}
		// Compute: a PE holding a valid operand and a valid partial sum
		// adds its product; every other PE passes an empty register on.
		for k, x := range aRegs {
			p := &psum[k]
			if !x.valid || !p.valid {
				*p = lane{}
				continue
			}
			if x.t != p.t {
				panic(fmt.Sprintf("rtlref: misaligned wavefront at PE(%d,%d): a.t=%d psum.t=%d", k/sc, k%sc, x.t, p.t))
			}
			p.val = p.val + x.val*weights[k]
			macs++
		}
		// The bottom row's partial sums are finished outputs.
		for j, p := range psum[n-sc:] {
			if p.valid {
				product[p.t][j] = p.val
				produced++
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
	k, n := len(a[0]), len(b[0])
	out := make([][]float64, len(a))
	for i, ai := range a {
		oi := make([]float64, n)
		for p, av := range ai[:k] {
			for j, bv := range b[p][:n] {
				oi[j] += av * bv
			}
		}
		out[i] = oi
	}
	return out
}
