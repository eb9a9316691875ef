package rtlref

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The steppers below are the reference model as it was first written: each
// cycle copies the whole grid into prev and every PE reads its neighbours
// from that copy, so the two-phase (compute, latch) semantics hold by
// construction. RunOS and RunWS instead shift one flat register array per
// operand, a row slice at a time, and then compute; these are the oracle
// that keeps them exact.

func runOSTwoPhase(a, b [][]float64, rows, cols int) (Result, error) {
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
	var cycles, macs int64
	lastCompute := int64(sr) + int64(sc) + tt - 3
	for u := int64(0); u <= lastCompute; u++ {
		prev := make([][]pe, sr)
		for i := range grid {
			prev[i] = append([]pe(nil), grid[i]...)
		}
		for i := 0; i < sr; i++ {
			for j := 0; j < sc; j++ {
				var aIn, bIn float64
				var aOK, bOK bool
				if j == 0 {
					if t := u - int64(i); t >= 0 && t < tt {
						aIn, aOK = a[i][t], true
					}
				} else {
					aIn, aOK = prev[i][j-1].aReg, prev[i][j-1].aValid
				}
				if i == 0 {
					if t := u - int64(j); t >= 0 && t < tt {
						bIn, bOK = b[t][j], true
					}
				} else {
					bIn, bOK = prev[i-1][j].bReg, prev[i-1][j].bValid
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
	for i := 0; i < sr; i++ {
		for j := 0; j < sc; j++ {
			if grid[i][j].macs != tt {
				return Result{}, fmt.Errorf("two-phase OS: PE(%d,%d) executed %d MACs, want %d",
					i, j, grid[i][j].macs, tt)
			}
		}
	}
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

func runWSTwoPhase(a, b [][]float64, rows, cols int) (Result, error) {
	sr, sc := len(b), len(b[0])
	tt := int64(len(a))
	if sr > rows || sc > cols {
		return Result{}, fmt.Errorf("two-phase WS: mapping %dx%d exceeds array %dx%d", sr, sc, rows, cols)
	}
	cycles := int64(sr) // fill: one array row of weights per cycle
	type lane struct {
		val   float64
		valid bool
		t     int64
	}
	aRegs := make([][]lane, sr)
	psum := make([][]lane, sr)
	for i := range aRegs {
		aRegs[i] = make([]lane, sc)
		psum[i] = make([]lane, sc)
	}
	product := make([][]float64, tt)
	for t := range product {
		product[t] = make([]float64, sc)
	}
	var macs, produced int64
	lastV := int64(sr) - 1 + tt - 1 + int64(sc) - 1
	for v := int64(0); v <= lastV; v++ {
		prevA := make([][]lane, sr)
		prevP := make([][]lane, sr)
		for i := range aRegs {
			prevA[i] = append([]lane(nil), aRegs[i]...)
			prevP[i] = append([]lane(nil), psum[i]...)
		}
		for i := 0; i < sr; i++ {
			for j := 0; j < sc; j++ {
				var aIn lane
				if j == 0 {
					if t := v - int64(i); t >= 0 && t < tt {
						aIn = lane{val: a[t][i], valid: true, t: t}
					}
				} else {
					aIn = prevA[i][j-1]
				}
				var pIn lane
				if i == 0 {
					pIn = lane{valid: aIn.valid, t: aIn.t}
				} else {
					pIn = prevP[i-1][j]
				}
				var pOut lane
				if aIn.valid && pIn.valid {
					if aIn.t != pIn.t {
						return Result{}, fmt.Errorf("two-phase WS: misaligned wavefront at PE(%d,%d)", i, j)
					}
					pOut = lane{val: pIn.val + aIn.val*b[i][j], valid: true, t: aIn.t}
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
		return Result{}, fmt.Errorf("two-phase WS: produced %d outputs, want %d", produced, tt*int64(sc))
	}
	return Result{Cycles: cycles, Product: product, MACs: macs}, nil
}

// normMat fills an r x c matrix with normal deviates, so that every sum
// rounds and a change in accumulation order would show in the bits.
func normMat(rng *rand.Rand, r, c int) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
		for j := range m[i] {
			m[i][j] = rng.NormFloat64()
		}
	}
	return m
}

// sameResult reports how got differs from want: Cycles, MACs, or any
// Product element by its bits.
func sameResult(got, want Result) error {
	if got.Cycles != want.Cycles || got.MACs != want.MACs {
		return fmt.Errorf("cycles/MACs %d/%d, two-phase %d/%d", got.Cycles, got.MACs, want.Cycles, want.MACs)
	}
	if len(got.Product) != len(want.Product) {
		return fmt.Errorf("%d product rows, two-phase %d", len(got.Product), len(want.Product))
	}
	for i := range want.Product {
		if len(got.Product[i]) != len(want.Product[i]) {
			return fmt.Errorf("product row %d has %d columns, two-phase %d", i, len(got.Product[i]), len(want.Product[i]))
		}
		for j, w := range want.Product[i] {
			if g := got.Product[i][j]; math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("product[%d][%d] = %v, two-phase %v", i, j, g, w)
			}
		}
	}
	return nil
}

// oracleDim draws a dimension in [1, hi], one in four times exactly 1 so
// that single rows, columns and streams come up often.
func oracleDim(rng *rand.Rand, hi int) int {
	if rng.Intn(4) == 0 {
		return 1
	}
	return 1 + rng.Intn(hi)
}

// shiftMatchesTwoPhase runs one Sr x Sc x T shape on a rows x cols array
// under every dataflow, operands drawn from rng, and reports how the
// shift-then-compute steppers differ from the per-cycle-copy oracle.
func shiftMatchesTwoPhase(rng *rand.Rand, sr, sc, tt, rows, cols int) error {
	a, b := normMat(rng, sr, tt), normMat(rng, tt, sc)
	got, err := RunOS(a, b, rows, cols)
	if err != nil {
		return err
	}
	want, err := runOSTwoPhase(a, b, rows, cols)
	if err != nil {
		return err
	}
	if err := sameResult(got, want); err != nil {
		return fmt.Errorf("OS Sr=%d Sc=%d T=%d on %dx%d: %v", sr, sc, tt, rows, cols, err)
	}

	// WS: stream T x Sr against stationary Sr x Sc.
	stream, stat := normMat(rng, tt, sr), normMat(rng, sr, sc)
	if got, err = RunWS(stream, stat, rows, cols); err != nil {
		return err
	}
	if want, err = runWSTwoPhase(stream, stat, rows, cols); err != nil {
		return err
	}
	if err := sameResult(got, want); err != nil {
		return fmt.Errorf("WS Sr=%d Sc=%d T=%d on %dx%d: %v", sr, sc, tt, rows, cols, err)
	}

	// IS: the same schedule with the roles interchanged, filters
	// streaming against stationary windows.
	filters, windows := normMat(rng, tt, sr), normMat(rng, sr, sc)
	if got, err = RunIS(filters, windows, rows, cols); err != nil {
		return err
	}
	if want, err = runWSTwoPhase(filters, windows, rows, cols); err != nil {
		return err
	}
	if err := sameResult(got, want); err != nil {
		return fmt.Errorf("IS Sr=%d Sc=%d T=%d on %dx%d: %v", sr, sc, tt, rows, cols, err)
	}
	return nil
}

// TestInPlaceMatchesTwoPhase: shifting each operand's registers a row
// slice at a time, then computing, is exactly the per-cycle-copy two-phase
// model, bit for bit, under every dataflow, on shapes with 1-wide rows,
// columns and T and on arrays larger than the mapping.
func TestInPlaceMatchesTwoPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		sr, sc, tt := oracleDim(rng, 12), oracleDim(rng, 12), oracleDim(rng, 16)
		rows, cols := sr+rng.Intn(4), sc+rng.Intn(4)
		if err := shiftMatchesTwoPhase(rng, sr, sc, tt, rows, cols); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzShiftMatchesTwoPhase holds the steppers to the oracle on the shapes
// the fuzzer picks, within the ranges TestInPlaceMatchesTwoPhase draws: Sr
// and Sc in [1, 12], T in [1, 16], and an array up to 3 rows and 3 columns
// larger than the mapping (the margin byte's low and next two bits).
func FuzzShiftMatchesTwoPhase(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(3), uint8(5), int64(1))
	f.Add(uint8(0), uint8(11), uint8(15), uint8(0), int64(44))
	f.Add(uint8(11), uint8(0), uint8(0), uint8(15), int64(7))
	f.Fuzz(func(t *testing.T, sr, sc, tt, margin uint8, seed int64) {
		r, c := 1+int(sr)%12, 1+int(sc)%12
		rng := rand.New(rand.NewSource(seed))
		if err := shiftMatchesTwoPhase(rng, r, c, 1+int(tt)%16, r+int(margin)&3, c+int(margin>>2)&3); err != nil {
			t.Fatal(err)
		}
	})
}
