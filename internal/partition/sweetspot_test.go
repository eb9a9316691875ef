package partition

import (
	"math"
	"strings"
	"testing"

	"scalesim/internal/config"
)

// sweepOf runs one series of testLayer at the budget.
func sweepOf(t *testing.T, base config.Config, macs int64, parts []int64) []Result {
	t.Helper()
	out, err := Sweep([]Series{{Name: "conv", Layer: testLayer(), MACs: macs, Parts: parts}}, base, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

func TestSweetSpotPicksFastestWithinBudget(t *testing.T) {
	sweep := sweepOf(t, config.New().WithSRAM(4, 4, 2), 1024, []int64{1, 4, 16})
	if len(sweep) != 3 {
		t.Fatalf("sweep = %d points", len(sweep))
	}

	// A generous budget admits everything: the pick is the global fastest.
	best, err := SweetSpot(sweep, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sweep {
		if r.Cycles < best.Cycles {
			t.Errorf("%v beats the unconstrained pick", r.Spec)
		}
	}

	// A budget between the monolithic demand and the most-partitioned
	// demand forces a middle pick.
	mono, most := sweep[0], sweep[len(sweep)-1]
	if mono.AvgDRAMBW() >= most.AvgDRAMBW() {
		t.Fatalf("sweep BW not rising: %v .. %v", mono.AvgDRAMBW(), most.AvgDRAMBW())
	}
	budget := (sweep[1].AvgDRAMBW() + most.AvgDRAMBW()) / 2
	constrained, err := SweetSpot(sweep, budget)
	if err != nil {
		t.Fatal(err)
	}
	if constrained.AvgDRAMBW() > budget {
		t.Errorf("pick %v exceeds budget %v", constrained.AvgDRAMBW(), budget)
	}
	if constrained.Cycles < best.Cycles {
		t.Errorf("constrained pick faster than unconstrained best")
	}

	// An impossible budget names the budget, the layer and the lowest
	// demand on offer.
	_, err = SweetSpot(sweep, 1e-9)
	if err == nil || !strings.HasPrefix(err.Error(), "partition: no configuration of 1024 MACs meets 0.0 bytes/cycle for conv (min demand ") {
		t.Errorf("impossible budget: %v", err)
	}
}

func TestSweetSpotValidation(t *testing.T) {
	sweep := sweepOf(t, config.New(), 1024, []int64{1})
	for _, bw := range []float64{0, -1, math.NaN()} {
		if _, err := SweetSpot(sweep, bw); err == nil || !strings.Contains(err.Error(), "must be positive") {
			t.Errorf("budget %v: err = %v", bw, err)
		}
	}
	if _, err := SweetSpot(nil, 10); err == nil {
		t.Error("empty sweep accepted")
	}
}
