package experiments

import (
	"testing"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/dataflow"
)

func TestNamedLayers(t *testing.T) {
	tf0 := TF0()
	m, k, n := tf0.GEMM()
	if m != 31999 || k != 84 || n != 1024 {
		t.Errorf("TF0 GEMM = %d,%d,%d", m, k, n)
	}
	cb := CB2a3()
	if cb.Name != "CB2a_3" || cb.NumFilters != 256 {
		t.Errorf("CB2a3 = %+v", cb)
	}
}

// TestFig4Agreement: the validation figure's claim is that the simulator
// and the RTL agree; here they must agree exactly.
func TestFig4Agreement(t *testing.T) {
	rows, err := Fig4([]int64{4, 8, 16, 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RTLCycles != r.SimCycles {
			t.Errorf("size %d: RTL %d != sim %d", r.ArraySize, r.RTLCycles, r.SimCycles)
		}
		// Cycles grow with array size (matrix grows too).
		if r.SimCycles != int64(4*r.ArraySize)-2 {
			t.Errorf("size %d: cycles %d, want %d", r.ArraySize, r.SimCycles, 4*r.ArraySize-2)
		}
	}
	if _, err := Fig4([]int64{0}); err == nil {
		t.Error("Fig4 accepted size 0")
	}
}

func TestFig9aShape(t *testing.T) {
	budgets := []int64{1 << 10, 1 << 12}
	points, err := Fig9a(budgets, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	var bestMono, bestPart = map[int64]int64{}, map[int64]int64{}
	for _, p := range points {
		if p.Normalized <= 0 || p.Normalized > 1 {
			t.Fatalf("normalized %v out of range", p.Normalized)
		}
		if p.Config.MACs() != p.MACs {
			t.Fatalf("config %v has %d MACs, want %d", p.Config, p.Config.MACs(), p.MACs)
		}
		update := func(m map[int64]int64) {
			if v, ok := m[p.MACs]; !ok || p.Cycles < v {
				m[p.MACs] = p.Cycles
			}
		}
		if p.Config.Monolithic() {
			update(bestMono)
		} else {
			update(bestPart)
		}
	}
	// Partitioning is always at least as good (the figure's "almost
	// monotonic improvement up the y-axis").
	for _, macs := range budgets {
		if bestPart[macs] > bestMono[macs] {
			t.Errorf("macs %d: best partitioned %d slower than best monolithic %d",
				macs, bestPart[macs], bestMono[macs])
		}
	}
	if _, err := Fig9a([]int64{32}, 8); err == nil {
		t.Error("Fig9a accepted infeasible budget")
	}
}

func TestFig9bcSpread(t *testing.T) {
	rows, err := Fig9bc(1 << 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 { // divisors of 2^14
		t.Fatalf("rows = %d, want 15", len(rows))
	}
	var lo, hi int64
	for i, r := range rows {
		if r.MappingUtilization <= 0 || r.MappingUtilization > 1 {
			t.Fatalf("utilization %v", r.MappingUtilization)
		}
		if i == 0 || r.Cycles < lo {
			lo = r.Cycles
		}
		if i == 0 || r.Cycles > hi {
			hi = r.Cycles
		}
	}
	// "difference in runtime for optimum configuration and others can vary
	// by several orders of magnitude".
	if float64(hi)/float64(lo) < 10 {
		t.Errorf("aspect spread %.1fx too small", float64(hi)/float64(lo))
	}
	if _, err := Fig9bc(0); err == nil {
		t.Error("Fig9bc accepted 0 MACs")
	}
}

func TestFig10Shape(t *testing.T) {
	budgets := []int64{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	rows, err := Fig10(Fig10bLayers(), budgets, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig10bLayers())*len(budgets) {
		t.Fatalf("rows = %d", len(rows))
	}
	var maxRatioSmall, maxRatioLarge float64
	for _, r := range rows {
		if r.Ratio < 1 {
			t.Errorf("%s at %d MACs: ratio %v < 1 (scale-out should never lose)",
				r.Layer, r.MACs, r.Ratio)
		}
		if r.MACs == budgets[0] && r.Ratio > maxRatioSmall {
			maxRatioSmall = r.Ratio
		}
		if r.MACs == budgets[len(budgets)-1] && r.Ratio > maxRatioLarge {
			maxRatioLarge = r.Ratio
		}
	}
	// The paper reports the slowdown amplifies as hardware scales, reaching
	// ~50x at 65536 MACs for language models.
	if maxRatioLarge <= maxRatioSmall {
		t.Errorf("slowdown did not amplify: %v (small) vs %v (large)", maxRatioSmall, maxRatioLarge)
	}
	if maxRatioLarge < 10 {
		t.Errorf("max slowdown at 65536 MACs only %.1fx, paper reports tens", maxRatioLarge)
	}
}

func TestFig10ResNetLayers(t *testing.T) {
	rows, err := Fig10(Fig10aLayers(), []int64{1 << 12}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	for _, r := range rows {
		if r.Ratio < 1 {
			t.Errorf("%s: ratio %v < 1", r.Layer, r.Ratio)
		}
	}
}

// TestFig9aConsistentWithAnalytical spot-checks a heatmap point against a
// direct Eq. 6 evaluation.
func TestFig9aPointValues(t *testing.T) {
	points, err := Fig9a([]int64{1 << 10}, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := dataflow.Map(TF0(), config.OutputStationary)
	for _, p := range points[:5] {
		want := analytical.ScaleOutRuntime(m, p.Config.Parts.Pr, p.Config.Parts.Pc,
			p.Config.Shape.R, p.Config.Shape.C)
		if p.Cycles != want {
			t.Errorf("point %v: cycles %d != Eq.6 %d", p.Config, p.Cycles, want)
		}
	}
}
