package experiments

import (
	"testing"

	"scalesim/internal/partition"
)

func TestPartitionSweepFigure11Shape(t *testing.T) {
	// CB2a_3 at 2^12 MACs across 1..16 partitions: runtime falls, DRAM
	// bandwidth demand rises (Fig. 11's two curves).
	out, err := Fig12(CB2a3(), []int64{1 << 12}, []int64{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0]) != 3 {
		t.Fatalf("results = %d series", len(out))
	}
	rows := out[0]
	for i := 1; i < len(rows); i++ {
		if rows[i].Cycles > rows[i-1].Cycles {
			t.Errorf("runtime rose at %d partitions: %d > %d",
				rows[i].Spec.Parts.Count(), rows[i].Cycles, rows[i-1].Cycles)
		}
	}
	if rows[len(rows)-1].AvgDRAMBW() <= rows[0].AvgDRAMBW() {
		t.Errorf("bandwidth demand did not rise: %v -> %v", rows[0].AvgDRAMBW(), rows[len(rows)-1].AvgDRAMBW())
	}
	for _, r := range rows {
		p := r.Spec.Parts.Count()
		if r.PeakDRAMBW() < r.AvgDRAMBW() {
			t.Errorf("%d partitions: peak %v below avg %v", p, r.PeakDRAMBW(), r.AvgDRAMBW())
		}
		if r.Node.Memory.DRAMReads() <= 0 || r.Node.Memory.OfmapDRAMWrites <= 0 {
			t.Errorf("%d partitions: empty DRAM traffic", p)
		}
		if r.Node.Energy.Total() <= 0 {
			t.Errorf("%d partitions: no energy", p)
		}
	}
}

func TestFig11BothLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-accurate TF0 sweep in -short mode")
	}
	series := Fig11Series([]int64{1 << 12}, []int64{1, 4})
	out, err := partition.Sweep(series, Fig11Base(), 8, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"CB2a_3", "TF0"} {
		if series[i].Layer.Name != name {
			t.Fatalf("series %d is %s, want %s", i, series[i].Layer.Name, name)
		}
		rows := out[i]
		if len(rows) != 2 {
			t.Fatalf("%s: %d rows", name, len(rows))
		}
		if rows[1].Cycles >= rows[0].Cycles {
			t.Errorf("%s: partitioning did not speed up", name)
		}
	}
}

// TestFig12EnergyCrossover: with few MACs the monolithic design minimizes
// energy; with many MACs the minimum moves to more partitions (Sec. IV-A).
func TestFig12EnergyCrossover(t *testing.T) {
	parts := []int64{1, 4, 16}
	out, err := Fig12(CB2a3(), []int64{1 << 10, 1 << 16}, parts)
	if err != nil {
		t.Fatal(err)
	}
	argmin := func(rows []partition.Result) int64 {
		best := rows[0]
		for _, r := range rows[1:] {
			if r.Node.Energy.Total() < best.Node.Energy.Total() {
				best = r
			}
		}
		return best.Spec.Parts.Count()
	}
	small, large := argmin(out[0]), argmin(out[1])
	if small != 1 {
		t.Errorf("small budget min-energy at %d partitions, want monolithic", small)
	}
	if large < small {
		t.Errorf("min-energy point moved left with scale: %d -> %d partitions", small, large)
	}
	if large == 1 {
		t.Errorf("large budget min-energy still monolithic; expected partitioned")
	}
}

func TestFig13Fig14(t *testing.T) {
	budgets := []int64{1 << 10, 1 << 12}
	for name, f := range map[string]func([]int64) ([]ParetoRow, error){
		"Fig13": Fig13, "Fig14": Fig14,
	} {
		rows, err := f(budgets)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) != len(budgets) {
			t.Fatalf("%s: rows = %d", name, len(rows))
		}
		for _, r := range rows {
			if len(r.Loss) == 0 {
				t.Fatalf("%s: no candidates at %d MACs", name, r.MACs)
			}
			if r.Loss[0] != 1 {
				t.Errorf("%s: best loss %v != 1", name, r.Loss[0])
			}
			for i := 1; i < len(r.Loss); i++ {
				if r.Loss[i] < r.Loss[i-1] {
					t.Errorf("%s: losses not sorted at %d MACs", name, r.MACs)
					break
				}
			}
			if r.Best.MACs() != r.MACs {
				t.Errorf("%s: best config has %d MACs, want %d", name, r.Best.MACs(), r.MACs)
			}
		}
	}
}

// TestFig13SlowCandidatesExist: the figures show the slowest local optimum
// can be several times worse than the pareto choice.
func TestFig13SlowCandidatesExist(t *testing.T) {
	rows, err := Fig13([]int64{1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	worst := rows[0].Loss[len(rows[0].Loss)-1]
	if worst < 1.2 {
		t.Errorf("worst candidate loss %v; expected a visible spread", worst)
	}
}

func TestPartitionSweepErrors(t *testing.T) {
	if _, err := Fig12(CB2a3(), []int64{64}, []int64{4}); err == nil {
		t.Error("accepted infeasible sweep")
	}
}
