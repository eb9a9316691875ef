package scalesim_test

import (
	"testing"

	"scalesim"
)

// TestFacadeQuickstart exercises the package-level example from the doc
// comment end to end.
func TestFacadeQuickstart(t *testing.T) {
	cfg := scalesim.NewConfig().WithArray(8, 8).WithSRAM(2, 2, 1)
	topo, ok := scalesim.BuiltInTopology("TinyNet")
	if !ok {
		t.Fatal("TinyNet missing")
	}
	sim, err := scalesim.NewSimulator(cfg, scalesim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.Simulate(topo)
	if err != nil {
		t.Fatal(err)
	}
	if run.TotalCycles <= 0 || run.AvgBandwidth() <= 0 {
		t.Errorf("empty run result: %d cycles, %v bytes/cycle", run.TotalCycles, run.AvgBandwidth())
	}
}

func TestFacadeAnalytical(t *testing.T) {
	l := scalesim.GEMMLayer("g", 1024, 128, 512)
	m := scalesim.Map(l, scalesim.OutputStationary)
	if m.Sr != 1024 || m.T != 128 || m.Sc != 512 {
		t.Fatalf("Map = %+v", m)
	}
	if got := scalesim.Runtime(m, 32, 32); got <= 0 {
		t.Error("Runtime <= 0")
	}
	up, ok := scalesim.BestScaleUp(m, 1<<12, 8)
	if !ok {
		t.Fatal("no scale-up config")
	}
	out, ok := scalesim.BestScaleOut(m, 1<<12, 8, 0)
	if !ok {
		t.Fatal("no scale-out config")
	}
	if out.Cycles > up.Cycles {
		t.Error("scale-out slower than scale-up")
	}
}

// TestFacadeScaleOut: the façade's cycle-accurate scale-out entry point
// sweeps one grid per partition count, each a full result.
func TestFacadeScaleOut(t *testing.T) {
	l := scalesim.GEMMLayer("g", 256, 64, 128)
	base := scalesim.NewConfig().WithSRAM(8, 8, 4)
	_, sweep, err := scalesim.SweetSpot(l, base, 1<<10, []int64{1, 4}, 8, 1e9, scalesim.ScaleOutOptions{})
	if err != nil || len(sweep) != 2 {
		t.Fatalf("sweep: %v, %d results", err, len(sweep))
	}
	for _, res := range sweep {
		if res.Cycles <= 0 || res.Node.Energy.Total() <= 0 {
			t.Errorf("empty scale-out result: %+v", res)
		}
	}
	if got := sweep[1].Spec.Parts.Count(); got != 4 {
		t.Errorf("second point has %d partitions, want 4", got)
	}
}

func TestFacadeHelpers(t *testing.T) {
	if len(scalesim.BuiltInTopologyNames()) < 4 {
		t.Error("missing built-ins")
	}
	if scalesim.DDR3().Banks < 1 {
		t.Error("DDR3 defaults broken")
	}
}

func TestFacadeSweetSpotAndCells(t *testing.T) {
	l := scalesim.GEMMLayer("g", 512, 64, 256)
	base := scalesim.NewConfig().WithSRAM(16, 16, 8)
	pick, sweep, err := scalesim.SweetSpot(l, base, 1<<10, []int64{1, 4}, 8, 1e9, scalesim.ScaleOutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pick.Cycles <= 0 || len(sweep) != 2 {
		t.Errorf("pick %+v, sweep %d", pick, len(sweep))
	}
	cells := scalesim.GoogLeNetCells()
	if len(cells) != 9 {
		t.Errorf("GoogLeNetCells = %d", len(cells))
	}
}
