package core

import (
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/obsv"
	"scalesim/internal/topology"
)

// mustManifest is sim.Manifest(res), failing the test on open books.
func mustManifest(t testing.TB, sim *Simulator, res RunResult) *obsv.Manifest {
	t.Helper()
	m, err := sim.Manifest(res)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSimulatorManifest(t *testing.T) {
	topo := topology.TinyNet()
	cfg := config.New().WithArray(8, 8)
	rec := obsv.NewRecorder()
	sim, err := New(cfg, Options{Workers: 2, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Simulate(topo)
	if err != nil {
		t.Fatal(err)
	}
	m := mustManifest(t, sim, res)
	if err := m.Validate(); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	if m.Tool != "scalesim" || m.Run != cfg.RunName {
		t.Errorf("identity = %q/%q, want scalesim/%q", m.Tool, m.Run, cfg.RunName)
	}
	if m.ConfigHash != cfg.Hash() {
		t.Errorf("config hash not reproducible from the config")
	}
	if m.ConfigHash != cfg.WithArray(cfg.ArrayHeight, cfg.ArrayWidth).Hash() {
		t.Errorf("equal configs hash differently")
	}
	if m.Topology == nil || m.Topology.Name != topo.Name || m.Topology.Layers != len(topo.Layers) {
		t.Errorf("topology info = %+v", m.Topology)
	}
	if len(m.Layers) != len(topo.Layers) {
		t.Fatalf("manifest has %d layers, want %d", len(m.Layers), len(topo.Layers))
	}
	for i, lm := range m.Layers {
		lr := res.Layers[i]
		want := res.Topology.Layers[i].Name
		if lm.Name != want || lm.Cycles != lr.Compute.Cycles || lm.MACs != lr.Compute.MACs {
			t.Errorf("layer %d = %+v, want name %q cycles %d macs %d",
				i, lm, want, lr.Compute.Cycles, lr.Compute.MACs)
		}
		if lm.Utilization <= 0 || lm.Utilization > 1 {
			t.Errorf("layer %d utilization %v out of (0,1]", i, lm.Utilization)
		}
		if lm.WallSeconds <= 0 {
			t.Errorf("layer %d wall time not recorded", i)
		}
	}
	if m.Spans == nil || m.Spans.Jobs != int64(len(topo.Layers)) {
		t.Errorf("spans = %+v, want %d jobs", m.Spans, len(topo.Layers))
	}
	if m.Workers != 2 {
		t.Errorf("workers = %d, want 2", m.Workers)
	}
}

// BenchmarkManifestOverhead measures the cost of running fully
// instrumented versus uninstrumented: same TinyNet simulation, with the
// disabled case exercising the nil-recorder fast paths the zero-overhead
// contract promises. The process's resource use (/proc/self/status,
// getrusage) is read only as a recorder's manifest is built, so the
// disabled case reads nothing: its allocs/op are those of the simulation
// alone.
func BenchmarkManifestOverhead(b *testing.B) {
	topo := topology.TinyNet()
	cfg := config.New().WithArray(8, 8)
	run := func(b *testing.B, instrument bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var opt Options
			if instrument {
				opt.Obs = obsv.NewRecorder()
			}
			sim, err := New(cfg, opt)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Simulate(topo)
			if err != nil {
				b.Fatal(err)
			}
			if instrument {
				if err := mustManifest(b, sim, res).Validate(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })
}
