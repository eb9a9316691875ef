package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/obsv"
	"scalesim/internal/topology"
)

// goldenLayer mirrors the fixed scenario of internal/systolic's golden
// trace tests: a 4x4 conv layer on a 3x3 array.
func goldenLayer() topology.Layer {
	return topology.Layer{Name: "golden", IfmapH: 5, IfmapW: 4, FilterH: 2,
		FilterW: 2, Channels: 2, NumFilters: 3, Stride: 1}
}

// goldenSection extracts one "# <stream>" section body from a golden file
// written by internal/systolic's golden test.
func goldenSection(t *testing.T, data []byte, stream string) []byte {
	t.Helper()
	marker := []byte("# " + stream + "\n")
	i := bytes.Index(data, marker)
	if i < 0 {
		t.Fatalf("golden file has no section %q", stream)
	}
	body := data[i+len(marker):]
	if j := bytes.Index(body, []byte("# ")); j >= 0 {
		body = body[:j]
	}
	return body
}

// TestGoldenTraceParity runs the golden layer through the full core
// pipeline — engine scheduler, sink registry, CSV trace factory — at
// workers 1 and 4 and checks that every SRAM trace file is byte-identical
// to the corresponding section of internal/systolic's checked-in goldens.
// This pins the whole refactored execution path, not just the array model.
func TestGoldenTraceParity(t *testing.T) {
	sections := map[string]string{
		"sram_read_ifmap":  "ifmap_read",
		"sram_read_filter": "filter_read",
		"sram_write_ofmap": "ofmap_write",
	}
	topo := topology.Topology{Name: "golden", Layers: []topology.Layer{goldenLayer()}}
	for _, df := range config.Dataflows {
		golden, err := os.ReadFile(filepath.Join("..", "systolic", "testdata", "golden_"+df.String()+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			dir := t.TempDir()
			cfg := config.New().WithArray(3, 3).WithDataflow(df)
			sim, err := New(cfg, Options{TraceDir: dir, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Simulate(topo); err != nil {
				t.Fatal(err)
			}
			for stream, section := range sections {
				name := fmt.Sprintf("%s_golden_%s.csv", cfg.RunName, stream)
				got, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if want := goldenSection(t, golden, section); !bytes.Equal(got, want) {
					t.Errorf("%s workers=%d: %s differs from golden section %s",
						df, workers, name, section)
				}
			}
		}
	}
}

// TestTraceFilesDeterministic simulates TinyNet with full tracing at
// workers 1 and 4 and requires byte-identical trace files and equal
// aggregates — the engine's determinism guarantee, end to end.
func TestTraceFilesDeterministic(t *testing.T) {
	topo := topology.TinyNet()
	cfg := config.New().WithArray(8, 8)

	type run struct {
		dir   string
		files map[string][]byte
	}
	runs := make(map[int]run)
	var results []RunResult
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		sim, err := New(cfg, Options{TraceDir: dir, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Simulate(topo)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte, len(entries))
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		runs[workers] = run{dir: dir, files: files}
	}

	seq, par := runs[1], runs[4]
	if len(par.files) != len(seq.files) || len(seq.files) != 5*len(topo.Layers) {
		t.Fatalf("trace file counts differ: workers=1 wrote %d, workers=4 wrote %d, want %d",
			len(seq.files), len(par.files), 5*len(topo.Layers))
	}
	for name, want := range seq.files {
		got, ok := par.files[name]
		if !ok {
			t.Errorf("workers=4 missing trace file %s", name)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("trace file %s differs between workers=1 and workers=4", name)
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("aggregates differ between workers=1 and workers=4")
	}
}

// TestTraceDeterminismWithMetrics pins the instrumentation contract:
// attaching a metrics recorder must not change a single byte of trace
// output or any aggregate. TinyNet runs traced at workers=4 with and
// without a recorder; files and results must match exactly, and the
// instrumented run must still produce a valid manifest.
func TestTraceDeterminismWithMetrics(t *testing.T) {
	topo := topology.TinyNet()
	cfg := config.New().WithArray(8, 8)

	type run struct {
		files map[string][]byte
		res   RunResult
	}
	var runs []run
	var rec *obsv.Recorder
	for _, instrument := range []bool{false, true} {
		dir := t.TempDir()
		opt := Options{TraceDir: dir, Workers: 4}
		if instrument {
			rec = obsv.NewRecorder()
			opt.Obs = rec
		}
		sim, err := New(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Simulate(topo)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte, len(entries))
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		runs = append(runs, run{files: files, res: res})
		if instrument {
			m := mustManifest(t, sim, res)
			if err := m.Validate(); err != nil {
				t.Errorf("instrumented run manifest invalid: %v", err)
			}
			if len(m.Layers) != len(topo.Layers) {
				t.Errorf("manifest has %d layers, want %d", len(m.Layers), len(topo.Layers))
			}
		}
	}

	plain, instrumented := runs[0], runs[1]
	if len(plain.files) != len(instrumented.files) {
		t.Fatalf("trace file counts differ: plain %d, instrumented %d",
			len(plain.files), len(instrumented.files))
	}
	for name, want := range plain.files {
		got, ok := instrumented.files[name]
		if !ok {
			t.Errorf("instrumented run missing trace file %s", name)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("trace file %s differs with metrics recorder attached", name)
		}
	}
	if !reflect.DeepEqual(plain.res, instrumented.res) {
		t.Errorf("aggregates differ with metrics recorder attached")
	}
}

// TestResNet50WorkersEquivalence is the acceptance check of the engine
// refactor at full scale: the built-in ResNet50 produces identical results
// at workers=1 and workers=GOMAXPROCS-or-more.
func TestResNet50WorkersEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("two full ResNet50 simulations; skipped in -short")
	}
	topo := topology.ResNet50()
	var results []RunResult
	for _, workers := range []int{1, 8} {
		sim, err := New(config.New(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Simulate(topo)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("ResNet50 aggregates differ between workers=1 and workers=8")
	}
}
