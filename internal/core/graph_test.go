package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/timeline"
	"scalesim/internal/simcache"
	"scalesim/internal/topology"
)

// testGraphs returns the satellite's scheduling shapes: a diamond (one
// producer, two parallel consumers, one join) and a wide fan-out (one
// root feeding several independent heads joined by a sink), both mixing
// systolic and vector nodes.
func testGraphs() []topology.Graph {
	diamond := topology.Graph{Name: "diamond", Nodes: []topology.Node{
		topology.NodeOf(topology.FromGEMM("a", 16, 16, 16)),
		topology.NodeOf(topology.FromGEMM("b", 16, 16, 16), "a"),
		{Name: "sm", Kind: topology.OpSoftmax, Layer: topology.FromTensor("sm", 16, 16), Inputs: []string{"a"}},
		{Name: "join", Kind: topology.OpElementwise, Layer: topology.FromTensor("join", 16, 16), Inputs: []string{"b", "sm"}},
	}}
	fan := topology.Graph{Name: "fanout"}
	fan.Nodes = append(fan.Nodes, topology.NodeOf(topology.FromGEMM("root", 8, 32, 8)))
	var heads []string
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("head%d", i)
		fan.Nodes = append(fan.Nodes,
			topology.NodeOf(topology.FromGEMM(name, 8, 8, 8), "root"))
		heads = append(heads, name)
	}
	fan.Nodes = append(fan.Nodes, topology.Node{
		Name: "sink", Kind: topology.OpElementwise,
		Layer: topology.FromTensor("sink", 8, 8), Inputs: heads,
	})
	return []topology.Graph{diamond, fan}
}

// graphRun simulates g and collects the run plus any trace files.
func graphRun(t *testing.T, cfg config.Config, opt Options, g topology.Graph) (RunResult, map[string][]byte) {
	t.Helper()
	sim, err := New(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.SimulateGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	if opt.TraceDir != "" {
		entries, err := os.ReadDir(opt.TraceDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(opt.TraceDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
	}
	return res, files
}

// manifestLayersJSON projects a manifest onto its deterministic per-layer
// content (wall timings vary run to run and are zeroed).
func manifestLayersJSON(t *testing.T, m *obsv.Manifest) []byte {
	t.Helper()
	layers := append([]obsv.LayerMetrics(nil), m.Layers...)
	for i := range layers {
		layers[i].WallSeconds = 0
	}
	doc := struct {
		Topology *obsv.TopologyInfo
		Layers   []obsv.LayerMetrics
	}{m.Topology, layers}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGraphSchedulingDeterminism pins the satellite contract: diamond-
// and fan-out-shaped graphs produce byte-identical traces and manifests
// at workers=1 versus workers=N.
func TestGraphSchedulingDeterminism(t *testing.T) {
	cfg := config.New().WithArray(8, 8)
	for _, g := range testGraphs() {
		type outcome struct {
			res      RunResult
			files    map[string][]byte
			manifest []byte
		}
		byWorkers := map[int]outcome{}
		for _, workers := range []int{1, 4} {
			dir := t.TempDir()
			sim, err := New(cfg, Options{TraceDir: dir, Workers: workers, Obs: obsv.NewRecorder()})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.SimulateGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			files := map[string][]byte{}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				files[e.Name()] = data
			}
			byWorkers[workers] = outcome{res: res, files: files,
				manifest: manifestLayersJSON(t, mustManifest(t, sim, res))}
		}
		seq, par := byWorkers[1], byWorkers[4]
		if len(seq.files) == 0 {
			t.Fatalf("%s: no trace files written", g.Name)
		}
		if len(par.files) != len(seq.files) {
			t.Fatalf("%s: trace file counts differ: %d vs %d", g.Name, len(seq.files), len(par.files))
		}
		for name, want := range seq.files {
			got, ok := par.files[name]
			if !ok {
				t.Errorf("%s: workers=4 missing trace file %s", g.Name, name)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: trace file %s differs between workers=1 and workers=4", g.Name, name)
			}
		}
		if !reflect.DeepEqual(seq.res, par.res) {
			t.Errorf("%s: results differ between workers=1 and workers=4", g.Name)
		}
		if !bytes.Equal(seq.manifest, par.manifest) {
			t.Errorf("%s: manifests differ between workers=1 and workers=4:\n%s\n%s",
				g.Name, seq.manifest, par.manifest)
		}
	}
}

// TestChainGraphMatchesFlat: a flat topology lifted through ChainGraph
// must reproduce the flat run exactly — results and trace bytes.
func TestChainGraphMatchesFlat(t *testing.T) {
	cfg := config.New().WithArray(8, 8)
	topo := topology.TinyNet()

	flatDir := t.TempDir()
	flat := runWith(t, cfg, Options{TraceDir: flatDir, Workers: 2}, topo)

	graphDir := t.TempDir()
	res, _ := graphRun(t, cfg, Options{TraceDir: graphDir, Workers: 2}, topology.ChainGraph(topo))

	// The graph run carries Graph and per-node kinds; project both runs
	// onto the flat result space before comparing.
	got := res
	got.Graph = nil
	for i := range got.Layers {
		got.Layers[i].Kind = ""
	}
	want := flat
	for i := range want.Layers {
		want.Layers[i].Kind = ""
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("chain-graph run differs from flat run")
	}

	flatFiles, err := os.ReadDir(flatDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range flatFiles {
		a, err := os.ReadFile(filepath.Join(flatDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(graphDir, e.Name()))
		if err != nil {
			t.Fatalf("graph run missing trace file %s", e.Name())
		}
		if !bytes.Equal(a, b) {
			t.Errorf("trace file %s differs between flat and chain-graph runs", e.Name())
		}
	}
}

// TestGraphCacheKindDistinct pins satellite 2 at the simulator level: a
// GEMM node and a same-shaped attention-score node sharing one cache
// must not collide — the second kind is a miss, not a replay of the
// first.
func TestGraphCacheKindDistinct(t *testing.T) {
	cfg := config.New().WithArray(8, 8)
	shape := topology.FromGEMM("x", 16, 16, 16)
	g := topology.Graph{Name: "kinds", Nodes: []topology.Node{
		{Name: "gemm", Kind: topology.OpConv, Layer: shape},
		{Name: "score", Kind: topology.OpAttentionScore, Layer: shape, Inputs: []string{"gemm"}},
		{Name: "sm", Kind: topology.OpSoftmax, Layer: topology.FromTensor("sm", 16, 16), Inputs: []string{"score"}},
		{Name: "ln", Kind: topology.OpLayerNorm, Layer: topology.FromTensor("ln", 16, 16), Inputs: []string{"sm"}},
	}}
	cache := simcache.New()
	res, _ := graphRun(t, cfg, Options{Cache: cache, Workers: 1}, g)
	if cache.Stats().Hits != 0 {
		t.Fatalf("cache hits = %d: same-shaped nodes of different kinds must not share entries", cache.Stats().Hits)
	}
	if cache.Stats().Misses != 4 || cache.Len() != 4 {
		t.Fatalf("misses=%d entries=%d, want 4 distinct entries", cache.Stats().Misses, cache.Len())
	}
	// A cached re-run replays all four kinds byte-identically.
	again, _ := graphRun(t, cfg, Options{Cache: cache, Workers: 1}, g)
	if !reflect.DeepEqual(res, again) {
		t.Error("cached graph re-run differs")
	}
	if cache.Stats().Hits != 4 {
		t.Errorf("warm hits = %d, want 4", cache.Stats().Hits)
	}
}

// TestBERTTinyEndToEnd runs the built-in encoder block with a recorder
// and timeline attached: the manifest must carry graph structure and
// per-node operator metrics, and the timeline both clock domains plus
// the vector unit's pass spans.
func TestBERTTinyEndToEnd(t *testing.T) {
	g, err := topology.BuiltInGraph("BERTTiny")
	if err != nil {
		t.Fatal(err)
	}
	var tlBuf bytes.Buffer
	tw := timeline.New(&tlBuf, timeline.Options{})
	rec := obsv.NewRecorder()
	cfg := config.New().WithArray(16, 16)
	sim, err := New(cfg, Options{Workers: 4, Obs: rec, Timeline: tw})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.SimulateGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles <= 0 || res.TotalMACs <= 0 {
		t.Fatalf("degenerate run: cycles=%d macs=%d", res.TotalCycles, res.TotalMACs)
	}
	if len(res.Layers) != len(g.Nodes) {
		t.Fatalf("%d layer results, want %d", len(res.Layers), len(g.Nodes))
	}
	// Serialized execution: start cycles accumulate strictly.
	var off int64
	for i, lr := range res.Layers {
		if lr.StartCycle != off {
			t.Fatalf("layer %d starts at %d, want %d", i, lr.StartCycle, off)
		}
		off += lr.Compute.Cycles
		if lr.Kind.Vector() && (lr.Vector == nil || lr.Vector.Ops <= 0) {
			t.Errorf("layer %d (%s): vector node without vector result", i, lr.Kind)
		}
	}

	m := mustManifest(t, sim, res)
	if m.Topology == nil || m.Topology.Nodes != len(g.Nodes) || m.Topology.Edges != g.Edges() {
		t.Fatalf("manifest topology: %+v", m.Topology)
	}
	ops := map[string]int{}
	for _, lm := range m.Layers {
		if lm.Op == "" {
			t.Errorf("layer %s missing op", lm.Name)
		}
		ops[lm.Op]++
		if (lm.Op == "softmax" || lm.Op == "layernorm" || lm.Op == "eltwise") && lm.VectorOps <= 0 {
			t.Errorf("layer %s (%s): vector_ops = %d", lm.Name, lm.Op, lm.VectorOps)
		}
	}
	for _, want := range []string{"conv", "attn_score", "attn_value", "softmax", "layernorm", "eltwise"} {
		if ops[want] == 0 {
			t.Errorf("manifest lists no %s layers (have %v)", want, ops)
		}
	}

	var events []map[string]any
	if err := json.Unmarshal(tlBuf.Bytes(), &events); err != nil {
		t.Fatalf("timeline not valid JSON: %v", err)
	}
	pids := map[float64]bool{}
	passes := 0
	opsArg := 0
	for _, e := range events {
		if pid, ok := e["pid"].(float64); ok {
			pids[pid] = true
		}
		if name, _ := e["name"].(string); len(name) > 5 && name[:5] == "pass " {
			passes++
		}
		if args, ok := e["args"].(map[string]any); ok {
			if _, ok := args["op"]; ok {
				opsArg++
			}
		}
	}
	if len(pids) < 2 {
		t.Errorf("timeline carries %d pids, want both clock domains", len(pids))
	}
	if passes == 0 {
		t.Error("timeline has no vector pass spans")
	}
	if opsArg == 0 {
		t.Error("timeline layer spans carry no op annotation")
	}
}
