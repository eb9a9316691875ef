package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/engine"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/cycleacct"
	"scalesim/internal/simcache"
	"scalesim/internal/topology"
)

// TestPartsOneByOneIsThePlainRun: Eqs. 5-6 make a 1x1 grid the degenerate
// scale-out system, so its layers' compute, memory and energy results are
// the plain run's, and no partition waits on another.
func TestPartsOneByOneIsThePlainRun(t *testing.T) {
	cfg := config.New().WithArray(8, 8).WithSRAM(4, 4, 2)
	gemms := topology.Topology{Name: "gemms", Layers: []topology.Layer{
		topology.FromGEMM("g1", 70, 90, 50), topology.FromGEMM("g2", 33, 17, 65)}}
	for _, topo := range []topology.Topology{topology.TinyNet(), gemms} {
		plain, err := newSim(t, cfg, Options{}).Simulate(topo)
		if err != nil {
			t.Fatal(err)
		}
		one, err := newSim(t, cfg, Options{Parts: analytical.Partitioning{Pr: 1, Pc: 1}}).Simulate(topo)
		if err != nil {
			t.Fatal(err)
		}
		if one.TotalCycles != plain.TotalCycles || one.Parts == nil || plain.Parts != nil {
			t.Errorf("%s: %d cycles on 1x1 (grid %v), %d plain (grid %v)",
				topo.Name, one.TotalCycles, one.Parts, plain.TotalCycles, plain.Parts)
		}
		for i, lr := range one.Layers {
			want := plain.Layers[i]
			if !reflect.DeepEqual(lr.Compute, want.Compute) || !reflect.DeepEqual(lr.Memory, want.Memory) ||
				lr.Energy != want.Energy {
				t.Errorf("%s layer %d: 1x1\n%+v\nplain\n%+v", topo.Name, i, lr, want)
			}
			if len(lr.Partitions) != 1 || lr.Ledger.Category(cycleacct.PartitionSkew) != 0 {
				t.Errorf("%s layer %d: %d partitions, %d skew cycles", topo.Name, i,
					len(lr.Partitions), lr.Ledger.Category(cycleacct.PartitionSkew))
			}
		}
	}
}

// TestPartsOneByOneSharesThePlainRunsEntries: a 1x1 grid's one window
// covers the whole mapping and simulates what the layer does, so it keys
// as the layer: whichever of the plain and the 1x1 run comes second finds
// every entry cached, and reports what it reports uncached.
func TestPartsOneByOneSharesThePlainRunsEntries(t *testing.T) {
	cfg := config.New().WithArray(8, 8).WithSRAM(4, 4, 2)
	topo := topology.TinyNet()
	n := int64(len(topo.Layers))
	one := analytical.Partitioning{Pr: 1, Pc: 1}
	for _, order := range [][2]analytical.Partitioning{{{}, one}, {one, {}}} {
		cache := simcache.New()
		runWith(t, cfg, Options{Cache: cache, Parts: order[0]}, topo)
		got := runWith(t, cfg, Options{Cache: cache, Parts: order[1]}, topo)
		if st := cache.Stats(); st.Hits != n || st.Misses != n || st.Entries != n {
			t.Errorf("grid %v after %v: %+v, want %d hits, %d misses, %d entries", order[1], order[0], st, n, n, n)
		}
		if want := runWith(t, cfg, Options{Parts: order[1]}, topo); !bytes.Equal(resultJSON(t, got), resultJSON(t, want)) {
			t.Errorf("grid %v after %v: cached run differs from the uncached one", order[1], order[0])
		}
	}
}

// TestPartsJoin: a partitioned layer finishes with its slowest partition,
// each partition's books close on that runtime, and the node ledger counts
// every provisioned array-cycle. Its windows are planned like layers: a
// repeated layer's windows replay, and the result does not depend on the
// worker count.
func TestPartsJoin(t *testing.T) {
	conv := topology.Layer{Name: "conv", IfmapH: 12, IfmapW: 12, FilterH: 3, FilterW: 3,
		Channels: 8, NumFilters: 24, Stride: 1}
	again := conv
	again.Name = "again"
	topo := topology.Topology{Name: "twice", Layers: []topology.Layer{conv, again}}
	cfg := config.New().WithArray(8, 8).WithSRAM(4, 4, 2)
	parts := analytical.Partitioning{Pr: 3, Pc: 2}
	rec := obsv.NewRecorder()
	run, err := newSim(t, cfg, Options{Parts: parts, Obs: rec, Workers: 1}).Simulate(topo)
	if err != nil {
		t.Fatal(err)
	}
	lr := run.Layers[0]
	if len(lr.Partitions) != 6 {
		t.Fatalf("%d partitions, want 6", len(lr.Partitions))
	}
	node := cycleacct.NodeLedger{Ledger: *lr.Ledger, Partitions: lr.Partitions}
	if err := node.Check(); err != nil {
		t.Fatal(err)
	}
	if lr.Ledger.Total != 6*lr.Compute.Cycles || lr.Ledger.Category(cycleacct.PartitionSkew) == 0 {
		t.Errorf("node total %d for 6 x %d cycles, skew %d", lr.Ledger.Total, lr.Compute.Cycles,
			lr.Ledger.Category(cycleacct.PartitionSkew))
	}
	for _, p := range lr.Partitions {
		if p.Total != lr.Compute.Cycles {
			t.Errorf("partition (%d,%d) closes on %d, the layer runs %d", p.Pi, p.Pj, p.Total, lr.Compute.Cycles)
		}
	}
	whole, err := newSim(t, cfg, Options{}).SimulateLayer(conv)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Compute.MACs != whole.Compute.MACs || lr.Compute.Cycles >= whole.Compute.Cycles {
		t.Errorf("grid: %d MACs in %d cycles, one array: %d MACs in %d cycles",
			lr.Compute.MACs, lr.Compute.Cycles, whole.Compute.MACs, whole.Compute.Cycles)
	}
	if got := rec.Metrics().Counter("core.nodes_replayed").Value(); got != 6 {
		t.Errorf("%d windows replayed, want the repeated layer's 6", got)
	}
	if second := run.Layers[1]; second.StartCycle != lr.Compute.Cycles || second.Compute.Layer.Name != "again" {
		t.Errorf("second layer starts at %d named %q", second.StartCycle, second.Compute.Layer.Name)
	}
	wide, err := newSim(t, cfg, Options{Parts: parts, Workers: 4}).Simulate(topo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wide, run) {
		t.Error("workers=4 differs from workers=1")
	}
}

// TestPartsRefusals: what the partitions of a layer would share is refused
// beside Parts, by its option's name, before anything runs.
func TestPartsRefusals(t *testing.T) {
	parts := analytical.Partitioning{Pr: 1, Pc: 2}
	ddr := dram.DDR3()
	for want, opt := range map[string]Options{
		"invalid Parts": {Parts: analytical.Partitioning{Pc: 2}},
		"DRAM":          {Parts: parts, DRAM: &ddr},
		"DRAMBandwidth": {Parts: parts, DRAMBandwidth: 4},
		"TraceDir":      {Parts: parts, TraceDir: t.TempDir()},
		"Sinks":         {Parts: parts, Sinks: engine.Registry{engine.CSVTrace(t.TempDir())}},
	} {
		if _, err := New(config.New(), opt); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("New with %s: %v", want, err)
		}
	}
	sim := newSim(t, config.New(), Options{Parts: parts})
	// A graph is refused by its first vector node; a chain of matmul
	// layers runs (TestPartsChainGraphIsTheFlatRun).
	g, _ := topology.BuiltInGraph("BERTTiny")
	if _, err := sim.SimulateGraph(g); err == nil || !strings.Contains(err.Error(), `node "h0_softmax": Parts runs matmul layers only`) {
		t.Errorf("SimulateGraph under Parts: %v", err)
	}
	softmax := topology.Node{Name: "sm", Kind: topology.OpSoftmax, Layer: topology.FromGEMM("sm", 8, 1, 8)}
	if _, err := sim.SimulateNode(softmax); err == nil || !strings.Contains(err.Error(), `"sm"`) {
		t.Errorf("vector node under Parts: %v", err)
	}
}

// TestPartsChainGraphIsTheFlatRun: a chain of matmul layers given as a
// graph runs under Parts exactly as its flat network does; only the
// result's graph, which a flat network leaves nil, tells them apart.
func TestPartsChainGraphIsTheFlatRun(t *testing.T) {
	cfg := config.New().WithArray(4, 4).WithSRAM(4, 4, 2)
	sim := newSim(t, cfg, Options{Parts: analytical.Partitioning{Pr: 3, Pc: 2}})
	flat, err := sim.Simulate(topology.TinyNet())
	if err != nil {
		t.Fatal(err)
	}
	chain, err := sim.SimulateGraph(topology.ChainGraph(topology.TinyNet()))
	if err != nil {
		t.Fatal(err)
	}
	if flat.Graph != nil || chain.Graph == nil || len(chain.Graph.Nodes) != 3 {
		t.Fatalf("graphs: flat %v, chain %v", flat.Graph, chain.Graph)
	}
	chain.Graph = nil
	if !reflect.DeepEqual(flat, chain) {
		t.Errorf("chain under Parts differs from the flat run:\n%+v\n%+v", chain, flat)
	}
}
