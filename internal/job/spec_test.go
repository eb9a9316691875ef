package job

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"scalesim/internal/analytical"
	"scalesim/internal/batch"
	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/topology"
)

func TestRequestResolvesBuiltins(t *testing.T) {
	spec, err := Request{Net: "TinyNet", Array: "16x32", Dataflow: "os", SRAM: "64,64,32", Run: "t"}.Spec()
	if err != nil {
		t.Fatalf("Spec: %v", err)
	}
	if spec.Graph == nil || !spec.Graph.Flat || spec.Graph.Name != "TinyNet" {
		t.Fatalf("workload = %+v, want flat TinyNet", spec.Graph)
	}
	c := spec.Config
	if c.ArrayHeight != 16 || c.ArrayWidth != 32 || c.Dataflow != config.OutputStationary {
		t.Fatalf("overrides not applied: %+v", c)
	}
	if c.IfmapSRAMKB != 64 || c.OfmapSRAMKB != 32 {
		t.Fatalf("sram not applied: %+v", c)
	}
	if c.RunName != "t" {
		t.Fatalf("run name = %q", c.RunName)
	}
	if spec.Parts != (analytical.Partitioning{}) {
		t.Fatalf("a request without parts resolved to grid %s", spec.Parts)
	}
	so, err := Request{Net: "TinyNet", Array: "8x4", Parts: "2X4"}.Spec()
	if err != nil {
		t.Fatalf("parts: %v", err)
	}
	if so.Parts != (analytical.Partitioning{Pr: 2, Pc: 4}) {
		t.Fatalf("parts resolved to %s", so.Parts)
	}

	gspec, err := Request{Net: "BERTTiny"}.Spec()
	if err != nil {
		t.Fatalf("graph builtin: %v", err)
	}
	if gspec.Graph == nil || gspec.Graph.Flat || gspec.Graph.Name != "BERTTiny" {
		t.Fatalf("want BERTTiny graph, got %+v", gspec.Graph)
	}
}

func TestRequestInlineWorkloads(t *testing.T) {
	csv := "Layer name, IFMAP Height, IFMAP Width, Filter Height, Filter Width, Channels, Num Filter, Strides,\n" +
		"conv1, 8, 8, 3, 3, 3, 8, 1,\n"
	spec, err := Request{Run: "inlinecsv", TopologyCSV: csv}.Spec()
	if err != nil {
		t.Fatalf("inline csv: %v", err)
	}
	if spec.Graph == nil || !spec.Graph.Flat || len(spec.Graph.Nodes) != 1 || spec.Graph.Nodes[0].Name != "conv1" {
		t.Fatalf("bad inline topology: %+v", spec.Graph)
	}

	var doc strings.Builder
	g, _ := topology.BuiltInGraph("BERTTiny")
	if err := topology.WriteGraph(&doc, g); err != nil {
		t.Fatal(err)
	}
	gspec, err := Request{Graph: json.RawMessage(doc.String())}.Spec()
	if err != nil {
		t.Fatalf("inline graph: %v", err)
	}
	if gspec.Graph == nil || gspec.Graph.Flat || len(gspec.Graph.Nodes) != len(g.Nodes) {
		t.Fatalf("inline graph mismatched: %+v", gspec.Graph)
	}
}

func TestRequestErrors(t *testing.T) {
	if _, err := (Request{}).Spec(); err == nil {
		t.Fatal("empty request must fail (no workload)")
	}
	if _, err := (Request{Net: "NoSuchNet"}).Spec(); err == nil {
		t.Fatal("unknown builtin must fail")
	}
	if _, err := (Request{Net: "TinyNet", TopologyCSV: "x"}).Spec(); err == nil {
		t.Fatal("two workloads must fail")
	}
	if _, err := (Request{Net: "TinyNet", Array: "banana"}).Spec(); err == nil {
		t.Fatal("bad array must fail")
	}
	if _, err := (Request{Net: "TinyNet", DRAMBandwidth: -1}).Spec(); err == nil {
		t.Fatal("negative bandwidth must fail")
	}
	// What a scale-out job does not support is refused here, by name,
	// for the wire exactly as for the CLI.
	for _, c := range []struct {
		req  Request
		want string
	}{
		{Request{Net: "TinyNet", Parts: "0x2"}, "parts"},
		{Request{Net: "TinyNet", Parts: "2x0"}, "parts"},
		{Request{Net: "TinyNet", Parts: "-1x2"}, "parts"},
		{Request{Net: "TinyNet", Parts: "two"}, "parts"},
		// A shape is exactly its integers: no trailing field is dropped.
		{Request{Net: "TinyNet", Parts: "2x2x5"}, "parts"},
		{Request{Net: "TinyNet", Array: "8x8x3"}, `"8x8x3"`},
		{Request{Net: "TinyNet", Array: "8x8 3"}, `"8x8 3"`},
		{Request{Net: "TinyNet", SRAM: "4,4,2,9"}, `"4,4,2,9"`},
		{Request{Net: "TinyNet", SRAM: "4,4"}, `"4,4"`},
		{Request{Net: "BERTTiny", Parts: "1x2"}, `node "h0_softmax": Parts runs matmul layers only`},
		{Request{Net: "TinyNet", Parts: "1x2", DRAM: true}, "DRAM"},
		{Request{Net: "TinyNet", Parts: "1x2", DRAMBandwidth: 4}, "DRAMBandwidth"},
		// A bound that is not a number is no bound: refused, not run as an
		// unbounded link, and refused as itself beside Parts.
		{Request{Net: "TinyNet", DRAMBandwidth: math.NaN()}, "non-finite DRAM bandwidth"},
		{Request{Net: "TinyNet", DRAMBandwidth: math.Inf(1)}, "non-finite DRAM bandwidth"},
		{Request{Net: "TinyNet", Parts: "1x1", DRAMBandwidth: math.NaN()}, "non-finite DRAM bandwidth"},
	} {
		if _, err := c.req.Spec(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: Spec() = %v, want an error naming %s", c.req, err, c.want)
		}
	}
	half := tinySpec()
	half.Parts = analytical.Partitioning{Pc: 2}
	if err := half.Validate(); err == nil || !strings.Contains(err.Error(), "Parts") {
		t.Errorf("Validate(Parts 0x2) = %v, want an error naming Parts", err)
	}
}

func TestSpecKeyDiscriminates(t *testing.T) {
	a := tinySpec()
	b := tinySpec()
	if a.Key() != b.Key() {
		t.Fatal("identical specs must share a key")
	}
	b.Config = b.Config.WithArray(16, 16)
	if a.Key() == b.Key() {
		t.Fatal("different configs must key differently")
	}
	c := tinySpec()
	c.DRAMBandwidth = 4
	if a.Key() == c.Key() {
		t.Fatal("a bandwidth bound must key differently")
	}
	g, _ := topology.BuiltInGraph("BERTTiny")
	d := Spec{Config: config.New(), Graph: &g}
	if topology.ShapeKey(*d.Graph) == topology.ShapeKey(a.workload()) {
		t.Fatal("graph and flat workloads must shape-key differently")
	}
	if d.Net() != "BERTTiny" || d.Layers() != len(g.Nodes) {
		t.Fatalf("graph identity: net=%q layers=%d", d.Net(), d.Layers())
	}
}

// TestSpecKeyLiterals pins Key() byte for byte: it addresses the daemon's
// result cache and Spec.Key()-addressed run-registry entries, so a
// refactor of the workload identity must not move it. The gated
// workloads, a layer CSV, a flat built-in given as a graph and both kinds
// of sweep point are pinned with keys taken before a flat network became
// its chain graph: a flat network keys by its layer shapes however it is
// given, and a chain given as a graph keeps its graph key.
func TestSpecKeyLiterals(t *testing.T) {
	const (
		flatKey  = "sha256:8a7dd5a9f539bd1f7b0030700bc536e00317f3f822638cf8cc1b4a3d0ce4f50e:918bf38b9ae572a3"
		graphKey = "sha256:615771227592776b5598541bfea04bec4a7baac823d3ae9b4aa165208354678b:891d14e90d660bb3"
		base     = "sha256:615771227592776b5598541bfea04bec4a7baac823d3ae9b4aa165208354678b:"
		ddr3Key  = "{Channels:0 InterleaveWords:0 Banks:8 RowWords:2048 TRCD:11 TCAS:11 TRP:11 TREFI:7800 TRFC:139 BusCyclesPerWord:1 Policy:0}"
		csv      = "Layer name, IFMAP Height, IFMAP Width, Filter Height, Filter Width, Channels, Num Filter, Strides,\n" +
			"TF0,256,1,1,1,84,256,1,\nconv1, 8, 8, 3, 3, 3, 8, 1,\n"
	)
	g, _ := topology.BuiltInGraph("BERTTiny")
	ddr3 := dram.DDR3()
	flat := tinySpec()
	graph := Spec{Config: config.New(), Graph: &g}
	bounded := flat
	bounded.DRAMBandwidth = 4
	timed := graph
	timed.DRAMBandwidth = 0.5
	timed.DRAM = &ddr3
	grid := flat
	grid.Parts = analytical.Partitioning{Pr: 2, Pc: 4}

	r50, _ := topology.BuiltIn("Resnet50")
	r50Graph := r50.Graph()
	chain, _ := topology.BuiltInGraph("Resnet50")
	bb, _ := topology.BuiltInGraph("BERTBase")
	fromCSV, err := topology.ParseCSV("tf0", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	csvGraph := fromCSV.Graph()
	inline, err := Request{TopologyCSV: csv}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	byName, err := Request{Net: "Resnet50"}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		spec Spec
		want string
	}{
		{"flat TinyNet", flat, flatKey},
		{"BERTTiny graph", graph, graphKey},
		{"flat with bw", bounded, flatKey + ";bw=4"},
		{"flat on a 2x4 grid", grid, flatKey + ";parts=2x4"},
		{"graph with bw and dram", timed, graphKey + ";bw=0.5;dram=" + ddr3Key},
		{"flat Resnet50", Spec{Config: config.New(), Graph: &r50Graph}, base + "65cadfe2c8470420"},
		{"flat Resnet50 by name", byName, base + "65cadfe2c8470420"},
		{"flat Resnet50 as a Topology", Spec{Config: config.New(), Topology: r50}, base + "65cadfe2c8470420"},
		{"BERTBase with DDR3 and bw 4", Spec{Config: config.New(), Graph: &bb, DRAM: &ddr3, DRAMBandwidth: 4},
			base + "fb4796b216cea93c;bw=4;dram=" + ddr3Key},
		{"layer CSV", Spec{Config: config.New(), Graph: &csvGraph}, base + "a1852dc780f34f0a"},
		{"inline layer CSV", inline, base + "a1852dc780f34f0a"},
		{"Resnet50 given as a graph", Spec{Config: config.New(), Graph: &chain}, base + "05ef56f18b18f0e7"},
	} {
		if got := c.spec.Key(); got != c.want {
			t.Errorf("%s: Key() = %q, want %q", c.name, got, c.want)
		}
	}
	for _, c := range []struct {
		p    batch.Point
		want string
	}{
		{batch.Point{Array: [2]int{8, 8}, Dataflow: config.WeightStationary, SRAM: [3]int{4, 4, 2}, Workload: topology.TinyNet().Graph()},
			"sha256:07ca0d497898a3b47a1bf67a6a982e29b589927cbb7bcf5c33ddcf6c130b9cd8:918bf38b9ae572a3"},
		{batch.Point{Array: [2]int{16, 16}, Dataflow: config.OutputStationary, SRAM: [3]int{64, 64, 32}, Workload: g},
			"sha256:4e553686b6431bdd80d43dbde8b22fa8040f239da3e45688be4548403bcfff44:891d14e90d660bb3"},
	} {
		if got := batch.PointHash(config.New(), c.p); got != c.want {
			t.Errorf("%s: PointHash = %q, want %q", batch.PointLabel(c.p), got, c.want)
		}
	}
}
