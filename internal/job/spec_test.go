package job

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/topology"
)

func TestRequestResolvesBuiltins(t *testing.T) {
	spec, err := Request{Net: "TinyNet", Array: "16x32", Dataflow: "os", SRAM: "64,64,32", Run: "t"}.Spec()
	if err != nil {
		t.Fatalf("Spec: %v", err)
	}
	if spec.Graph != nil || spec.Topology.Name != "TinyNet" {
		t.Fatalf("workload = %q/%v, want flat TinyNet", spec.Topology.Name, spec.Graph)
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
	if gspec.Graph == nil || gspec.Graph.Name != "BERTTiny" {
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
	if len(spec.Topology.Layers) != 1 || spec.Topology.Layers[0].Name != "conv1" {
		t.Fatalf("bad inline topology: %+v", spec.Topology)
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
	if gspec.Graph == nil || len(gspec.Graph.Nodes) != len(g.Nodes) {
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
		{Request{Net: "BERTTiny", Parts: "1x2"}, "Graph"},
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
	if topology.ShapeKey(d.Topology, d.Graph) == topology.ShapeKey(a.Topology, a.Graph) {
		t.Fatal("graph and flat workloads must shape-key differently")
	}
	if d.Net() != "BERTTiny" || d.Layers() != len(g.Nodes) {
		t.Fatalf("graph identity: net=%q layers=%d", d.Net(), d.Layers())
	}
}

// TestSpecKeyLiterals pins Key() byte for byte: it addresses the daemon's
// result cache and Spec.Key()-addressed run-registry entries, so a
// refactor of the workload identity must not move it.
func TestSpecKeyLiterals(t *testing.T) {
	const (
		flatKey  = "sha256:8a7dd5a9f539bd1f7b0030700bc536e00317f3f822638cf8cc1b4a3d0ce4f50e:918bf38b9ae572a3"
		graphKey = "sha256:615771227592776b5598541bfea04bec4a7baac823d3ae9b4aa165208354678b:891d14e90d660bb3"
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
	for _, c := range []struct {
		name string
		spec Spec
		want string
	}{
		{"flat TinyNet", flat, flatKey},
		{"BERTTiny graph", graph, graphKey},
		{"flat with bw", bounded, flatKey + ";bw=4"},
		{"flat on a 2x4 grid", grid, flatKey + ";parts=2x4"},
		{"graph with bw and dram", timed, graphKey + ";bw=0.5;dram={Channels:0 InterleaveWords:0 Banks:8 RowWords:2048 " +
			"TRCD:11 TCAS:11 TRP:11 TREFI:7800 TRFC:139 BusCyclesPerWord:1 Policy:0}"},
	} {
		if got := c.spec.Key(); got != c.want {
			t.Errorf("%s: Key() = %q, want %q", c.name, got, c.want)
		}
	}
}
