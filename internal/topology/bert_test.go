package topology

import (
	"reflect"
	"strings"
	"testing"
)

func TestBERTConfigValidate(t *testing.T) {
	if err := bertTiny.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (BERTConfig{Seq: 0, Model: 64, Heads: 2, FF: 128}).Validate(); err == nil {
		t.Error("zero Seq accepted")
	}
	err := (BERTConfig{Seq: 8, Model: 64, Heads: 3, FF: 128}).Validate()
	if err == nil || !strings.Contains(err.Error(), "divisible") {
		t.Errorf("indivisible heads: %v", err)
	}
}

// TestBERTEncoderStructure pins the encoder block's shape: node and edge
// counts scale with the head count, the graph validates, and the
// per-head matmuls carry the right GEMM dimensions.
func TestBERTEncoderStructure(t *testing.T) {
	c := bertTiny
	g, err := BERTEncoder("enc", c)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3 projections + 3 per head + attn_out/residual/ln1 + ffn1/gelu/ffn2/residual/ln2.
	wantNodes := 3 + 3*c.Heads + 3 + 5
	if len(g.Nodes) != wantNodes {
		t.Fatalf("nodes = %d, want %d", len(g.Nodes), wantNodes)
	}
	// Edges: per head 2 (score) + 1 (softmax) + 2 (av); attn_out takes
	// Heads inputs; the remaining chain adds 8 (ffn_residual takes two).
	wantEdges := 5*c.Heads + c.Heads + 8
	if g.Edges() != wantEdges {
		t.Fatalf("edges = %d, want %d", g.Edges(), wantEdges)
	}

	dk := c.Model / c.Heads
	byName := make(map[string]Node, len(g.Nodes))
	for _, n := range g.Nodes {
		byName[n.Name] = n
	}
	score, ok := byName["h0_score"]
	if !ok || score.Kind != OpAttentionScore {
		t.Fatalf("h0_score missing or wrong kind: %+v", score)
	}
	// S x dk by dk x S GEMM: S outputs, window dk, S filters.
	if score.Layer.IfmapH != c.Seq || score.Layer.Channels != dk || score.Layer.NumFilters != c.Seq {
		t.Errorf("score shape: %+v", score.Layer)
	}
	soft := byName["h0_softmax"]
	if soft.Rows() != int64(c.Seq) || soft.Cols() != int64(c.Seq) {
		t.Errorf("softmax tensor %dx%d, want %dx%d", soft.Rows(), soft.Cols(), c.Seq, c.Seq)
	}
	ln := byName["ln1"]
	if ln.Kind != OpLayerNorm || ln.Cols() != int64(c.Model) {
		t.Errorf("ln1: %+v", ln)
	}
	// The attention residual streams two operands though only one edge is
	// in-graph (the block input arrives from DRAM).
	res := byName["attn_residual"]
	if res.OperandCount() != 2 || len(res.Inputs) != 1 {
		t.Errorf("attn_residual operands=%d inputs=%d", res.OperandCount(), len(res.Inputs))
	}
}

func TestBuiltInGraph(t *testing.T) {
	for _, name := range BuiltInGraphNames() {
		g, err := BuiltInGraph(name)
		if err != nil {
			t.Fatal(err)
		}
		if g.Name != name {
			t.Errorf("graph name %q, want %q", g.Name, name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Flat built-ins resolve through the chain adapter.
	g, err := BuiltInGraph("TinyNet")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, ChainGraph(TinyNet())) {
		t.Error("TinyNet graph is not its linear chain")
	}
	if _, err := BuiltInGraph("NoSuchNet"); err == nil {
		t.Error("unknown name accepted")
	}
}
