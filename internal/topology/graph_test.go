package topology

import (
	"reflect"
	"strings"
	"testing"
)

// diamond builds a 4-node diamond: a feeds b and c, which both feed d.
func diamond() Graph {
	return Graph{Name: "diamond", Nodes: []Node{
		NodeOf(FromGEMM("a", 8, 8, 8)),
		NodeOf(FromGEMM("b", 8, 8, 8), "a"),
		NodeOf(FromGEMM("c", 8, 8, 8), "a"),
		{Name: "d", Kind: OpElementwise, Layer: FromTensor("d", 8, 8), Inputs: []string{"b", "c"}},
	}}
}

func TestOpKindClassification(t *testing.T) {
	for _, k := range OpKinds {
		if !k.Valid() {
			t.Errorf("%s: not valid", k)
		}
		if k.Matmul() == k.Vector() {
			t.Errorf("%s: matmul=%v vector=%v, want exactly one", k, k.Matmul(), k.Vector())
		}
		parsed, err := ParseOpKind(string(k))
		if err != nil || parsed != k {
			t.Errorf("ParseOpKind(%q) = %q, %v", k, parsed, err)
		}
	}
	if _, err := ParseOpKind("transpose"); err == nil {
		t.Error("ParseOpKind accepted unknown kind")
	}
	if OpKind("").Valid() || OpKind("").Vector() {
		t.Error("empty kind classified")
	}
}

func TestFromTensor(t *testing.T) {
	l := FromTensor("t", 32, 64)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := l.IfmapWords(); got != 32*64 {
		t.Fatalf("IfmapWords = %d, want %d", got, 32*64)
	}
	n := Node{Name: "t", Kind: OpSoftmax, Layer: l}
	if n.Rows() != 32 || n.Cols() != 64 || n.Elems() != 2048 {
		t.Fatalf("tensor dims: rows=%d cols=%d elems=%d", n.Rows(), n.Cols(), n.Elems())
	}
}

func TestNodeValidate(t *testing.T) {
	cases := []struct {
		name string
		node Node
		want string // substring of the error; empty means valid
	}{
		{"gemm", NodeOf(FromGEMM("g", 4, 4, 4)), ""},
		{"softmax", Node{Name: "s", Kind: OpSoftmax, Layer: FromTensor("s", 4, 4)}, ""},
		{"eltwise2", Node{Name: "e", Kind: OpElementwise, Layer: FromTensor("e", 4, 4), Operands: 2}, ""},
		{"unnamed", Node{Kind: OpConv, Layer: FromGEMM("", 4, 4, 4)}, "no name"},
		{"badkind", Node{Name: "x", Kind: "pool", Layer: FromGEMM("x", 4, 4, 4)}, "unknown operator kind"},
		{"matmul-operands", Node{Name: "g", Kind: OpConv, Layer: FromGEMM("g", 4, 4, 4), Operands: 2}, "only meaningful for vector"},
		{"vector-conv-shape", Node{Name: "s", Kind: OpSoftmax, Layer: FromGEMM("s", 4, 4, 4)}, "FromTensor shape"},
		{"softmax-two-operands", Node{Name: "s", Kind: OpSoftmax, Layer: FromTensor("s", 4, 4), Operands: 2}, "exactly one operand"},
		{"negative-operands", Node{Name: "e", Kind: OpElementwise, Layer: FromTensor("e", 4, 4), Operands: -1}, "negative operand"},
	}
	for _, tc := range cases {
		err := tc.node.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: error missing (want %q)", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q lacks %q", tc.name, err, tc.want)
		}
	}
}

// TestNodeKeyKindDistinct pins the cache-identity contract: two nodes
// with identical shapes but different operator kinds must never share a
// canonical key (a GEMM result replayed for an attention matmul — or a
// softmax for a layernorm — would be wrong).
func TestNodeKeyKindDistinct(t *testing.T) {
	l := FromGEMM("x", 16, 32, 16)
	gemm := Node{Name: "x", Kind: OpConv, Layer: l}
	score := Node{Name: "x", Kind: OpAttentionScore, Layer: l}
	if gemm.Key() == score.Key() {
		t.Fatalf("GEMM and attention-score keys collide: %s", gemm.Key())
	}
	tl := FromTensor("y", 16, 16)
	sm := Node{Name: "y", Kind: OpSoftmax, Layer: tl}
	ln := Node{Name: "y", Kind: OpLayerNorm, Layer: tl}
	if sm.Key() == ln.Key() {
		t.Fatalf("softmax and layernorm keys collide: %s", sm.Key())
	}
	// Element-wise keys also distinguish the streamed-operand count.
	add := Node{Name: "y", Kind: OpElementwise, Layer: tl, Operands: 2}
	gelu := Node{Name: "y", Kind: OpElementwise, Layer: tl, Operands: 1}
	if add.Key() == gelu.Key() {
		t.Fatalf("eltwise keys ignore operand count: %s", add.Key())
	}
	// The layer shape still participates.
	if a, b := NodeOf(FromGEMM("a", 4, 4, 4)), NodeOf(FromGEMM("b", 4, 4, 8)); a.Key() == b.Key() {
		t.Fatal("different shapes share a key")
	}
}

func TestGraphValidate(t *testing.T) {
	if err := diamond().Validate(); err != nil {
		t.Fatalf("diamond invalid: %v", err)
	}

	empty := Graph{Name: "empty"}
	if err := empty.Validate(); err == nil || !strings.Contains(err.Error(), "no nodes") {
		t.Errorf("empty graph: %v", err)
	}

	dup := Graph{Name: "dup", Nodes: []Node{
		NodeOf(FromGEMM("a", 4, 4, 4)), NodeOf(FromGEMM("a", 4, 4, 4)),
	}}
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate node name") {
		t.Errorf("duplicate names: %v", err)
	}

	dangling := Graph{Name: "dangling", Nodes: []Node{
		NodeOf(FromGEMM("a", 4, 4, 4), "ghost"),
	}}
	err := dangling.Validate()
	if err == nil || !strings.Contains(err.Error(), `"a"`) || !strings.Contains(err.Error(), `"ghost"`) {
		t.Errorf("dangling input error must name both ends: %v", err)
	}

	cyclic := Graph{Name: "cyclic", Nodes: []Node{
		NodeOf(FromGEMM("a", 4, 4, 4), "c"),
		NodeOf(FromGEMM("b", 4, 4, 4), "a"),
		NodeOf(FromGEMM("c", 4, 4, 4), "b"),
	}}
	err = cyclic.Validate()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle: %v", err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("cycle error %q does not name node %s", err, name)
		}
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	g := diamond()
	want, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, []int{0, 1, 2, 3}) {
		t.Fatalf("diamond order = %v", want)
	}
	for i := 0; i < 50; i++ {
		got, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("order changed between calls: %v vs %v", got, want)
		}
	}
	// Declaration order is not execution order: declare d before its
	// producers and the lowest-ready-index rule must still schedule the
	// producers first.
	rev := Graph{Name: "rev", Nodes: []Node{
		{Name: "d", Kind: OpElementwise, Layer: FromTensor("d", 8, 8), Inputs: []string{"b", "c"}},
		NodeOf(FromGEMM("b", 8, 8, 8), "a"),
		NodeOf(FromGEMM("c", 8, 8, 8), "a"),
		NodeOf(FromGEMM("a", 8, 8, 8)),
	}}
	got, err := rev.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{3, 1, 2, 0}) {
		t.Fatalf("reversed diamond order = %v, want [3 1 2 0]", got)
	}
}

func TestSchedulePreds(t *testing.T) {
	nodes, preds, err := diamond().Schedule()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Name
	}
	if !reflect.DeepEqual(names, []string{"a", "b", "c", "d"}) {
		t.Fatalf("schedule order = %v", names)
	}
	want := [][]int{nil, {0}, {0}, {1, 2}}
	if !reflect.DeepEqual(preds, want) {
		t.Fatalf("preds = %v, want %v", preds, want)
	}
	for p, ps := range preds {
		for _, q := range ps {
			if q >= p {
				t.Fatalf("pred %d of position %d not strictly earlier", q, p)
			}
		}
	}
}

// TestChainGraphRoundTrip pins the linear-chain adapter: every built-in
// flat workload lifts into a valid graph that schedules as the topology,
// layer for layer, each conv node fed by its predecessor alone.
func TestChainGraphRoundTrip(t *testing.T) {
	for _, name := range BuiltInNames() {
		topo, _ := BuiltIn(name)
		g := ChainGraph(topo)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: chain graph invalid: %v", name, err)
			continue
		}
		if g.Edges() != len(topo.Layers)-1 {
			t.Errorf("%s: chain has %d edges, want %d", name, g.Edges(), len(topo.Layers)-1)
		}
		nodes, preds, err := g.Schedule()
		if err != nil || len(nodes) != len(topo.Layers) {
			t.Fatalf("%s: schedule of %d nodes, %v", name, len(nodes), err)
		}
		for p, n := range nodes {
			chained := len(preds[p]) == 0
			if p > 0 {
				chained = len(preds[p]) == 1 && preds[p][0] == p-1
			}
			if n.Kind != OpConv || n.Name != topo.Layers[p].Name || !reflect.DeepEqual(n.Layer, topo.Layers[p]) || !chained {
				t.Errorf("%s: scheduled node %d is not layer %d of the chain", name, p, p)
			}
		}
		if g.TotalWork() != topo.TotalMACOps() {
			t.Errorf("%s: TotalWork %d != TotalMACOps %d", name, g.TotalWork(), topo.TotalMACOps())
		}
	}
}

func TestGraphStats(t *testing.T) {
	g, err := BuiltInGraph("BERTTiny")
	if err != nil {
		t.Fatal(err)
	}
	kinds := g.KindStats()
	seen := make(map[OpKind]KindCount)
	nodes := 0
	for _, k := range kinds {
		seen[k.Kind] = k
		nodes += k.Nodes
	}
	if nodes != len(g.Nodes) {
		t.Fatalf("kind stats cover %d nodes, graph has %d", nodes, len(g.Nodes))
	}
	// Two heads: the per-head ops dedup to one key each.
	for _, k := range []OpKind{OpAttentionScore, OpAttentionValue, OpSoftmax} {
		if c := seen[k]; c.Nodes != 2 || c.Keys != 1 {
			t.Errorf("%s: nodes=%d keys=%d, want 2/1", k, c.Nodes, c.Keys)
		}
	}
	total := 0
	for _, k := range g.KeyStats() {
		total += k.Count
	}
	if total != len(g.Nodes) {
		t.Fatalf("key stats cover %d nodes, graph has %d", total, len(g.Nodes))
	}
}
