package topology

import (
	"fmt"
	"strings"
)

// BERTConfig sizes a BERT-style transformer encoder block.
type BERTConfig struct {
	// Seq is the sequence length (tokens per batch).
	Seq int
	// Model is the model (hidden) dimension; must divide evenly by Heads.
	Model int
	// Heads is the number of attention heads.
	Heads int
	// FF is the feed-forward inner dimension.
	FF int
}

// Validate reports the first problem with the configuration, or nil.
func (c BERTConfig) Validate() error {
	switch {
	case c.Seq < 1 || c.Model < 1 || c.Heads < 1 || c.FF < 1:
		return fmt.Errorf("topology: BERT config %+v: all dimensions must be positive", c)
	case c.Model%c.Heads != 0:
		return fmt.Errorf("topology: BERT config: model dim %d not divisible by %d heads", c.Model, c.Heads)
	}
	return nil
}

// BERTEncoder builds the operator graph of one post-norm transformer
// encoder block: Q/K/V projections, per-head attention (QK^T score →
// softmax → AV), the output projection with residual add and layernorm,
// then the two-GEMM feed-forward network with GELU, residual add and the
// closing layernorm. Projections are GEMMs over the full model dimension;
// per-head matmuls use the head dimension d_k = Model/Heads. The graph is
// wide — three independent projections, Heads independent attention
// branches — and repeats itself: the branches, and the four model-sized
// projections, are each one shape.
func BERTEncoder(name string, c BERTConfig) (Graph, error) {
	if err := c.Validate(); err != nil {
		return Graph{}, err
	}
	s, d, f := c.Seq, c.Model, c.FF
	dk := d / c.Heads
	g := Graph{Name: name}
	add := func(n Node) { g.Nodes = append(g.Nodes, n) }

	// Input projections: X (S x D) times W (D x D), streamed from DRAM.
	add(Node{Name: "q_proj", Kind: OpConv, Layer: FromGEMM("q_proj", s, d, d)})
	add(Node{Name: "k_proj", Kind: OpConv, Layer: FromGEMM("k_proj", s, d, d)})
	add(Node{Name: "v_proj", Kind: OpConv, Layer: FromGEMM("v_proj", s, d, d)})

	// Per-head attention: score (S x dk by dk x S), softmax over rows of
	// the S x S probability matrix, then AV (S x S by S x dk).
	avNames := make([]string, 0, c.Heads)
	for h := 0; h < c.Heads; h++ {
		score := fmt.Sprintf("h%d_score", h)
		soft := fmt.Sprintf("h%d_softmax", h)
		av := fmt.Sprintf("h%d_av", h)
		add(Node{Name: score, Kind: OpAttentionScore,
			Layer: FromGEMM(score, s, dk, s), Inputs: []string{"q_proj", "k_proj"}})
		add(Node{Name: soft, Kind: OpSoftmax,
			Layer: FromTensor(soft, s, s), Inputs: []string{score}})
		add(Node{Name: av, Kind: OpAttentionValue,
			Layer: FromGEMM(av, s, s, dk), Inputs: []string{soft, "v_proj"}})
		avNames = append(avNames, av)
	}

	// Output projection over the concatenated heads, residual add with
	// the block input (second operand from outside the graph), layernorm.
	add(Node{Name: "attn_out", Kind: OpConv, Layer: FromGEMM("attn_out", s, d, d), Inputs: avNames})
	add(Node{Name: "attn_residual", Kind: OpElementwise,
		Layer: FromTensor("attn_residual", s, d), Inputs: []string{"attn_out"}, Operands: 2})
	add(Node{Name: "ln1", Kind: OpLayerNorm,
		Layer: FromTensor("ln1", s, d), Inputs: []string{"attn_residual"}})

	// Feed-forward network: expand, GELU, contract, residual, layernorm.
	add(Node{Name: "ffn1", Kind: OpConv, Layer: FromGEMM("ffn1", s, d, f), Inputs: []string{"ln1"}})
	add(Node{Name: "gelu", Kind: OpElementwise,
		Layer: FromTensor("gelu", s, f), Inputs: []string{"ffn1"}})
	add(Node{Name: "ffn2", Kind: OpConv, Layer: FromGEMM("ffn2", s, f, d), Inputs: []string{"gelu"}})
	add(Node{Name: "ffn_residual", Kind: OpElementwise,
		Layer: FromTensor("ffn_residual", s, d), Inputs: []string{"ffn2", "ln1"}})
	add(Node{Name: "ln2", Kind: OpLayerNorm,
		Layer: FromTensor("ln2", s, d), Inputs: []string{"ffn_residual"}})
	return g, nil
}

// Built-in encoder configurations. BERTTiny is sized for fast smoke runs
// and CI; BERTBase matches the published BERT-Base hyper-parameters.
var (
	bertTiny = BERTConfig{Seq: 32, Model: 64, Heads: 2, FF: 128}
	bertBase = BERTConfig{Seq: 128, Model: 768, Heads: 12, FF: 3072}
)

// builtinGraphs maps built-in graph names to their builders.
func builtinGraphs() map[string]func() (Graph, error) {
	return map[string]func() (Graph, error){
		"BERTTiny": func() (Graph, error) { return BERTEncoder("BERTTiny", bertTiny) },
		"BERTBase": func() (Graph, error) { return BERTEncoder("BERTBase", bertBase) },
	}
}

// BuiltInGraphNames lists the native operator-graph workloads, in the
// order they should be presented.
func BuiltInGraphNames() []string { return []string{"BERTTiny", "BERTBase"} }

// BuiltInGraph returns a built-in workload as an operator graph: native
// graphs (the BERT encoder blocks) by their own names, and every flat
// built-in network (ResNet50, the Table IV GEMMs, ...) as its linear
// chain. Name matching follows BuiltIn's conventions for the flat set.
func BuiltInGraph(name string) (Graph, error) {
	g, err := Workload(name)
	g.Flat = false
	return g, err
}

// Workload resolves a built-in workload name the way every front end
// does: a flat network (as its Topology.Graph) first, then the native
// operator graphs.
func Workload(name string) (Graph, error) {
	if t, ok := BuiltIn(name); ok {
		return t.Graph(), nil
	}
	if build, ok := builtinGraphs()[name]; ok {
		return build()
	}
	return Graph{}, fmt.Errorf("topology: unknown built-in workload %q (have %s)", name,
		strings.Join(append(BuiltInNames(), BuiltInGraphNames()...), ", "))
}
