package topology

import (
	"container/heap"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// OpKind classifies an operator node. Matmul-shaped kinds (convolution,
// the attention GEMMs) lower onto the systolic array through the existing
// Layer machinery; vector-shaped kinds (softmax, layernorm, element-wise)
// execute on the accelerator's vector unit with their own cycle and
// traffic model. The string values are the spellings used in graph JSON
// files, manifests and reports.
type OpKind string

const (
	// OpConv is a convolution or GEMM executed on the systolic array (a
	// classic Table II layer).
	OpConv OpKind = "conv"
	// OpAttentionScore is the QK^T attention-score matmul: for sequence
	// length S and head dimension d_k, an S x d_k by d_k x S GEMM.
	OpAttentionScore OpKind = "attn_score"
	// OpAttentionValue is the AV matmul applying attention probabilities
	// to values: an S x S by S x d_k GEMM.
	OpAttentionValue OpKind = "attn_value"
	// OpSoftmax normalizes each row of its tensor on the vector unit.
	OpSoftmax OpKind = "softmax"
	// OpLayerNorm normalizes each row and applies a learned scale/shift
	// (gamma/beta, one pair per column) on the vector unit.
	OpLayerNorm OpKind = "layernorm"
	// OpElementwise is an element-wise map over one or more equal-shaped
	// tensors (residual add, GELU, bias add) on the vector unit.
	OpElementwise OpKind = "eltwise"
)

// OpKinds lists every operator kind in canonical order.
var OpKinds = []OpKind{
	OpConv, OpAttentionScore, OpAttentionValue,
	OpSoftmax, OpLayerNorm, OpElementwise,
}

// ParseOpKind converts the textual spelling to an OpKind.
func ParseOpKind(s string) (OpKind, error) {
	k := OpKind(strings.ToLower(strings.TrimSpace(s)))
	if k.Valid() {
		return k, nil
	}
	names := make([]string, len(OpKinds))
	for i, v := range OpKinds {
		names[i] = string(v)
	}
	return "", fmt.Errorf("topology: unknown operator kind %q (legal: %s)",
		s, strings.Join(names, ", "))
}

// Valid reports whether k is a recognized kind.
func (k OpKind) Valid() bool {
	switch k {
	case OpConv, OpAttentionScore, OpAttentionValue, OpSoftmax, OpLayerNorm, OpElementwise:
		return true
	}
	return false
}

// Matmul reports whether the kind lowers onto the systolic array.
func (k OpKind) Matmul() bool {
	return k == OpConv || k == OpAttentionScore || k == OpAttentionValue
}

// Vector reports whether the kind executes on the vector unit.
func (k OpKind) Vector() bool { return k.Valid() && !k.Matmul() }

// FromTensor encodes an M x N tensor as the degenerate Layer a
// vector-shaped node carries: the tensor occupies the IFMAP plane and the
// filter is the 1x1x1 identity, so IfmapWords is the element count and
// every Layer helper (Validate, Key) applies unchanged.
func FromTensor(name string, rows, cols int) Layer {
	return Layer{
		Name:   name,
		IfmapH: rows, IfmapW: cols,
		FilterH: 1, FilterW: 1,
		Channels: 1, NumFilters: 1, Stride: 1,
	}
}

// Node is one operator of a workload graph: a kind, a shape, and the
// names of the nodes whose outputs it consumes. Matmul-shaped kinds carry
// their full convolution/GEMM hyper-parameters in Layer; vector-shaped
// kinds carry the FromTensor encoding of the tensor they process.
type Node struct {
	// Name is the unique node tag.
	Name string
	// Kind is the operator kind.
	Kind OpKind
	// Layer holds the node's shape (see FromTensor for vector kinds).
	Layer Layer
	// Inputs names the producer nodes this node depends on, in operand
	// order. Empty for graph inputs (operands stream from DRAM).
	Inputs []string
	// Operands is the number of input tensors a vector-shaped node
	// streams; zero defaults to max(1, len(Inputs)). A residual add whose
	// second operand comes from outside the graph sets Operands = 2
	// explicitly. Must be zero for matmul kinds (their operand traffic is
	// the Layer's IFMAP/filter streams).
	Operands int
}

// NodeOf wraps a classic layer as a systolic (conv/GEMM) node.
func NodeOf(l Layer, inputs ...string) Node {
	return Node{Name: l.Name, Kind: OpConv, Layer: l, Inputs: inputs}
}

// OperandCount resolves the number of streamed input tensors of a
// vector-shaped node.
func (n Node) OperandCount() int {
	if n.Operands > 0 {
		return n.Operands
	}
	if len(n.Inputs) > 1 {
		return len(n.Inputs)
	}
	return 1
}

// Rows and Cols return the tensor dimensions of a vector-shaped node
// (rows are normalized independently by softmax/layernorm).
func (n Node) Rows() int64 { return int64(n.Layer.IfmapH) }

// Cols returns the row length of a vector-shaped node's tensor.
func (n Node) Cols() int64 { return int64(n.Layer.IfmapW) * int64(n.Layer.Channels) }

// Elems returns the element count of a vector-shaped node's tensor.
func (n Node) Elems() int64 { return n.Layer.IfmapWords() }

// Validate reports the first structural problem with the node, or nil.
func (n Node) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("topology: node has no name")
	}
	if !n.Kind.Valid() {
		return fmt.Errorf("topology: node %q: unknown operator kind %q", n.Name, n.Kind)
	}
	l := n.Layer
	l.Name = n.Name // nodes may share one shape value; the node name rules
	if err := l.Validate(); err != nil {
		return err
	}
	if n.Kind.Matmul() {
		if n.Operands != 0 {
			return fmt.Errorf("topology: node %q: Operands is only meaningful for vector kinds", n.Name)
		}
		return nil
	}
	if n.Operands < 0 {
		return fmt.Errorf("topology: node %q: negative operand count %d", n.Name, n.Operands)
	}
	if l.FilterH != 1 || l.FilterW != 1 || l.NumFilters != 1 || l.Stride != 1 {
		return fmt.Errorf("topology: node %q: vector op %s needs the FromTensor shape encoding (1x1x1 filter, stride 1)",
			n.Name, n.Kind)
	}
	if n.Kind != OpElementwise && n.OperandCount() != 1 {
		return fmt.Errorf("topology: node %q: %s takes exactly one operand, got %d",
			n.Name, n.Kind, n.OperandCount())
	}
	return nil
}

// Key returns the node's canonical identity for result caching and reuse
// statistics: the operator kind, the streamed-operand count when it
// shapes the traffic (element-wise ops), and the Layer shape key. Two
// same-shaped nodes of different kinds — a GEMM and an attention-score
// matmul, or a softmax and a layernorm — never share a key.
func (n Node) Key() string {
	key := "op=" + string(n.Kind)
	if n.Kind == OpElementwise {
		key += fmt.Sprintf(";x%d", n.OperandCount())
	}
	return key + "|" + n.Layer.Key()
}

// ShapeKey is the canonical identity of a workload — graph g when
// non-nil, else the flat topology t: the node keys (graph) or layer shape
// keys (flat) joined by ';', user-facing names excluded. Job keys, batch
// point hashes and shard assignment are all derived from it.
func ShapeKey(t Topology, g *Graph) string {
	var keys []string
	if g != nil {
		for i := range g.Nodes {
			keys = append(keys, g.Nodes[i].Key())
		}
	} else {
		for _, l := range t.Layers {
			keys = append(keys, l.Key())
		}
	}
	return strings.Join(keys, ";")
}

// ContentKey is the content address of a workload on a configuration:
// the configuration's canonical hash crossed with the SHA-256 of the
// workload's ShapeKey. Equal keys mean equal simulation outcomes; job keys
// and batch point hashes are both this string.
func ContentKey(configHash string, t Topology, g *Graph) string {
	sum := sha256.Sum256([]byte(ShapeKey(t, g)))
	return configHash + ":" + hex.EncodeToString(sum[:8])
}

// Work returns the node's useful work: MAC operations for matmul kinds,
// tensor elements for vector kinds.
func (n Node) Work() int64 {
	if n.Kind.Matmul() {
		return n.Layer.MACOps()
	}
	return n.Elems()
}

// Graph is an operator-graph workload: nodes with explicit dependency
// edges. Unlike the flat Topology — which serializes layers in file order
// and treats them as independent — a Graph carries the true producer →
// consumer structure of the network, which is what non-GEMM operator
// modeling and (eventually) inter-layer pipelining need. The modeled hardware still executes one node at a
// time; see ExecutionOrder for the serialized order.
type Graph struct {
	// Name tags the workload.
	Name string
	// Nodes holds the operators in declaration order.
	Nodes []Node
}

// ChainGraph adapts a flat topology into the equivalent operator graph: a
// linear chain of conv nodes, each consuming its predecessor. Every
// existing CSV workload and built-in network remains expressible this
// way; the chain's execution order is exactly the file order, so results
// match the flat path.
func ChainGraph(t Topology) Graph {
	g := Graph{Name: t.Name, Nodes: make([]Node, 0, len(t.Layers))}
	for i, l := range t.Layers {
		var inputs []string
		if i > 0 {
			inputs = []string{t.Layers[i-1].Name}
		}
		g.Nodes = append(g.Nodes, Node{Name: l.Name, Kind: OpConv, Layer: l, Inputs: inputs})
	}
	return g
}

// Edges returns the dependency-edge count.
func (g Graph) Edges() int {
	total := 0
	for _, n := range g.Nodes {
		total += len(n.Inputs)
	}
	return total
}

// TotalWork sums Work over all nodes.
func (g Graph) TotalWork() int64 {
	var total int64
	for _, n := range g.Nodes {
		total += n.Work()
	}
	return total
}

// index maps node names to declaration positions, erroring on duplicates.
func (g Graph) index() (map[string]int, error) {
	idx := make(map[string]int, len(g.Nodes))
	for i, n := range g.Nodes {
		if _, dup := idx[n.Name]; dup {
			return nil, fmt.Errorf("topology: graph %q: duplicate node name %q", g.Name, n.Name)
		}
		idx[n.Name] = i
	}
	return idx, nil
}

// Validate checks every node, resolves every input edge (a dangling input
// is an error naming both ends), and rejects cyclic graphs.
func (g Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("topology: graph %q: no nodes", g.Name)
	}
	idx, err := g.index()
	if err != nil {
		return err
	}
	for _, n := range g.Nodes {
		if err := n.Validate(); err != nil {
			return fmt.Errorf("topology: graph %q: %w", g.Name, err)
		}
		for _, in := range n.Inputs {
			if _, ok := idx[in]; !ok {
				return fmt.Errorf("topology: graph %q: node %q consumes unknown input %q",
					g.Name, n.Name, in)
			}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// intHeap is a min-heap of node indices for the deterministic Kahn walk.
type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h *intHeap) push(i int)        { heap.Push(h, i) }
func (h *intHeap) pop() int          { return heap.Pop(h).(int) }
func newIntHeap(v []int) *intHeap    { h := intHeap(v); heap.Init(&h); return &h }

// TopoOrder returns a deterministic topological order of the node
// indices: Kahn's algorithm dispatching the lowest declaration index
// among ready nodes first, so equal graphs always schedule — and report —
// identically. Cyclic graphs are rejected with the smallest unresolved
// node set named.
func (g Graph) TopoOrder() ([]int, error) {
	idx, err := g.index()
	if err != nil {
		return nil, err
	}
	indeg := make([]int, len(g.Nodes))
	succs := make([][]int, len(g.Nodes))
	for i, n := range g.Nodes {
		for _, in := range n.Inputs {
			j, ok := idx[in]
			if !ok {
				return nil, fmt.Errorf("topology: graph %q: node %q consumes unknown input %q",
					g.Name, n.Name, in)
			}
			indeg[i]++
			succs[j] = append(succs[j], i)
		}
	}
	var ready []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	h := newIntHeap(ready)
	order := make([]int, 0, len(g.Nodes))
	for h.Len() > 0 {
		i := h.pop()
		order = append(order, i)
		for _, s := range succs[i] {
			if indeg[s]--; indeg[s] == 0 {
				h.push(s)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		var stuck []string
		for i, d := range indeg {
			if d > 0 {
				stuck = append(stuck, g.Nodes[i].Name)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("topology: graph %q: dependency cycle through %s",
			g.Name, strings.Join(stuck, ", "))
	}
	return order, nil
}

// Schedule resolves the graph into its deterministic execution form: the
// nodes in topological order and, for each position, the positions of its
// predecessors (all strictly smaller). The order is what the simulator
// executes and reports; the predecessor lists are the contract of
// engine.RunDAG.
func (g Graph) Schedule() (nodes []Node, preds [][]int, err error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	pos := make([]int, len(g.Nodes)) // declaration index -> schedule position
	for p, i := range order {
		pos[i] = p
	}
	idx, _ := g.index() // TopoOrder already vetted duplicates
	nodes = make([]Node, len(order))
	preds = make([][]int, len(order))
	for p, i := range order {
		nodes[p] = g.Nodes[i]
		for _, in := range g.Nodes[i].Inputs {
			preds[p] = append(preds[p], pos[idx[in]])
		}
		sort.Ints(preds[p])
	}
	return nodes, preds, nil
}

// ExecutionOrder returns the nodes in the deterministic serialized order
// the modeled hardware executes them.
func (g Graph) ExecutionOrder() ([]Node, error) {
	nodes, _, err := g.Schedule()
	return nodes, err
}

// KindCount is one operator kind's usage within a graph.
type KindCount struct {
	// Kind is the operator kind.
	Kind OpKind
	// Nodes is the number of nodes of this kind.
	Nodes int
	// Keys is the number of distinct canonical node keys among them.
	Keys int
	// Work sums Work over the kind's nodes.
	Work int64
}

// KindStats groups the graph's nodes by operator kind, in canonical kind
// order, counting nodes, distinct shape keys and total work per kind.
func (g Graph) KindStats() []KindCount {
	type acc struct {
		nodes int
		keys  map[string]bool
		work  int64
	}
	byKind := make(map[OpKind]*acc)
	for _, n := range g.Nodes {
		a := byKind[n.Kind]
		if a == nil {
			a = &acc{keys: make(map[string]bool)}
			byKind[n.Kind] = a
		}
		a.nodes++
		a.keys[n.Key()] = true
		a.work += n.Work()
	}
	out := make([]KindCount, 0, len(byKind))
	for _, k := range OpKinds {
		if a, ok := byKind[k]; ok {
			out = append(out, KindCount{Kind: k, Nodes: a.nodes, Keys: len(a.keys), Work: a.work})
		}
	}
	return out
}

// NodeKeyCount is one canonical node key's usage within a graph — the
// graph analogue of KeyCount, with the operator kind alongside.
type NodeKeyCount struct {
	// Key is the canonical node key (Node.Key).
	Key string
	// Kind is the operator kind the key belongs to.
	Kind OpKind
	// Count is the number of nodes with this key.
	Count int
	// First names the first node carrying the key; Work is one
	// occurrence's work (MACs or elements).
	First string
	Work  int64
}

// KeyStats groups the graph's nodes by canonical node key, in first-seen
// order. As with Topology.KeyStats, the node-to-key ratio is the reuse a
// memoizing result cache exploits — but keyed per operator kind, so a
// GEMM and a same-shaped attention matmul count separately.
func (g Graph) KeyStats() []NodeKeyCount {
	index := make(map[string]int, len(g.Nodes))
	out := make([]NodeKeyCount, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		k := n.Key()
		if i, ok := index[k]; ok {
			out[i].Count++
			continue
		}
		index[k] = len(out)
		out = append(out, NodeKeyCount{Key: k, Kind: n.Kind, Count: 1, First: n.Name, Work: n.Work()})
	}
	return out
}
