// Package topology models neural-network workload descriptions: individual
// layers with their hyper-parameters (Table II of the paper), whole-network
// topologies, the CSV file format used by the original SCALE-Sim tool, and a
// set of built-in workloads used throughout the paper's evaluation
// (ResNet50's convolution/FC layers and the Table IV language-model GEMMs).
package topology

import (
	"fmt"
)

// Layer describes one convolution layer, one CSV row of a topology file.
// Fully-connected (matrix-vector and matrix-matrix) layers are expressed as
// the degenerate convolution the paper describes: a filter the same size as
// the IFMAP window, constructed with FromGEMM.
type Layer struct {
	// Name is the user-defined tag for the layer.
	Name string
	// IfmapH and IfmapW are the input feature map dimensions.
	IfmapH, IfmapW int
	// FilterH and FilterW are the dimensions of one filter kernel.
	FilterH, FilterW int
	// Channels is the number of input channels.
	Channels int
	// NumFilters is the number of filters, which equals the number of OFMAP
	// channels.
	NumFilters int
	// Stride is the convolution stride (equal in both dimensions).
	Stride int
}

// FromGEMM expresses an M x K by K x N matrix multiplication as the
// degenerate convolution SCALE-Sim uses for fully-connected layers: M output
// rows, a 1x1xK window, and N filters.
func FromGEMM(name string, m, k, n int) Layer {
	return Layer{
		Name:       name,
		IfmapH:     m,
		IfmapW:     1,
		FilterH:    1,
		FilterW:    1,
		Channels:   k,
		NumFilters: n,
		Stride:     1,
	}
}

// Validate reports the first structural problem with the layer, or nil.
func (l Layer) Validate() error {
	switch {
	case l.Name == "":
		return fmt.Errorf("topology: layer has no name")
	case l.IfmapH < 1 || l.IfmapW < 1:
		return fmt.Errorf("topology: layer %q: IFMAP %dx%d must be positive", l.Name, l.IfmapH, l.IfmapW)
	case l.FilterH < 1 || l.FilterW < 1:
		return fmt.Errorf("topology: layer %q: filter %dx%d must be positive", l.Name, l.FilterH, l.FilterW)
	case l.Channels < 1:
		return fmt.Errorf("topology: layer %q: channels %d must be positive", l.Name, l.Channels)
	case l.NumFilters < 1:
		return fmt.Errorf("topology: layer %q: num filters %d must be positive", l.Name, l.NumFilters)
	case l.Stride < 1:
		return fmt.Errorf("topology: layer %q: stride %d must be positive", l.Name, l.Stride)
	case l.FilterH > l.IfmapH || l.FilterW > l.IfmapW:
		return fmt.Errorf("topology: layer %q: filter %dx%d larger than IFMAP %dx%d",
			l.Name, l.FilterH, l.FilterW, l.IfmapH, l.IfmapW)
	}
	return nil
}

// OfmapH returns the output feature map height.
func (l Layer) OfmapH() int { return (l.IfmapH-l.FilterH)/l.Stride + 1 }

// OfmapW returns the output feature map width.
func (l Layer) OfmapW() int { return (l.IfmapW-l.FilterW)/l.Stride + 1 }

// NumOfmapPx returns the number of OFMAP pixels generated per filter
// (N_ofmap in Table III).
func (l Layer) NumOfmapPx() int64 { return int64(l.OfmapH()) * int64(l.OfmapW()) }

// WindowSize returns the number of elements in one convolution window, i.e.
// the number of partial sums per output pixel (W_conv in Table III).
func (l Layer) WindowSize() int64 {
	return int64(l.FilterH) * int64(l.FilterW) * int64(l.Channels)
}

// MACOps returns the total multiply-accumulate operations for the layer.
func (l Layer) MACOps() int64 {
	return l.NumOfmapPx() * l.WindowSize() * int64(l.NumFilters)
}

// IfmapWords returns the number of distinct IFMAP elements.
func (l Layer) IfmapWords() int64 {
	return int64(l.IfmapH) * int64(l.IfmapW) * int64(l.Channels)
}

// FilterWords returns the number of distinct filter elements across all
// filters.
func (l Layer) FilterWords() int64 {
	return l.WindowSize() * int64(l.NumFilters)
}

// OfmapWords returns the number of distinct OFMAP elements.
func (l Layer) OfmapWords() int64 {
	return l.NumOfmapPx() * int64(l.NumFilters)
}

// IsGEMM reports whether the layer is a degenerate convolution representing
// a plain matrix multiplication (1x1 filter covering the full IFMAP width).
func (l Layer) IsGEMM() bool {
	return l.FilterH == 1 && l.FilterW == 1 && l.IfmapW == 1 && l.Stride == 1
}

// GEMM returns the (M, K, N) matrix dimensions the layer reduces to: the
// output-pixel count, the window size, and the filter count. Every layer,
// convolutional or not, has this reduction (Sec. III-A of the paper).
func (l Layer) GEMM() (m, k, n int64) {
	return l.NumOfmapPx(), l.WindowSize(), int64(l.NumFilters)
}

// Key returns the layer's canonical shape key: every hyper-parameter that
// determines its simulation (IFMAP and filter dimensions, channels, filter
// count, stride) in a fixed order, with the user-facing name excluded. Two
// layers with equal keys produce identical traces, cycle counts and memory
// behaviour under the same configuration — ResNet50's repeated residual
// blocks, for example, collapse to a handful of keys — so the key is what
// the per-layer result cache and reuse statistics address layers by.
// Near-identical layers (a different stride, a different window) get
// distinct keys.
func (l Layer) Key() string {
	return fmt.Sprintf("i%dx%dx%d/f%dx%dx%d/s%d",
		l.IfmapH, l.IfmapW, l.Channels,
		l.FilterH, l.FilterW, l.NumFilters, l.Stride)
}

// Topology is an ordered list of layers; SCALE-Sim serializes execution in
// file order, including parallel "cell" branches (Sec. II-E).
type Topology struct {
	// Name tags the network.
	Name string
	// Layers holds the layers in execution order.
	Layers []Layer
}

// Validate checks every layer and rejects duplicate layer names.
func (t Topology) Validate() error {
	if len(t.Layers) == 0 {
		return fmt.Errorf("topology %q: no layers", t.Name)
	}
	seen := make(map[string]bool, len(t.Layers))
	for i, l := range t.Layers {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("topology %q: layer %d: %w", t.Name, i, err)
		}
		if seen[l.Name] {
			return fmt.Errorf("topology %q: duplicate layer name %q", t.Name, l.Name)
		}
		seen[l.Name] = true
	}
	return nil
}

// Layer returns the layer with the given name.
func (t Topology) Layer(name string) (Layer, bool) {
	for _, l := range t.Layers {
		if l.Name == name {
			return l, true
		}
	}
	return Layer{}, false
}

// TotalMACOps sums MACOps over all layers.
func (t Topology) TotalMACOps() int64 {
	var total int64
	for _, l := range t.Layers {
		total += l.MACOps()
	}
	return total
}

// KeyCount is one canonical shape key's usage within a topology: how many
// layers share the key and which layer introduced it.
type KeyCount struct {
	// Key is the canonical shape key (Layer.Key).
	Key string
	// Count is the number of layers with this key.
	Count int
	// First is the name of the first layer carrying the key, MACs its
	// per-occurrence work.
	First string
	// MACs is one occurrence's MAC count.
	MACs int64
}

// KeyStats groups the topology's layers by canonical shape key, in
// first-seen order. The ratio of layers to distinct keys is the reuse a
// memoizing per-layer cache can exploit: every repeated key simulates once.
func (t Topology) KeyStats() []KeyCount {
	index := make(map[string]int, len(t.Layers))
	out := make([]KeyCount, 0, len(t.Layers))
	for _, l := range t.Layers {
		k := l.Key()
		if i, ok := index[k]; ok {
			out[i].Count++
			continue
		}
		index[k] = len(out)
		out = append(out, KeyCount{Key: k, Count: 1, First: l.Name, MACs: l.MACOps()})
	}
	return out
}
