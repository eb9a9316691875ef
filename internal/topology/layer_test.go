package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func validConv() Layer {
	return Layer{Name: "conv", IfmapH: 8, IfmapW: 8, FilterH: 3, FilterW: 3,
		Channels: 4, NumFilters: 6, Stride: 1}
}

func TestLayerDerivedDims(t *testing.T) {
	l := validConv()
	if got := l.OfmapH(); got != 6 {
		t.Errorf("OfmapH = %d, want 6", got)
	}
	if got := l.OfmapW(); got != 6 {
		t.Errorf("OfmapW = %d, want 6", got)
	}
	if got := l.NumOfmapPx(); got != 36 {
		t.Errorf("NumOfmapPx = %d, want 36", got)
	}
	if got := l.WindowSize(); got != 36 {
		t.Errorf("WindowSize = %d, want 36", got)
	}
	if got := l.MACOps(); got != 36*36*6 {
		t.Errorf("MACOps = %d, want %d", got, 36*36*6)
	}
	if got := l.IfmapWords(); got != 8*8*4 {
		t.Errorf("IfmapWords = %d", got)
	}
	if got := l.FilterWords(); got != 36*6 {
		t.Errorf("FilterWords = %d", got)
	}
	if got := l.OfmapWords(); got != 36*6 {
		t.Errorf("OfmapWords = %d", got)
	}
}

func TestLayerStride(t *testing.T) {
	l := Layer{Name: "s2", IfmapH: 224, IfmapW: 224, FilterH: 7, FilterW: 7,
		Channels: 3, NumFilters: 64, Stride: 2}
	if got := l.OfmapH(); got != 109 {
		t.Errorf("OfmapH = %d, want 109", got)
	}
}

func TestFromGEMM(t *testing.T) {
	l := FromGEMM("g", 128, 4096, 2048)
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !l.IsGEMM() {
		t.Error("IsGEMM = false")
	}
	m, k, n := l.GEMM()
	if m != 128 || k != 4096 || n != 2048 {
		t.Errorf("GEMM() = %d,%d,%d", m, k, n)
	}
	if got := l.MACOps(); got != 128*4096*2048 {
		t.Errorf("MACOps = %d", got)
	}
	if validConv().IsGEMM() {
		t.Error("conv layer claims to be GEMM")
	}
}

// TestGEMMReductionQuick checks that the (M, K, N) reduction is consistent
// with MAC count and element counts for arbitrary GEMM shapes.
func TestGEMMReductionQuick(t *testing.T) {
	f := func(m8, k8, n8 uint8) bool {
		m, k, n := int(m8)+1, int(k8)+1, int(n8)+1
		l := FromGEMM("q", m, k, n)
		gm, gk, gn := l.GEMM()
		return gm == int64(m) && gk == int64(k) && gn == int64(n) &&
			l.MACOps() == int64(m)*int64(k)*int64(n) &&
			l.IfmapWords() == int64(m)*int64(k) &&
			l.FilterWords() == int64(k)*int64(n) &&
			l.OfmapWords() == int64(m)*int64(n) &&
			l.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestConvGEMMConsistencyQuick checks MACOps == M*K*N for random valid conv
// layers, tying the conv view to its GEMM reduction.
func TestConvGEMMConsistencyQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		fh, fw := 1+rng.Intn(7), 1+rng.Intn(7)
		l := Layer{
			Name:       "r",
			FilterH:    fh,
			FilterW:    fw,
			IfmapH:     fh + rng.Intn(40),
			IfmapW:     fw + rng.Intn(40),
			Channels:   1 + rng.Intn(64),
			NumFilters: 1 + rng.Intn(64),
			Stride:     1 + rng.Intn(3),
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("generated invalid layer: %v", err)
		}
		m, k, n := l.GEMM()
		if l.MACOps() != m*k*n {
			t.Fatalf("layer %+v: MACOps %d != M*K*N %d", l, l.MACOps(), m*k*n)
		}
		if l.OfmapWords() != m*n {
			t.Fatalf("layer %+v: OfmapWords %d != M*N %d", l, l.OfmapWords(), m*n)
		}
	}
}

func TestLayerValidateRejections(t *testing.T) {
	mk := func(mutate func(*Layer)) Layer {
		l := validConv()
		mutate(&l)
		return l
	}
	cases := []struct {
		name string
		l    Layer
	}{
		{"empty name", mk(func(l *Layer) { l.Name = "" })},
		{"zero ifmap", mk(func(l *Layer) { l.IfmapH = 0 })},
		{"zero filter", mk(func(l *Layer) { l.FilterW = 0 })},
		{"zero channels", mk(func(l *Layer) { l.Channels = 0 })},
		{"zero filters", mk(func(l *Layer) { l.NumFilters = 0 })},
		{"zero stride", mk(func(l *Layer) { l.Stride = 0 })},
		{"filter too tall", mk(func(l *Layer) { l.FilterH = 9 })},
		{"filter too wide", mk(func(l *Layer) { l.FilterW = 9 })},
	}
	for _, tc := range cases {
		if err := tc.l.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.l)
		}
	}
}

func TestTopologyValidate(t *testing.T) {
	topo := Topology{Name: "t", Layers: []Layer{validConv()}}
	if err := topo.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	empty := Topology{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Error("empty topology accepted")
	}
	dup := Topology{Name: "d", Layers: []Layer{validConv(), validConv()}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate layer names accepted")
	}
	bad := Topology{Name: "b", Layers: []Layer{{Name: "x"}}}
	if err := bad.Validate(); err == nil {
		t.Error("invalid layer accepted")
	}
}

func TestTopologyLookupAndTotals(t *testing.T) {
	topo := TinyNet()
	l, ok := topo.Layer("conv2")
	if !ok || l.Channels != 8 {
		t.Errorf("Layer(conv2) = %+v, %v", l, ok)
	}
	if _, ok := topo.Layer("nope"); ok {
		t.Error("found nonexistent layer")
	}
	var want int64
	for _, l := range topo.Layers {
		want += l.MACOps()
	}
	if got := topo.TotalMACOps(); got != want {
		t.Errorf("TotalMACOps = %d, want %d", got, want)
	}
}

// TestLayerKey pins the canonical shape key: name-independent, sensitive
// to every simulation-relevant hyper-parameter (the near-identical-layer
// collision case the result cache must not merge).
func TestLayerKey(t *testing.T) {
	base := Layer{Name: "a", IfmapH: 28, IfmapW: 28, FilterH: 3, FilterW: 3,
		Channels: 64, NumFilters: 128, Stride: 1}
	renamed := base
	renamed.Name = "b"
	if base.Key() != renamed.Key() {
		t.Errorf("renamed layer changed key: %q vs %q", base.Key(), renamed.Key())
	}
	strided := base
	strided.Stride = 2
	if base.Key() == strided.Key() {
		t.Errorf("stride change did not change key: %q", base.Key())
	}
	variants := []func(*Layer){
		func(l *Layer) { l.IfmapH = 56 },
		func(l *Layer) { l.IfmapW = 56 },
		func(l *Layer) { l.FilterH = 1 },
		func(l *Layer) { l.FilterW = 1 },
		func(l *Layer) { l.Channels = 32 },
		func(l *Layer) { l.NumFilters = 64 },
	}
	for i, mutate := range variants {
		v := base
		mutate(&v)
		if v.Key() == base.Key() {
			t.Errorf("variant %d did not change key %q", i, base.Key())
		}
	}
}

// TestKeyStats checks grouping order and counts, and that ResNet50's
// repeated residual blocks actually expose reuse.
func TestKeyStats(t *testing.T) {
	topo := Topology{Name: "t", Layers: []Layer{
		{Name: "c1", IfmapH: 8, IfmapW: 8, FilterH: 3, FilterW: 3, Channels: 4, NumFilters: 8, Stride: 1},
		{Name: "c2", IfmapH: 8, IfmapW: 8, FilterH: 3, FilterW: 3, Channels: 8, NumFilters: 8, Stride: 1},
		{Name: "c3", IfmapH: 8, IfmapW: 8, FilterH: 3, FilterW: 3, Channels: 4, NumFilters: 8, Stride: 1},
	}}
	stats := topo.KeyStats()
	if len(stats) != 2 {
		t.Fatalf("KeyStats len = %d, want 2", len(stats))
	}
	if stats[0].First != "c1" || stats[0].Count != 2 || stats[1].First != "c2" || stats[1].Count != 1 {
		t.Errorf("KeyStats = %+v", stats)
	}
	if stats[0].MACs != topo.Layers[0].MACOps() {
		t.Errorf("MACs = %d", stats[0].MACs)
	}

	rn := ResNet50()
	unique := len(rn.KeyStats())
	if unique >= len(rn.Layers) {
		t.Errorf("ResNet50 exposes no reuse: %d layers, %d unique keys", len(rn.Layers), unique)
	}
}
