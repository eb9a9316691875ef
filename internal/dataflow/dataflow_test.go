package dataflow

import (
	"math/rand"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/topology"
)

func testLayer() topology.Layer {
	return topology.Layer{Name: "t", IfmapH: 6, IfmapW: 5, FilterH: 3,
		FilterW: 2, Channels: 2, NumFilters: 3, Stride: 1}
}

func testOffsets() Offsets {
	return Offsets{Ifmap: 0, Filter: 10_000, Ofmap: 20_000}
}

func TestMapTableIII(t *testing.T) {
	l := testLayer()
	nOfmap := l.NumOfmapPx() // 4*4 = 16
	wConv := l.WindowSize()  // 3*2*2 = 12
	nFilter := int64(l.NumFilters)

	cases := []struct {
		df         config.Dataflow
		sr, sc, tt int64
	}{
		{config.OutputStationary, nOfmap, nFilter, wConv},
		{config.WeightStationary, wConv, nFilter, nOfmap},
		{config.InputStationary, wConv, nOfmap, nFilter},
	}
	for _, tc := range cases {
		m := Map(l, tc.df)
		if m.Sr != tc.sr || m.Sc != tc.sc || m.T != tc.tt {
			t.Errorf("%v: Map = (%d,%d,%d), want (%d,%d,%d)",
				tc.df, m.Sr, m.Sc, m.T, tc.sr, tc.sc, tc.tt)
		}
		if m.MACs() != l.MACOps() {
			t.Errorf("%v: MACs = %d, want %d", tc.df, m.MACs(), l.MACOps())
		}
	}
}

// TestMapGEMM: an M x K by K x N GEMM expressed as a layer maps to the
// (S_R, T, S_C) triple Table IV lists, (M, K, N) under OS.
func TestMapGEMM(t *testing.T) {
	m, k, n := int64(128), int64(4096), int64(2048)
	l := topology.FromGEMM("g", int(m), int(k), int(n))
	for _, tc := range []struct {
		df        config.Dataflow
		sr, sc, t int64
	}{
		{config.OutputStationary, m, n, k},
		{config.WeightStationary, k, n, m},
		{config.InputStationary, k, m, n},
	} {
		want := Mapping{Dataflow: tc.df, Sr: tc.sr, Sc: tc.sc, T: tc.t}
		if got := Map(l, tc.df); got != want {
			t.Errorf("%v = %+v, want %+v", tc.df, got, want)
		}
	}
}

func TestAddressingRangesAndUniqueness(t *testing.T) {
	l := testLayer()
	off := testOffsets()
	a := NewAddressing(l, off)

	// Filter addresses: unique, dense, in range.
	seen := map[int64]bool{}
	for f := int64(0); f < int64(l.NumFilters); f++ {
		for e := int64(0); e < l.WindowSize(); e++ {
			addr := a.FilterElem(f, e)
			if addr < off.Filter || addr >= off.Filter+l.FilterWords() {
				t.Fatalf("filter addr %d out of range", addr)
			}
			if seen[addr] {
				t.Fatalf("duplicate filter addr %d", addr)
			}
			seen[addr] = true
		}
	}
	if int64(len(seen)) != l.FilterWords() {
		t.Errorf("filter coverage %d, want %d", len(seen), l.FilterWords())
	}

	// Ofmap addresses: unique, dense, in range.
	seen = map[int64]bool{}
	for p := int64(0); p < l.NumOfmapPx(); p++ {
		for f := int64(0); f < int64(l.NumFilters); f++ {
			addr := a.OfmapElem(p, f)
			if addr < off.Ofmap || addr >= off.Ofmap+l.OfmapWords() {
				t.Fatalf("ofmap addr %d out of range", addr)
			}
			if seen[addr] {
				t.Fatalf("duplicate ofmap addr %d", addr)
			}
			seen[addr] = true
		}
	}

	// Ifmap addresses are in range; with stride 1 every input element is
	// touched by at least one window.
	seen = map[int64]bool{}
	for w := int64(0); w < l.NumOfmapPx(); w++ {
		for e := int64(0); e < l.WindowSize(); e++ {
			addr := a.IfmapElem(w, e)
			if addr < off.Ifmap || addr >= off.Ifmap+l.IfmapWords() {
				t.Fatalf("ifmap addr %d out of range (window %d elem %d)", addr, w, e)
			}
			seen[addr] = true
		}
	}
	if int64(len(seen)) != l.IfmapWords() {
		t.Errorf("stride-1 ifmap coverage %d, want %d", len(seen), l.IfmapWords())
	}
}

func TestIfmapElemKnownValues(t *testing.T) {
	// 4x4 input, 2x2 filter, 1 channel, stride 2: windows at (0,0),(0,2),(2,0),(2,2).
	l := topology.Layer{Name: "k", IfmapH: 4, IfmapW: 4, FilterH: 2, FilterW: 2,
		Channels: 1, NumFilters: 1, Stride: 2}
	a := NewAddressing(l, Offsets{})
	// window 3 = output (1,1) -> input origin (2,2); elem 3 = (1,1) -> input (3,3) = addr 15.
	if got := a.IfmapElem(3, 3); got != 15 {
		t.Errorf("IfmapElem(3,3) = %d, want 15", got)
	}
	// window 1 = output (0,1) -> origin (0,2); elem 2 = (1,0) -> input (1,2) = addr 6.
	if got := a.IfmapElem(1, 2); got != 6 {
		t.Errorf("IfmapElem(1,2) = %d, want 6", got)
	}
}

// macTriple is one multiply-accumulate: which ifmap element met which filter
// element and where the product accumulates.
type macTriple struct{ in, w, out int64 }

// enumerate lists every MAC the mapper implies, per the dataflow's execution
// semantics.
func enumerate(t *testing.T, mp *Mapper) map[macTriple]int {
	t.Helper()
	m := mp.Mapping()
	macs := make(map[macTriple]int)
	switch m.Dataflow {
	case config.OutputStationary:
		for i := int64(0); i < m.Sr; i++ {
			for j := int64(0); j < m.Sc; j++ {
				for tt := int64(0); tt < m.T; tt++ {
					macs[macTriple{mp.RowStream(i, tt), mp.ColStream(j, tt), mp.Output(i, j)}]++
				}
			}
		}
	case config.WeightStationary:
		for i := int64(0); i < m.Sr; i++ {
			for j := int64(0); j < m.Sc; j++ {
				for tt := int64(0); tt < m.T; tt++ {
					macs[macTriple{mp.RowStream(i, tt), mp.Stationary(i, j), mp.Output(tt, j)}]++
				}
			}
		}
	case config.InputStationary:
		for i := int64(0); i < m.Sr; i++ {
			for j := int64(0); j < m.Sc; j++ {
				for tt := int64(0); tt < m.T; tt++ {
					macs[macTriple{mp.Stationary(i, j), mp.RowStream(i, tt), mp.Output(tt, j)}]++
				}
			}
		}
	}
	return macs
}

// TestDataflowEquivalence is the central correctness property of the mapping
// layer: all three dataflows perform exactly the same set of MACs, each
// exactly once, for the same layer.
func TestDataflowEquivalence(t *testing.T) {
	l := testLayer()
	ref := enumerate(t, NewMapper(l, config.OutputStationary, testOffsets()))
	if int64(len(ref)) != l.MACOps() {
		t.Fatalf("OS enumerates %d distinct MACs, want %d", len(ref), l.MACOps())
	}
	for _, mac := range ref {
		if mac != 1 {
			t.Fatal("OS repeats a MAC")
		}
	}
	for _, df := range []config.Dataflow{config.WeightStationary, config.InputStationary} {
		got := enumerate(t, NewMapper(l, df, testOffsets()))
		if len(got) != len(ref) {
			t.Fatalf("%v enumerates %d MACs, want %d", df, len(got), len(ref))
		}
		for triple, n := range got {
			if n != 1 {
				t.Fatalf("%v repeats MAC %+v", df, triple)
			}
			if ref[triple] != 1 {
				t.Fatalf("%v computes MAC %+v that OS does not", df, triple)
			}
		}
	}
}

// TestDataflowEquivalenceRandom repeats the equivalence property over random
// small layers, including strided and GEMM-shaped ones.
func TestDataflowEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		fh, fw := 1+rng.Intn(3), 1+rng.Intn(3)
		l := topology.Layer{
			Name:       "r",
			FilterH:    fh,
			FilterW:    fw,
			IfmapH:     fh + rng.Intn(5),
			IfmapW:     fw + rng.Intn(5),
			Channels:   1 + rng.Intn(3),
			NumFilters: 1 + rng.Intn(4),
			Stride:     1 + rng.Intn(2),
		}
		ref := enumerate(t, NewMapper(l, config.OutputStationary, testOffsets()))
		if int64(len(ref)) != l.MACOps() {
			t.Fatalf("layer %+v: OS enumerates %d, want %d", l, len(ref), l.MACOps())
		}
		for _, df := range []config.Dataflow{config.WeightStationary, config.InputStationary} {
			got := enumerate(t, NewMapper(l, df, testOffsets()))
			if len(got) != len(ref) {
				t.Fatalf("layer %+v %v: %d MACs, want %d", l, df, len(got), len(ref))
			}
			for triple := range got {
				if ref[triple] != 1 {
					t.Fatalf("layer %+v %v: extra MAC %+v", l, df, triple)
				}
			}
		}
	}
}

func TestMapperOperands(t *testing.T) {
	l := testLayer()
	cases := []struct {
		df  config.Dataflow
		row Operand
	}{
		{config.OutputStationary, Ifmap},
		{config.WeightStationary, Ifmap},
		{config.InputStationary, Filter},
	}
	for _, tc := range cases {
		mp := NewMapper(l, tc.df, testOffsets())
		if mp.RowOperand() != tc.row {
			t.Errorf("%v RowOperand = %v, want %v", tc.df, mp.RowOperand(), tc.row)
		}
	}
}

func TestMapperOutputRows(t *testing.T) {
	l := testLayer()
	os := NewMapper(l, config.OutputStationary, testOffsets())
	if os.OutputRows() != os.Mapping().Sr {
		t.Errorf("OS OutputRows = %d", os.OutputRows())
	}
	ws := NewMapper(l, config.WeightStationary, testOffsets())
	if ws.OutputRows() != ws.Mapping().T {
		t.Errorf("WS OutputRows = %d", ws.OutputRows())
	}
}

func TestMapperPanics(t *testing.T) {
	l := testLayer()
	os := NewMapper(l, config.OutputStationary, testOffsets())
	assertPanics(t, "OS Stationary", func() { os.Stationary(0, 0) })
	ws := NewMapper(l, config.WeightStationary, testOffsets())
	assertPanics(t, "WS ColStream", func() { ws.ColStream(0, 0) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestOffsetsFromConfig(t *testing.T) {
	cfg := config.New()
	off := OffsetsFromConfig(cfg)
	if off.Ifmap != cfg.IfmapOffset || off.Filter != cfg.FilterOffset || off.Ofmap != cfg.OfmapOffset {
		t.Errorf("OffsetsFromConfig = %+v", off)
	}
}
