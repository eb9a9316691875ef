package dataflow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
)

// runLayers are the shapes the bulk generators are checked against: layouts
// with and without OFMAP-row wraps, multi-channel windows, strides, a GEMM
// (unit-width degenerate case) and a real ResNet50 layer.
func runLayers() []topology.Layer {
	r50 := topology.ResNet50().Layers
	return []topology.Layer{
		{Name: "tiny", IfmapH: 5, IfmapW: 4, FilterH: 2, FilterW: 2, Channels: 2, NumFilters: 3, Stride: 1},
		{Name: "strided", IfmapH: 11, IfmapW: 9, FilterH: 3, FilterW: 3, Channels: 3, NumFilters: 5, Stride: 2},
		{Name: "chan1", IfmapH: 7, IfmapW: 7, FilterH: 3, FilterW: 3, Channels: 1, NumFilters: 4, Stride: 1},
		topology.FromGEMM("gemm", 17, 23, 11),
		r50[len(r50)/2],
	}
}

// expand materializes a run list.
func expand(runs []trace.Run) []int64 {
	return trace.ExpandRuns(runs, nil)
}

// checkRuns compares a generated run list against per-element expectations.
func checkRuns(t *testing.T, label string, runs []trace.Run, want []int64) {
	t.Helper()
	got := expand(runs)
	if len(got) != len(want) {
		t.Fatalf("%s: %d addresses, want %d (runs %v)", label, len(got), len(want), runs)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: addr[%d] = %d, want %d (runs %v)", label, i, got[i], want[i], runs)
		}
	}
}

// sample returns up to k values spread over [0, n).
func sample(n, k int64) []int64 {
	if n <= k {
		out := make([]int64, 0, n)
		for v := int64(0); v < n; v++ {
			out = append(out, v)
		}
		return out
	}
	out := make([]int64, 0, k)
	for i := int64(0); i < k; i++ {
		out = append(out, i*(n-1)/(k-1))
	}
	return out
}

// TestRunsMatchElementGenerators is the property test of the tentpole: every
// bulk generator must expand to exactly the addresses of the legacy
// per-element calls, for every dataflow, over wavefront slices of assorted
// origins and lengths.
func TestRunsMatchElementGenerators(t *testing.T) {
	for _, l := range runLayers() {
		for _, df := range config.Dataflows {
			mp := NewMapper(l, df, Offsets{Ifmap: 100, Filter: 2000, Ofmap: 30000})
			m := mp.Mapping()
			t.Run(fmt.Sprintf("%s/%s", l.Name, df), func(t *testing.T) {
				lens := []int64{1, 2, 3, min(m.Sr, 40)}

				// RowStream wavefronts: (i+k, t-k).
				for _, i0 := range sample(m.Sr, 7) {
					for _, t0 := range sample(m.T, 7) {
						for _, n := range lens {
							n = min(n, m.Sr-i0, t0+1)
							want := make([]int64, 0, n)
							for k := int64(0); k < n; k++ {
								want = append(want, mp.RowStream(i0+k, t0-k))
							}
							runs := mp.RowStreamRuns(i0, t0, n, nil)
							checkRuns(t, fmt.Sprintf("RowStreamRuns(%d,%d,%d)", i0, t0, n), runs, want)
						}
					}
				}

				// ColStream wavefronts (OS only): (j+k, t-k).
				if df == config.OutputStationary {
					for _, j0 := range sample(m.Sc, 5) {
						for _, t0 := range sample(m.T, 5) {
							n := min(3, m.Sc-j0, t0+1)
							want := make([]int64, 0, n)
							for k := int64(0); k < n; k++ {
								want = append(want, mp.ColStream(j0+k, t0-k))
							}
							runs := mp.ColStreamRuns(j0, t0, n, nil)
							checkRuns(t, fmt.Sprintf("ColStreamRuns(%d,%d,%d)", j0, t0, n), runs, want)
						}
					}
				}

				// Stationary fill rows: (i, j+k).
				if df != config.OutputStationary {
					for _, i := range sample(m.Sr, 5) {
						for _, j0 := range sample(m.Sc, 5) {
							n := min(min(m.Sc, 40), m.Sc-j0)
							want := make([]int64, 0, n)
							for k := int64(0); k < n; k++ {
								want = append(want, mp.Stationary(i, j0+k))
							}
							runs := mp.StationaryRuns(i, j0, n, nil)
							checkRuns(t, fmt.Sprintf("StationaryRuns(%d,%d,%d)", i, j0, n), runs, want)
						}
					}
				}

				// Output drain rows (da=0, db=1) and wavefronts (da=-1, db=1).
				rows := mp.OutputRows()
				for _, a0 := range sample(rows, 5) {
					for _, b0 := range sample(m.Sc, 5) {
						n := min(3, m.Sc-b0)
						want := make([]int64, 0, n)
						for k := int64(0); k < n; k++ {
							want = append(want, mp.Output(a0, b0+k))
						}
						runs := mp.OutputRuns(a0, 0, b0, 1, n, nil)
						checkRuns(t, fmt.Sprintf("OutputRuns(%d,0,%d,1,%d)", a0, b0, n), runs, want)

						n = min(3, m.Sc-b0, a0+1)
						want = want[:0]
						for k := int64(0); k < n; k++ {
							want = append(want, mp.Output(a0-k, b0+k))
						}
						runs = mp.OutputRuns(a0, -1, b0, 1, n, nil)
						checkRuns(t, fmt.Sprintf("OutputRuns(%d,-1,%d,1,%d)", a0, b0, n), runs, want)
					}
				}
			})
		}
	}
}

// declarationLayer draws a random layer of one of five kinds: kernels no
// larger than the stride, a kernel larger than the stride, 1x1 with stride
// 2, a GEMM, and a unit-width layout (IfmapW == FilterW: one OFMAP column).
func declarationLayer(rng *rand.Rand, kind int) topology.Layer {
	s := 1 + rng.Intn(3)
	l := topology.Layer{Name: fmt.Sprintf("kind%d", kind), Channels: 1 + rng.Intn(4),
		NumFilters: 1 + rng.Intn(6), Stride: s, FilterH: 1 + rng.Intn(s), FilterW: 1 + rng.Intn(s)}
	switch kind {
	case 1:
		l.Stride = 1 + rng.Intn(2)
		l.FilterH, l.FilterW = l.Stride+1+rng.Intn(2), 1+rng.Intn(4)
	case 2:
		l.Stride, l.FilterH, l.FilterW = 2, 1, 1
	case 3:
		return topology.FromGEMM("gemm", 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12))
	}
	l.IfmapH, l.IfmapW = l.FilterH+rng.Intn(8), l.FilterW+rng.Intn(8)
	if kind == 4 {
		l.IfmapW = l.FilterW
	}
	return l
}

// TestBlockDeclaration pins the producer's block declaration: for random
// layers of every kind, under every dataflow, and random blocks of rows (and
// under OS of columns), the block expanded element by element has exactly
// the declared words, its exact minimum and maximum are the declared hull,
// a block declared distinct repeats no address, and every 1x1 convolution
// and GEMM is declared distinct.
func TestBlockDeclaration(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var distinct, overlapping int
	for i := 0; i < 200; i++ {
		l := declarationLayer(rng, i%5)
		if err := l.Validate(); err != nil {
			t.Fatalf("%+v: %v", l, err)
		}
		for _, df := range config.Dataflows {
			mp := NewMapper(l, df, Offsets{Ifmap: 100, Filter: 2000, Ofmap: 30000})
			m := mp.Mapping()
			type edge struct {
				name    string
				extent  int64
				block   func(off, n int64) trace.Block
				address func(i, t int64) int64
			}
			edges := []edge{{"row", m.Sr, mp.RowBlock, mp.RowStream}}
			if df == config.OutputStationary {
				edges = append(edges, edge{"col", m.Sc, mp.ColBlock, mp.ColStream})
			}
			for _, e := range edges {
				for k := 0; k < 4; k++ {
					off := rng.Int63n(e.extent)
					n := 1 + rng.Int63n(e.extent-off)
					blk := e.block(off, n)
					label := fmt.Sprintf("%+v %s %s block (%d, %d)", l, df, e.name, off, n)
					seen := map[int64]bool{}
					lo, hi, repeats := int64(math.MaxInt64), int64(math.MinInt64), false
					for i := off; i < off+n; i++ {
						for tt := int64(0); tt < m.T; tt++ {
							a := e.address(i, tt)
							lo, hi = min(lo, a), max(hi, a)
							repeats = repeats || seen[a]
							seen[a] = true
						}
					}
					if blk.Off != off || blk.N != n || blk.Words != n*m.T {
						t.Fatalf("%s: declared key (%d, %d, %d), want (%d, %d, %d)",
							label, blk.Off, blk.N, blk.Words, off, n, n*m.T)
					}
					if blk.Lo != lo || blk.Hi != hi {
						t.Fatalf("%s: declared hull [%d, %d], exact [%d, %d]", label, blk.Lo, blk.Hi, lo, hi)
					}
					if blk.Distinct && repeats {
						t.Fatalf("%s: declared distinct but repeats an address", label)
					}
					if !blk.Distinct && l.FilterH == 1 && l.FilterW == 1 {
						t.Fatalf("%s: a 1x1 or GEMM block not declared distinct", label)
					}
					if blk.Distinct {
						distinct++
					} else if repeats {
						overlapping++
					}
				}
			}
		}
	}
	if distinct == 0 || overlapping == 0 {
		t.Errorf("declared distinct %d, overlapping %d: the grid missed one", distinct, overlapping)
	}
}

// TestRunsCompression pins the point of the representation: a GEMM layer's
// wavefront collapses into a single run, and a conv wavefront into no more
// than one run per layout-row wrap.
func TestRunsCompression(t *testing.T) {
	gemm := topology.FromGEMM("g", 64, 96, 32)
	mp := NewMapper(gemm, config.OutputStationary, Offsets{})
	runs := mp.RowStreamRuns(0, 63, 64, nil)
	if len(runs) != 1 {
		t.Errorf("GEMM wavefront: %d runs, want 1 (%v)", len(runs), runs)
	}

	conv := topology.Layer{Name: "c", IfmapH: 30, IfmapW: 30, FilterH: 3,
		FilterW: 3, Channels: 16, NumFilters: 8, Stride: 1}
	mp = NewMapper(conv, config.OutputStationary, Offsets{})
	m := mp.Mapping()
	n := min(m.Sr, 128)
	runs = mp.RowStreamRuns(0, m.T-1, n, nil)
	// One segment per OFMAP-row or window-row wrap, plus the leading one.
	bound := n/int64(conv.OfmapW()) + n/(int64(conv.FilterW)*int64(conv.Channels)) + 2
	if int64(len(runs)) > bound {
		t.Errorf("conv wavefront: %d runs for %d elements, want <= %d", len(runs), n, bound)
	}
}

// layoutIfmapElem is IfmapElem from the layout's coordinates: the IFMAP
// (h, w, c) the element of the window touches, row-major.
func layoutIfmapElem(a *Addressing, w, e int64) int64 {
	l := a.layer
	ofmapW, windowW, c := int64(l.OfmapW()), int64(l.FilterW)*int64(l.Channels), int64(l.Channels)
	h := (w/ofmapW)*int64(l.Stride) + e/windowW
	x := (w%ofmapW)*int64(l.Stride) + (e%windowW)/c
	return (h*int64(l.IfmapW)+x)*c + e%c + a.off.Ifmap
}

// segmentedIfmapRuns is IfmapRuns as a per-segment reference: every segment
// ends at the next OFMAP-row or window-row change on a segmented axis, and
// its base is the address of its first element, computed from the layout's
// coordinates with no carried state.
func segmentedIfmapRuns(a *Addressing, w0, dw, e0, de, n int64) []trace.Run {
	ofmapW, windowW := int64(a.layer.OfmapW()), int64(a.layer.FilterW)*int64(a.layer.Channels)
	elem := func(w, e int64) int64 { return layoutIfmapElem(a, w, e) }
	var runs []trace.Run
	for k := int64(0); k < n; {
		w, e := w0+k*dw, e0+k*de
		seg := int64(1)
		for k+seg < n {
			w1, e1 := w+seg*dw, e+seg*de
			if (!a.wAffine && w1/ofmapW != w/ofmapW) || (!a.eAffine && e1/windowW != e/windowW) {
				break
			}
			seg++
		}
		slope := elem(w+dw, e+de) - elem(w, e)
		if seg == 1 {
			slope = dw*a.strideC + de
			if a.wAffine && dw != 0 {
				slope = dw*a.wSlope + de
			}
		}
		runs = trace.AppendRun(runs, elem(w, e), slope, seg)
		k += seg
	}
	return runs
}

// TestIfmapRunsMatchSegments pins IfmapRuns' carried arithmetic run for run
// — same split, counts and strides, not only the same addresses — against
// the per-segment reference, over random slices of random layers in every
// direction a wavefront walks; and IfmapElem against the layout.
func TestIfmapRunsMatchSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 300; i++ {
		l := declarationLayer(rng, i%5)
		a := NewAddressing(l, Offsets{Ifmap: 100})
		windows, elems := l.NumOfmapPx(), l.WindowSize()
		for k := 0; k < 20; k++ {
			dw, de := rng.Int63n(3)-1, rng.Int63n(3)-1
			w0, e0 := rng.Int63n(windows), rng.Int63n(elems)
			if got, want := a.IfmapElem(w0, e0), layoutIfmapElem(a, w0, e0); got != want {
				t.Fatalf("%+v: IfmapElem(%d, %d) = %d, layout %d", l, w0, e0, got, want)
			}
			n := 1 + rng.Int63n(40)
			for _, lim := range []struct{ d, x, size int64 }{{dw, w0, windows}, {de, e0, elems}} {
				switch lim.d {
				case 1:
					n = min(n, lim.size-lim.x)
				case -1:
					n = min(n, lim.x+1)
				}
			}
			got := a.IfmapRuns(w0, dw, e0, de, n, nil)
			want := segmentedIfmapRuns(a, w0, dw, e0, de, n)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%+v: IfmapRuns(%d, %d, %d, %d, %d) = %v, segments %v", l, w0, dw, e0, de, n, got, want)
			}
		}
	}
}
