package memory

import (
	"reflect"
	"slices"
	"testing"

	"scalesim/internal/obsv"
	"scalesim/internal/trace"
)

// runCall is one DRAM-side call as a consumer received it, run for run.
type runCall struct {
	cycle int64
	runs  []trace.Run
}

// callRecorder keeps every call's run list exactly as handed over, so a
// different split of the same addresses shows.
type callRecorder struct{ calls []runCall }

func (c *callRecorder) Consume(cycle int64, addrs []int64) { trace.ConsumeAddrs(c, cycle, addrs) }
func (c *callRecorder) ConsumeRuns(cycle int64, runs []trace.Run) {
	c.calls = append(c.calls, runCall{cycle, slices.Clone(runs)})
}

// Tiles of tileRig's region: rows of tilePitch words from tileBase.
const (
	tilePitch = 10
	tileBase  = 100
)

// tileRig drives a write buffer through hand-made output tiles and, beside
// it, an unbracketed reference fed the same calls; after every step the two
// must agree on the write-back stream, run for run, on the bandwidth
// profile and on every counter.
type tileRig struct {
	t         *testing.T
	b, ref    *WriteBuffer
	got, want *callRecorder
	fresh     obsv.Counter
	cycle     int64
}

// newTileRig builds the pair with capacity resident words each, with a DRAM
// consumer or with the meter alone.
func newTileRig(t *testing.T, capacity int64, dram bool) *tileRig {
	g := &tileRig{t: t, got: &callRecorder{}, want: &callRecorder{}}
	build := func(rec *callRecorder) *WriteBuffer {
		var c trace.Consumer
		if dram {
			c = rec
		}
		b, err := NewWriteBuffer("w", 2*capacity, c, trace.NewBandwidthMeter(4, 1))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	g.b, g.ref = build(g.got), build(g.want)
	g.b.memo.freshWrite.blocks = &g.fresh
	return g
}

// region declares the same region to both buffers.
func (g *tileRig) region(words int64) {
	g.b.SetRegion(tileBase, words)
	g.ref.SetRegion(tileBase, words)
}

// tile declares the tile of rows r0..r1 and columns c0..c1 and streams it
// as the OS drain does; it reports whether the buffer proved it fresh.
func (g *tileRig) tile(r0, r1, c0, c1 int64) bool {
	lo, hi := tileBase+r0*tilePitch+c0, tileBase+r1*tilePitch+c1
	blk := trace.Block{Off: lo, N: r1 - r0 + 1, Words: (r1 - r0 + 1) * (c1 - c0 + 1),
		Lo: lo, Hi: hi, Distinct: true, Pitch: tilePitch}
	return g.stream(blk, r0, r1, c0, c1)
}

// stream streams rows r1 down to r0 of columns c0..c1 as blk declares them:
// one sweep, a row further back each call.
func (g *tileRig) stream(blk trace.Block, r0, r1, c0, c1 int64) bool {
	g.t.Helper()
	sw := trace.Sweep{Cycle: g.cycle + 1, Runs: []trace.Run{{Base: tileBase + r1*tilePitch + c0, Stride: 1, Count: c1 - c0 + 1}},
		Step: -tilePitch, Times: r1 - r0 + 1}
	g.cycle += sw.Times
	before := g.fresh.Value()
	if !g.b.BeginBlock(blk) {
		g.b.ConsumeSweep(sw)
		g.b.EndBlock()
	}
	sw.Unroll(g.ref)
	g.check()
	return g.fresh.Value() > before
}

// loose writes one word outside any block.
func (g *tileRig) loose(addr int64) {
	g.t.Helper()
	g.cycle++
	g.b.ConsumeRuns(g.cycle, []trace.Run{{Base: addr, Stride: 1, Count: 1}})
	g.ref.ConsumeRuns(g.cycle, []trace.Run{{Base: addr, Stride: 1, Count: 1}})
	g.check()
}

// flush drains both buffers.
func (g *tileRig) flush() {
	g.t.Helper()
	g.cycle++
	if got, want := g.b.Flush(g.cycle), g.ref.Flush(g.cycle); got != want {
		g.t.Fatalf("flushed %d words, reference %d", got, want)
	}
	g.check()
}

func (g *tileRig) check() {
	g.t.Helper()
	if !reflect.DeepEqual(g.got.calls, g.want.calls) {
		g.t.Fatalf("cycle %d: write-back %v, reference %v", g.cycle, g.got.calls, g.want.calls)
	}
	got := [3]int64{g.b.SRAMWrites, g.b.DRAMWrites, g.b.Pending()}
	if want := [3]int64{g.ref.SRAMWrites, g.ref.DRAMWrites, g.ref.Pending()}; got != want {
		g.t.Fatalf("cycle %d: SRAM writes, DRAM writes, pending %v, reference %v", g.cycle, got, want)
	}
	if got, want := g.b.meter.Profile(), g.ref.meter.Profile(); !reflect.DeepEqual(got, want) {
		g.t.Fatalf("cycle %d: bandwidth profile %v, reference %v", g.cycle, got, want)
	}
	if g.b.set.fallbacks != g.ref.set.fallbacks {
		g.t.Fatalf("cycle %d: %d region fallbacks, reference %d", g.cycle, g.b.set.fallbacks, g.ref.set.fallbacks)
	}
}

// expect fails unless the verdicts, true for fresh, are the wanted ones.
func (g *tileRig) expect(got []bool, want ...bool) {
	g.t.Helper()
	if !slices.Equal(got, want) {
		g.t.Fatalf("fresh %v, want %v", got, want)
	}
}

// TestFreshWriteTiles drives the fresh-write proof by hand, with and
// without a DRAM consumer, against an unbracketed twin. Tiles in band order
// are replayed — filling the buffer, draining a partial call, then whole
// calls — and each premise blocks the proof on its own: band order,
// overlap, wrapping columns, distinctness, a tile declaration, bracketed
// traffic and an empty ring at SetRegion. Where a blocked tile really
// rewrites a resident word, a wrong replay would also differ from the twin.
func TestFreshWriteTiles(t *testing.T) {
	for _, dram := range []bool{false, true} {
		name := map[bool]string{false: "meter", true: "dram"}[dram]
		t.Run(name+"/proven", func(t *testing.T) {
			g := newTileRig(t, 7, dram)
			g.region(10 * tilePitch)
			// Three tiles of one band, then bands below: the first fills
			// the buffer, the second drains in a partial call, then whole
			// ones; then a Flush.
			g.expect([]bool{g.tile(0, 1, 0, 2), g.tile(0, 1, 3, 5), g.tile(0, 1, 8, 9), g.tile(2, 5, 0, 2),
				g.tile(2, 5, 3, 3), g.tile(7, 8, 1, 8)}, true, true, true, true, true, true)
			g.flush()
			// The proof holds across a Flush: the ring is empty again.
			g.expect([]bool{g.tile(9, 9, 0, 9)}, true)
			g.flush()
		})
		t.Run(name+"/region fits the buffer", func(t *testing.T) {
			g := newTileRig(t, 64, dram)
			g.region(3 * tilePitch)
			g.expect([]bool{g.tile(0, 2, 0, 4), g.tile(0, 2, 5, 9)}, true, true)
			g.flush()
		})
		t.Run(name+"/out of band order", func(t *testing.T) {
			g := newTileRig(t, 7, dram)
			g.region(10 * tilePitch)
			// Left of the band's last tile, though disjoint from it.
			g.expect([]bool{g.tile(0, 1, 3, 5), g.tile(0, 1, 0, 2), g.tile(2, 3, 0, 2)}, true, false, false)
			g.flush()
		})
		t.Run(name+"/band revisited", func(t *testing.T) {
			g := newTileRig(t, 7, dram)
			g.region(10 * tilePitch)
			g.expect([]bool{g.tile(0, 1, 0, 2), g.tile(2, 3, 0, 2), g.tile(0, 1, 3, 5)}, true, true, false)
			g.flush()
		})
		t.Run(name+"/overlapping", func(t *testing.T) {
			g := newTileRig(t, 7, dram)
			g.region(10 * tilePitch)
			// Row 1 is still resident: replayed, its words would drain twice.
			g.expect([]bool{g.tile(0, 1, 0, 2), g.tile(1, 2, 0, 2)}, true, false)
			g.flush()
		})
		t.Run(name+"/same band, overlapping columns", func(t *testing.T) {
			g := newTileRig(t, 7, dram)
			g.region(10 * tilePitch)
			g.expect([]bool{g.tile(0, 1, 0, 2), g.tile(0, 1, 2, 4)}, true, false)
			g.flush()
		})
		t.Run(name+"/wrapping", func(t *testing.T) {
			g := newTileRig(t, 7, dram)
			g.region(10 * tilePitch)
			g.expect([]bool{g.tile(0, 1, 0, 2)}, true)
			// Lo in column 8 and Hi in column 2: the columns wrap. Its
			// stream rewrites 111 and 112, still resident.
			lo, hi := int64(tileBase+8), int64(tileBase+tilePitch+2)
			blk := trace.Block{Off: lo, N: 1, Words: 5, Lo: lo, Hi: hi, Distinct: true, Pitch: tilePitch}
			g.expect([]bool{g.stream(blk, 0, 0, 8, 12)}, false)
			g.flush()
		})
		t.Run(name+"/not distinct", func(t *testing.T) {
			g := newTileRig(t, 7, dram)
			g.region(10 * tilePitch)
			blk := trace.Block{Off: tileBase, N: 2, Words: 6, Lo: tileBase, Hi: tileBase + tilePitch + 2, Pitch: tilePitch}
			g.expect([]bool{g.stream(blk, 0, 1, 0, 2), g.tile(2, 3, 0, 2)}, false, false)
			g.flush()
		})
		t.Run(name+"/pitch 0", func(t *testing.T) {
			g := newTileRig(t, 7, dram)
			g.region(10 * tilePitch)
			blk := trace.Block{Off: tileBase, N: 2, Words: 6, Lo: tileBase, Hi: tileBase + tilePitch + 2, Distinct: true}
			g.expect([]bool{g.stream(blk, 0, 1, 0, 2), g.tile(2, 3, 0, 2)}, false, false)
			g.flush()
		})
		t.Run(name+"/another pitch", func(t *testing.T) {
			g := newTileRig(t, 7, dram)
			g.region(10 * tilePitch)
			g.tile(0, 1, 0, 2)
			blk := trace.Block{Off: tileBase + 50, N: 1, Words: 3, Lo: tileBase + 50, Hi: tileBase + 52, Distinct: true, Pitch: 5}
			g.expect([]bool{g.stream(blk, 5, 5, 0, 2)}, false)
			g.flush()
		})
		t.Run(name+"/unbracketed write", func(t *testing.T) {
			g := newTileRig(t, 7, dram)
			g.region(10 * tilePitch)
			g.tile(0, 1, 0, 2)
			// The loose word is one the next tile writes: it must hit.
			g.loose(tileBase + 2*tilePitch)
			g.expect([]bool{g.tile(2, 3, 0, 2)}, false)
			g.flush()
		})
		t.Run(name+"/ring not empty at SetRegion", func(t *testing.T) {
			g := newTileRig(t, 7, dram)
			g.loose(tileBase)
			g.region(10 * tilePitch)
			g.expect([]bool{g.tile(0, 1, 0, 2)}, false)
			g.flush()
		})
		t.Run(name+"/no region", func(t *testing.T) {
			g := newTileRig(t, 7, dram)
			g.expect([]bool{g.tile(0, 1, 0, 2)}, false)
			g.flush()
		})
		t.Run(name+"/outside the dense table", func(t *testing.T) {
			g := newTileRig(t, 7, dram)
			g.region(2 * tilePitch)
			// Rows 2..3 leave the region: the scan falls back, as the twin's.
			g.expect([]bool{g.tile(0, 1, 0, 2), g.tile(2, 3, 0, 2)}, true, false)
			g.flush()
		})
	}
}
