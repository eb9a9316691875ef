package memory

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/dataflow"
	"scalesim/internal/obsv"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
)

// unbracketed passes both trace paths through and hides the buffer's
// trace.BlockConsumer, so the producer streams every block in full: the
// reference the block residency memo must be indistinguishable from.
type unbracketed struct {
	c interface {
		trace.Consumer
		trace.RunConsumer
	}
}

func (u unbracketed) Consume(cycle int64, addrs []int64)        { u.c.Consume(cycle, addrs) }
func (u unbracketed) ConsumeRuns(cycle int64, runs []trace.Run) { u.c.ConsumeRuns(cycle, runs) }

// blockOutcome is everything a memory system lets the outside observe.
type blockOutcome struct {
	report            Report
	read, write       []byte
	profiles          [3][]trace.ProfilePoint
	evictions         [2]int64
	fallbacks         int64
	skipped, skipWord int64
	// recent counts the blocks skipped all-hit by recency (included in
	// skipped). thrashed and firstTouch count the blocks replayed all-miss
	// by either proof; thrashWords and firstWords the words in them, per
	// read buffer (IFMAP, filter), and unprovable whether that buffer had
	// ruled the all-miss proofs out by the end.
	recent                  int64
	thrashed, firstTouch    int64
	thrashWords, firstWords [2]int64
	unprovable              [2]bool
}

// runBlocks simulates l into a fresh system, with or without the block
// bracket, recording the DRAM traces as CSV bytes.
func runBlocks(t *testing.T, l topology.Layer, cfg config.Config, opt Options, win systolic.Window,
	bracket bool, regions func(*System)) blockOutcome {
	t.Helper()
	var rd, wr bytes.Buffer
	rw, ww := trace.NewCSVWriter(&rd), trace.NewCSVWriter(&wr)
	reg := &obsv.Registry{}
	opt.DRAMRead, opt.DRAMWrite, opt.Metrics = rw, ww, reg
	sys, err := NewSystem(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	regions(sys)
	var thrashWords, firstWords [2]obsv.Counter
	var recent obsv.Counter
	for i, b := range []*ReadBuffer{sys.Ifmap, sys.Filter} {
		b.memo.thrashed.words, b.memo.firstTouch.words = &thrashWords[i], &firstWords[i]
		b.memo.recent.blocks = &recent
	}
	sinks := systolic.Sinks{IfmapRead: sys.Ifmap, FilterRead: sys.Filter, OfmapWrite: sys.Ofmap}
	if !bracket {
		sinks = systolic.Sinks{IfmapRead: unbracketed{sys.Ifmap},
			FilterRead: unbracketed{sys.Filter}, OfmapWrite: unbracketed{sys.Ofmap}}
	}
	comp, err := systolic.RunWindow(l, cfg, win, sinks)
	if err != nil {
		t.Fatal(err)
	}
	sys.Ofmap.Flush(comp.Cycles)
	for _, w := range []*trace.CSVWriter{rw, ww} {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return blockOutcome{
		report:      sys.Report(comp.Cycles),
		read:        rd.Bytes(),
		write:       wr.Bytes(),
		profiles:    [3][]trace.ProfilePoint{sys.IfmapBW.Profile(), sys.FilterBW.Profile(), sys.OfmapBW.Profile()},
		evictions:   [2]int64{sys.Ifmap.Evictions, sys.Filter.Evictions},
		fallbacks:   sys.RegionFallbacks(),
		skipped:     reg.Counter("memory.blocks_skipped").Value(),
		skipWord:    reg.Counter("memory.words_skipped").Value(),
		recent:      recent.Value(),
		thrashed:    reg.Counter("memory.blocks_thrashed").Value(),
		firstTouch:  reg.Counter("memory.blocks_first_touch").Value(),
		thrashWords: [2]int64{thrashWords[0].Value(), thrashWords[1].Value()},
		firstWords:  [2]int64{firstWords[0].Value(), firstWords[1].Value()},
		unprovable:  [2]bool{sys.Ifmap.memo.unprovable, sys.Filter.memo.unprovable},
	}
}

func layerRegions(l topology.Layer, cfg config.Config) func(*System) {
	return func(s *System) {
		s.SetRegions(cfg.IfmapOffset, l.IfmapWords(), cfg.FilterOffset, l.FilterWords(),
			cfg.OfmapOffset, l.OfmapWords())
	}
}

// requireSameOutcome fails unless the bracketed and the full stream are
// indistinguishable from outside the buffers.
func requireSameOutcome(t *testing.T, got, want blockOutcome) {
	t.Helper()
	requireSameObservables(t, got, want)
	if want.skipped != 0 || want.thrashed != 0 || want.firstTouch != 0 {
		t.Errorf("the unbracketed reference skipped %d blocks and replayed %d and %d",
			want.skipped, want.thrashed, want.firstTouch)
	}
}

// requireSameObservables compares everything two memory systems let the
// outside observe, except what they skipped.
func requireSameObservables(t *testing.T, got, want blockOutcome) {
	t.Helper()
	if !reflect.DeepEqual(got.report, want.report) {
		t.Errorf("reports differ:\ngot:  %+v\nwant: %+v", got.report, want.report)
	}
	if !bytes.Equal(got.read, want.read) {
		t.Errorf("DRAM read traces differ (%d vs %d bytes)", len(got.read), len(want.read))
	}
	if !bytes.Equal(got.write, want.write) {
		t.Errorf("DRAM write traces differ (%d vs %d bytes)", len(got.write), len(want.write))
	}
	if !reflect.DeepEqual(got.profiles, want.profiles) {
		t.Error("bandwidth profiles differ")
	}
	if got.evictions != want.evictions {
		t.Errorf("evictions differ: %v vs %v", got.evictions, want.evictions)
	}
	if got.fallbacks != want.fallbacks {
		t.Errorf("region fallbacks differ: %d vs %d", got.fallbacks, want.fallbacks)
	}
}

func resnetLayer(t *testing.T, name string) topology.Layer {
	t.Helper()
	l, ok := topology.ResNet50().Layer(name)
	if !ok {
		t.Fatalf("no ResNet50 layer %q", name)
	}
	return l
}

// TestBlockMemoMatchesFullStream is the block memo's exactness harness over
// the three residency regimes, pinned on real layers at the default
// configuration: the tensor fits (every repeat is skipped), a block fits
// but the tensor thrashes (CB4a_2's 590 K filter words against 262 K of
// capacity: replayed all-miss under OS), and the block itself overflows the
// buffer (CB2b_1's IFMAP).
func TestBlockMemoMatchesFullStream(t *testing.T) {
	if testing.Short() {
		t.Skip("full ResNet50 layers")
	}
	for _, name := range []string{"CB2a_1", "CB2b_1", "CB4a_2", "CB5a_2"} {
		l := resnetLayer(t, name)
		for _, df := range config.Dataflows {
			t.Run(name+"/"+df.String(), func(t *testing.T) {
				cfg := config.New().WithDataflow(df)
				got := runBlocks(t, l, cfg, Options{}, systolic.Window{}, true, layerRegions(l, cfg))
				want := runBlocks(t, l, cfg, Options{}, systolic.Window{}, false, layerRegions(l, cfg))
				requireSameOutcome(t, got, want)
				if got.fallbacks != 0 {
					t.Errorf("%d region fallbacks on a correct declaration", got.fallbacks)
				}
				if (name == "CB4a_2" || name == "CB5a_2") && df == config.OutputStationary &&
					(got.thrashWords[1] == 0 || got.firstWords[1] == 0) {
					t.Errorf("filter words replayed all-miss: %d thrashed, %d first touch; want both",
						got.thrashWords[1], got.firstWords[1])
				}
			})
		}
	}
	// A 3x3 convolution's IFMAP row folds share rows. With an IFMAP buffer
	// smaller than the tensor, so that the region does not fit and rule the
	// proof out by itself, the overlapping hulls must keep every IFMAP block
	// scanned.
	t.Run("CB4a_2/os/ifmap_64KB", func(t *testing.T) {
		l := resnetLayer(t, "CB4a_2")
		cfg := config.New().WithSRAM(64, config.DefaultFilterSRAMKB, config.DefaultOfmapSRAMKB)
		if l.IfmapWords() <= cfg.IfmapSRAMWords()/2 {
			t.Fatal("the IFMAP tensor fits the buffer")
		}
		got := runBlocks(t, l, cfg, Options{}, systolic.Window{}, true, layerRegions(l, cfg))
		want := runBlocks(t, l, cfg, Options{}, systolic.Window{}, false, layerRegions(l, cfg))
		requireSameOutcome(t, got, want)
		if got.thrashWords[0] != 0 || got.firstWords[0] != 0 || !got.unprovable[0] {
			t.Errorf("IFMAP: %d + %d words replayed, proof ruled out %t; want 0 and true",
				got.thrashWords[0], got.firstWords[0], got.unprovable[0])
		}
	})
}

// blockCase is one point of the randomised grid: layer shape, dataflow, array
// shape, SRAM sizes, edge trimming and partition window,
// with SRAMs small enough that all three residency regimes occur.
type blockCase struct {
	l        topology.Layer
	cfg      config.Config
	win      systolic.Window
	windowed bool
}

func (c blockCase) name(i int) string {
	return fmt.Sprintf("%d_%s_%dx%d", i, c.cfg.Dataflow, c.cfg.ArrayHeight, c.cfg.ArrayWidth)
}

func randomBlockCase(rng *rand.Rand, i int) blockCase {
	fh := 1 + rng.Intn(3)
	c := blockCase{l: topology.Layer{
		Name:   fmt.Sprintf("rand%d", i),
		IfmapH: fh + rng.Intn(12), IfmapW: fh + rng.Intn(12),
		FilterH: fh, FilterW: fh,
		Channels: 1 + rng.Intn(12), NumFilters: 1 + rng.Intn(40),
		Stride: 1 + rng.Intn(2),
	}}
	if i%10 == 0 {
		c.l = topology.FromGEMM(c.l.Name, 1+rng.Intn(60), 1+rng.Intn(60), 1+rng.Intn(60))
	}
	c.cfg = config.New().
		WithArray(1+rng.Intn(9), 1+rng.Intn(9)).
		WithDataflow(config.Dataflows[rng.Intn(len(config.Dataflows))]).
		WithSRAM(1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(2))
	c.cfg.EdgeTrim = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		// Twice the SRAM: the residency single buffering used to give.
		c.cfg = c.cfg.WithSRAM(2*c.cfg.IfmapSRAMKB, 2*c.cfg.FilterSRAMKB, 2*c.cfg.OfmapSRAMKB)
	}
	rng.Intn(100) // once the bandwidth window; still drawn so the grid keeps its cases and their names
	if m := dataflow.Map(c.l, c.cfg.Dataflow); rng.Intn(3) == 0 && m.Sr > 1 && m.Sc > 1 {
		// A partition's slice of the mapping.
		c.win.SrOff, c.win.ScOff = rng.Int63n(m.Sr-1), rng.Int63n(m.Sc-1)
		c.win.SrLen, c.win.ScLen = 1+rng.Int63n(m.Sr-c.win.SrOff), 1+rng.Int63n(m.Sc-c.win.ScOff)
		c.windowed = true
	}
	return c
}

// TestBlockMemoRandomGrid sweeps the randomised grid and requires that the
// sweep really visited all three regimes, and runs in which blocks were
// replayed all-miss by thrashing and by first touch and skipped by recency.
func TestBlockMemoRandomGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var skippedAll, skippedSome, skippedNone, replayed, firstTouched, recent, windows int
	for i := 0; i < 120; i++ {
		c := randomBlockCase(rng, i)
		if c.windowed {
			windows++
		}
		t.Run(c.name(i), func(t *testing.T) {
			got := runBlocks(t, c.l, c.cfg, Options{}, c.win, true, layerRegions(c.l, c.cfg))
			want := runBlocks(t, c.l, c.cfg, Options{}, c.win, false, layerRegions(c.l, c.cfg))
			requireSameOutcome(t, got, want)
			sram := got.report.IfmapSRAMReads + got.report.FilterSRAMReads + got.report.OfmapSRAMWrites
			switch {
			case got.skipped == 0:
				skippedNone++
			case got.evictions == [2]int64{} && got.skipWord*2 > sram:
				skippedAll++
			default:
				skippedSome++
			}
			if got.thrashed > 0 {
				replayed++
			}
			if got.firstTouch > 0 {
				firstTouched++
			}
			if got.recent > 0 {
				recent++
			}
		})
	}
	if skippedAll == 0 || skippedSome == 0 || skippedNone == 0 || replayed == 0 || firstTouched == 0 ||
		recent == 0 || windows == 0 {
		t.Errorf("grid missed a regime: mostly skipped %d, partly %d, never %d, replayed all-miss %d, "+
			"first touch %d, skipped by recency %d, windowed %d",
			skippedAll, skippedSome, skippedNone, replayed, firstTouched, recent, windows)
	}
}

// poisonedTables is what a careless previous owner could leave behind: every
// mark set, every ring slot full of junk, a replay queue of junk entries
// still counted as queued, and capacities that bear no relation to the next
// layer's — scale 0 drops a table, below 1 leaves it too small for the
// words it has to cover, above 1 too large.
func poisonedTables(words [3]int64, scale [3]float64) *Tables {
	t := &Tables{}
	for i := range t.sets {
		n := int64(float64(words[i]) * scale[i])
		t.sets[i].marks = bytes.Repeat([]byte{1}, int(n))
		t.sets[i].ring = make([]int64, n)
		for j := range t.sets[i].ring {
			t.sets[i].ring[j] = -1 - int64(j)
		}
		q := &t.sets[i].queue
		for j := range 1 + n%7 {
			q.runs = append(q.runs, trace.Run{Base: -100 * (j + 1), Stride: 1, Count: j + 1})
			q.batches = append(q.batches, batch{off: int(j), n: 1, words: j + 1, step: -3, times: 2})
			q.words += 2 * (j + 1)
		}
	}
	return t
}

// TestAdoptedTablesAreInvisible: over the same grid, a System that adopts
// poisoned tables before declaring its regions reports exactly what a fresh
// System reports — traces, profiles, evictions and skips included — and the
// tables it releases can be adopted again.
func TestAdoptedTablesAreInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	scales := []float64{0, 0.5, 1, 3}
	var reused, regrown int
	for i := 0; i < 120; i++ {
		c := randomBlockCase(rng, i)
		words := [3]int64{c.l.IfmapWords(), c.l.FilterWords(), c.l.OfmapWords()}
		scale := [3]float64{scales[rng.Intn(4)], scales[rng.Intn(4)], scales[rng.Intn(4)]}
		t.Run(c.name(i), func(t *testing.T) {
			want := runBlocks(t, c.l, c.cfg, Options{}, c.win, true, layerRegions(c.l, c.cfg))
			var sys *System
			adopt := func(tables *Tables) func(*System) {
				return func(s *System) {
					sys = s
					s.Adopt(tables)
					layerRegions(c.l, c.cfg)(s)
				}
			}
			got := runBlocks(t, c.l, c.cfg, Options{}, c.win, true, adopt(poisonedTables(words, scale)))
			requireSameObservables(t, got, want)
			if got.skipped != want.skipped || got.skipWord != want.skipWord || got.thrashWords != want.thrashWords ||
				got.firstWords != want.firstWords {
				t.Errorf("skips differ: %d blocks %d words vs %d and %d; replayed words %v vs %v, first touch %v vs %v",
					got.skipped, got.skipWord, want.skipped, want.skipWord, got.thrashWords, want.thrashWords,
					got.firstWords, want.firstWords)
			}
			released := sys.Release()
			for k, set := range released.sets {
				switch {
				case scale[k] >= 1 && int64(cap(set.marks)) == int64(float64(words[k])*scale[k]):
					reused++
				case scale[k] < 1 && int64(cap(set.marks)) >= words[k]:
					regrown++
				default:
					t.Errorf("buffer %d: released %d mark bytes for %d words adopted at scale %v",
						k, cap(set.marks), words[k], scale[k])
				}
			}
			again := runBlocks(t, c.l, c.cfg, Options{}, c.win, true, adopt(released))
			requireSameObservables(t, again, want)
		})
	}
	if reused == 0 || regrown == 0 {
		t.Errorf("grid missed a case: %d tables reused, %d reallocated", reused, regrown)
	}
}

// TestRecycledTablesStayClean chains layers of the grid through one set of
// tables, as a worker does: each layer adopts what the last one released,
// so a mark a clear missed would reach the next layer. Each layer must
// report exactly what a fresh System reports, and every released marks
// table must be zero outside the dirty range it travels with — the only
// range the next SetRegion, reindex or drain clears. A ring that reindex
// re-marks is the rare case in the chain (layer 35 here), so it is also
// driven by hand.
func TestRecycledTablesStayClean(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	var tables *Tables
	var replayed, reused int
	for i := 0; i < 40; i++ {
		c := randomBlockCase(rng, i)
		words := [3]int64{c.l.IfmapWords(), c.l.FilterWords(), c.l.OfmapWords()}
		want := runBlocks(t, c.l, c.cfg, Options{}, c.win, true, layerRegions(c.l, c.cfg))
		var sys *System
		got := runBlocks(t, c.l, c.cfg, Options{}, c.win, true, func(s *System) {
			if sys = s; tables != nil {
				for k, set := range tables.sets {
					if int64(cap(set.marks)) >= words[k] {
						reused++
					}
				}
				s.Adopt(tables)
			}
			layerRegions(c.l, c.cfg)(s)
		})
		requireSameObservables(t, got, want)
		if got.skipped != want.skipped || got.skipWord != want.skipWord || got.thrashWords != want.thrashWords ||
			got.firstWords != want.firstWords {
			t.Errorf("layer %d: skips differ: %d blocks %d words vs %d and %d; replayed words %v vs %v, first touch %v vs %v",
				i, got.skipped, got.skipWord, want.skipped, want.skipWord, got.thrashWords, want.thrashWords,
				got.firstWords, want.firstWords)
		}
		if got.thrashed > 0 || got.firstTouch > 0 {
			replayed++
		}
		tables = sys.Release()
		for k, set := range tables.sets {
			requireMarksInRange(t, fmt.Sprintf("layer %d, buffer %d", i, k), set.marks, set.dirty)
		}
	}
	if replayed == 0 || reused == 0 {
		t.Errorf("chain missed a case: %d layers replayed blocks, %d tables reused", replayed, reused)
	}

	t.Run("reindex", func(t *testing.T) {
		// Two first touches are queued unmarked; a scan of a word neither
		// covers writes them into the ring and the marks.
		g := newMissRig(t)
		g.region(0, 64)
		g.expect([]verdict{g.block(seq(20, 2)), g.block(seq(0, 4))}, byFirstTouch, byFirstTouch)
		g.loose(seq(40, 1))
		requireMarksInRange(t, "after reindex", g.b.set.marks, g.b.set.dirty)
	})
}

// requireMarksInRange fails if any of a table's marks, up to its capacity,
// is set outside the dirty range d.
func requireMarksInRange(t *testing.T, what string, marks []byte, d span) {
	t.Helper()
	for j, m := range marks[:cap(marks)] {
		if m != 0 && (int32(j) < d.lo || int32(j) >= d.hi) {
			t.Fatalf("%s: mark %d set outside the dirty range [%d, %d)", what, j, d.lo, d.hi)
		}
	}
}

// TestRegionFallbackWithLazyMap: a region declared too small sends the
// stream past it. No probe table exists up front, so the fallback has to
// build it; the run must count the fallbacks and otherwise
// be indistinguishable from one with no region declared — bracketed or not.
func TestRegionFallbackWithLazyMap(t *testing.T) {
	l := topology.Layer{Name: "fb", IfmapH: 9, IfmapW: 9, FilterH: 3, FilterW: 3,
		Channels: 4, NumFilters: 20, Stride: 1}
	for _, df := range config.Dataflows {
		for _, bracket := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/bracket=%t", df, bracket), func(t *testing.T) {
				cfg := config.New().WithArray(4, 4).WithDataflow(df).WithSRAM(1, 1, 1)
				tooSmall := func(s *System) {
					s.SetRegions(cfg.IfmapOffset, l.IfmapWords()/3, cfg.FilterOffset, l.FilterWords()/3,
						cfg.OfmapOffset, l.OfmapWords()/3)
				}
				got := runBlocks(t, l, cfg, Options{}, systolic.Window{}, bracket, tooSmall)
				if got.fallbacks != 3 {
					t.Errorf("RegionFallbacks = %d, want one per buffer", got.fallbacks)
				}
				want := runBlocks(t, l, cfg, Options{}, systolic.Window{}, false, func(*System) {})
				got.fallbacks = 0
				requireSameOutcome(t, got, want)
			})
		}
	}
}

// TestBlockMemoInvalidation drives the bracket by hand: a block is proven
// only by a complete eviction-free stream, and any later eviction (or, for
// the write buffer, drain) revokes the proof.
func TestBlockMemoInvalidation(t *testing.T) {
	rec := &trace.Recorder{}
	b, err := NewReadBuffer("r", 8, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	block := func(base int64) (skipped bool) {
		runs := []trace.Run{seq(base, 2), seq(base, 2)}
		if b.BeginBlock(declare(runs...)) {
			return true
		}
		b.ConsumeRuns(0, runs)
		b.EndBlock()
		return false
	}
	if block(10) {
		t.Fatal("first stream skipped")
	}
	if !block(10) {
		t.Fatal("eviction-free block not proven")
	}
	if block(20) || !block(20) {
		t.Fatal("second block: want stream then skip")
	}
	if b.SRAMReads != 16 || b.DRAMReads != 4 {
		t.Errorf("SRAMReads %d DRAMReads %d, want 16 and 4", b.SRAMReads, b.DRAMReads)
	}
	if block(30) { // evicts 10, 11: every proof is void
		t.Fatal("new block skipped")
	}
	if block(30) || block(20) || block(10) {
		t.Fatal("block skipped although evictions have happened since its proof")
	}
	if got := rec.Addresses(); !reflect.DeepEqual(got, []int64{10, 11, 20, 21, 30, 31, 10, 11}) {
		t.Errorf("miss stream %v", got)
	}

	w, err := NewWriteBuffer("w", 16, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wblock := func() bool {
		if w.BeginBlock(trace.Block{N: 3, Words: 3, Hi: -1}) {
			return true
		}
		w.ConsumeRuns(0, []trace.Run{seq(0, 3)})
		w.EndBlock()
		return false
	}
	if wblock() || !wblock() {
		t.Fatal("write block: want stream then skip")
	}
	if w.Flush(1) != 3 || wblock() {
		t.Fatal("write block skipped after Flush emptied the buffer")
	}
	if w.SRAMWrites != 9 || w.Pending() != 3 {
		t.Errorf("SRAMWrites %d Pending %d, want 9 and 3", w.SRAMWrites, w.Pending())
	}
}

func seq(base, n int64) trace.Run { return trace.Run{Base: base, Stride: 1, Count: n} }

// declare is the producer's declaration of a block streamed as runs, keyed
// by its first address and run count: the exact hull, and whether no
// address repeats.
func declare(runs ...trace.Run) trace.Block {
	addrs := trace.ExpandRuns(runs, nil)
	sorted := slices.Clone(addrs)
	slices.Sort(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1] // before Compact, which zeroes the tail
	return trace.Block{Off: runs[0].Base, N: int64(len(runs)), Words: int64(len(addrs)),
		Lo: lo, Hi: hi, Distinct: len(slices.Compact(sorted)) == len(addrs)}
}

// verdict is what a bracketed read buffer did with one block.
type verdict string

const (
	byScan       verdict = "scanned"
	byEvictions  verdict = "all-hit by the eviction counter"
	byRecency    verdict = "all-hit by recency"
	byThrash     verdict = "all-miss by thrashing"
	byFirstTouch verdict = "all-miss by first touch"
)

// missRig drives a read buffer through bracketed blocks and, beside it, an
// unbracketed reference fed the same runs; after every step the two must
// agree on the miss stream and on every counter.
type missRig struct {
	t         *testing.T
	b, ref    *ReadBuffer
	got, want *trace.Recorder
	// counts are the buffer's block counters, in the order of verdicts.
	counts [4]obsv.Counter
	cycle  int64
}

var verdicts = [4]verdict{byEvictions, byRecency, byThrash, byFirstTouch}

// newMissRig builds the pair with 4 resident words each.
func newMissRig(t *testing.T) *missRig { return newMissRigOf(t, 4) }

// newMissRigOf builds the pair with resident words each.
func newMissRigOf(t *testing.T, resident int64) *missRig {
	g := &missRig{t: t, got: &trace.Recorder{}, want: &trace.Recorder{}}
	var err error
	if g.b, err = NewReadBuffer("b", 2*resident, g.got, nil); err != nil {
		t.Fatal(err)
	}
	if g.ref, err = NewReadBuffer("ref", 2*resident, g.want, nil); err != nil {
		t.Fatal(err)
	}
	m := &g.b.memo
	for i, c := range []*blockCounters{&m.skipped, &m.recent, &m.thrashed, &m.firstTouch} {
		c.blocks = &g.counts[i]
	}
	return g
}

// region declares the same region to both buffers.
func (g *missRig) region(base, words int64) {
	g.b.SetRegion(base, words)
	g.ref.SetRegion(base, words)
}

// block streams runs as one block under their exact declaration.
func (g *missRig) block(runs ...trace.Run) verdict {
	g.t.Helper()
	return g.stream(declare(runs...), runs...)
}

// stream streams runs as the block blk declares and reports what the buffer
// did with it.
func (g *missRig) stream(blk trace.Block, runs ...trace.Run) verdict {
	g.t.Helper()
	g.cycle++
	return g.observe(func() {
		if !g.b.BeginBlock(blk) {
			g.b.ConsumeRuns(g.cycle, runs)
			g.b.EndBlock()
		}
		g.ref.ConsumeRuns(g.cycle, runs)
	})
}

// sweep streams the sweep s, from the next cycle on, as one block under its
// exact declaration: whole to the buffer, and unrolled into calls to the
// reference. It reports what the buffer did with the block.
func (g *missRig) sweep(s trace.Sweep) verdict {
	g.t.Helper()
	s.Cycle = g.cycle + 1
	g.cycle += s.Times
	var calls []trace.Run
	for j := range s.Times {
		for _, r := range s.Runs {
			r.Base += j * s.Step
			calls = append(calls, r)
		}
	}
	blk := declare(calls...)
	return g.observe(func() {
		if !g.b.BeginBlock(blk) {
			g.b.ConsumeSweep(s)
			g.b.EndBlock()
		}
		s.Unroll(g.ref)
	})
}

// observe feeds one block to both buffers, checks them against each other
// and reports what the buffer did with the block.
func (g *missRig) observe(feed func()) verdict {
	g.t.Helper()
	var before [4]int64
	for i := range g.counts {
		before[i] = g.counts[i].Value()
	}
	feed()
	g.check()
	for i, v := range verdicts {
		if g.counts[i].Value() > before[i] {
			return v
		}
	}
	return byScan
}

// loose sends runs outside any block.
func (g *missRig) loose(runs ...trace.Run) {
	g.t.Helper()
	g.cycle++
	g.b.ConsumeRuns(g.cycle, runs)
	g.ref.ConsumeRuns(g.cycle, runs)
	g.check()
}

func (g *missRig) check() {
	g.t.Helper()
	if !reflect.DeepEqual(g.got.Entries, g.want.Entries) {
		g.t.Fatalf("cycle %d: miss stream %v, reference %v", g.cycle, g.got.Addresses(), g.want.Addresses())
	}
	got := [3]int64{g.b.SRAMReads, g.b.DRAMReads, g.b.Evictions}
	if want := [3]int64{g.ref.SRAMReads, g.ref.DRAMReads, g.ref.Evictions}; got != want {
		g.t.Fatalf("cycle %d: SRAM reads, DRAM reads, evictions %v, reference %v", g.cycle, got, want)
	}
	if g.b.set.fallbacks != g.ref.set.fallbacks {
		g.t.Fatalf("cycle %d: %d region fallbacks, reference %d", g.cycle, g.b.set.fallbacks, g.ref.set.fallbacks)
	}
	// An index that is not stale is the reference's: the same words
	// resident in the same FIFO order, and the same marks.
	if g.b.set.stale {
		return
	}
	if got, want := fifoOrder(g.b.set), fifoOrder(g.ref.set); !slices.Equal(got, want) {
		g.t.Fatalf("cycle %d: resident words %v, reference %v", g.cycle, got, want)
	}
	if !bytes.Equal(g.b.set.marks, g.ref.set.marks) {
		g.t.Fatalf("cycle %d: marks differ from the reference's", g.cycle)
	}
}

// expect fails unless the verdicts are the wanted ones, in order.
func (g *missRig) expect(got []verdict, want ...verdict) {
	g.t.Helper()
	if !slices.Equal(got, want) {
		g.t.Fatalf("verdicts %q, want %q", got, want)
	}
}

// TestAllMissMemoInvalidation drives the thrash proof by hand. Two disjoint
// blocks that each fill the buffer are first touches, then replay one
// another's evictions; each of the proof's three conditions then blocks the
// replay on its own — in every case where the replay would have been wrong,
// the reference comparison would catch it. A replay leaves the residency
// index stale: the next block with real hits must still see exact
// residency, and Release must not hand a stale index to the next System.
func TestAllMissMemoInvalidation(t *testing.T) {
	A, B := seq(0, 4), seq(10, 4)
	t.Run("proven", func(t *testing.T) {
		g := newMissRig(t)
		g.expect([]verdict{g.block(A), g.block(B), g.block(A), g.block(B)},
			byFirstTouch, byFirstTouch, byThrash, byThrash)
		// Only C's 2 insertions since B's stream ended: B is scanned.
		g.expect([]verdict{g.block(seq(20, 2)), g.block(B), g.block(A)}, byFirstTouch, byScan, byThrash)
	})
	t.Run("mixed last stream", func(t *testing.T) {
		g := newMissRig(t)
		mixed := []trace.Run{seq(0, 3), seq(0, 1)} // the repeat of 0 hits
		g.expect([]verdict{g.block(mixed...), g.block(B), g.block(mixed...)}, byScan, byFirstTouch, byScan)
	})
	t.Run("overlapping hull", func(t *testing.T) {
		g := newMissRig(t)
		g.block(A)
		g.block(B)
		// A block holding only 0: its hull overlaps A's, and 0 is still
		// resident when A next streams, so A hits on it.
		g.expect([]verdict{g.block(seq(0, 1)), g.block(A), g.block(B), g.block(A)}, byScan, byScan, byScan, byScan)
	})
	t.Run("unbracketed traffic", func(t *testing.T) {
		g := newMissRig(t)
		g.block(A)
		g.block(B)
		g.loose(seq(0, 1))
		g.expect([]verdict{g.block(A), g.block(B), g.block(A)}, byScan, byScan, byScan)
	})
	t.Run("exact residency after a replay", func(t *testing.T) {
		g := newMissRig(t)
		g.expect([]verdict{g.block(A), g.block(B), g.block(A)}, byFirstTouch, byFirstTouch, byThrash)
		if !g.b.set.stale {
			t.Fatal("want the index stale")
		}
		// No scan has written the index yet: read unrebuilt, 2 and 3 would
		// miss and nothing of it would be checked against the ring.
		dram := g.b.DRAMReads
		g.block(seq(2, 2), seq(40, 1))
		if g.b.DRAMReads-dram != 1 || g.b.set.stale {
			t.Errorf("block after a replay: %d misses (want 1), index stale %t", g.b.DRAMReads-dram, g.b.set.stale)
		}
	})
	t.Run("release after a replay", func(t *testing.T) {
		cfg := config.New().WithSRAM(1, 1, 1)
		run := func(tables *Tables, steps int) (*System, []trace.Entry, [3]int64) {
			rec, reg := &trace.Recorder{}, &obsv.Registry{}
			sys, err := NewSystem(cfg, Options{DRAMRead: rec, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if tables != nil {
				sys.Adopt(tables)
			}
			c := sys.Filter.set.capacity
			sys.SetRegions(0, 1, 0, 4*c, 0, 1)
			f := sys.Filter
			script := [][]trace.Run{{seq(0, c)}, {seq(c, c)}, {seq(0, c)}, {seq(c/2, c)}}
			for i, runs := range script[:steps] {
				if !f.BeginBlock(declare(runs...)) {
					f.ConsumeRuns(int64(i), runs)
					f.EndBlock()
				}
			}
			thrashed, first := reg.Counter("memory.words_thrashed").Value(), reg.Counter("memory.words_first_touch").Value()
			if thrashed != c || first != 2*c {
				t.Fatalf("%d words thrashed and %d first touch, want the third block's %d and the first two's %d",
					thrashed, first, c, 2*c)
			}
			return sys, rec.Entries, [3]int64{f.SRAMReads, f.DRAMReads, f.Evictions}
		}
		stale, _, _ := run(nil, 3)
		if !stale.Filter.set.stale {
			t.Fatal("want the filter index stale at Release")
		}
		_, got, gotN := run(stale.Release(), 4)
		_, want, wantN := run(nil, 4)
		if !reflect.DeepEqual(got, want) || gotN != wantN {
			t.Errorf("adopted after a replay: counters %v, fresh %v", gotN, wantN)
		}
		if c := wantN[0] / 4; wantN[1] != 3*c+c/2 {
			t.Errorf("%d DRAM reads, want %d: the last block hits on A's second half", wantN[1], 3*c+c/2)
		}
	})
}

// TestFirstTouchMemoInvalidation drives the first-touch proof by hand: a
// block with no entry, declared distinct, whose declared hull is disjoint
// from every earlier block's, in a buffer that has seen no unbracketed
// traffic, misses on every word. Each condition blocks the proof on its
// own; where a word of the block is really resident, a wrong replay would
// also differ from the reference. A region that fits the buffer takes the
// proof too, and inserts the block at once instead of queueing it.
func TestFirstTouchMemoInvalidation(t *testing.T) {
	A := seq(0, 4)
	t.Run("proven", func(t *testing.T) {
		g := newMissRig(t)
		g.region(0, 64)
		g.expect([]verdict{g.block(seq(20, 2)), g.block(A)}, byFirstTouch, byFirstTouch)
		if !g.b.set.stale {
			t.Error("want the index stale after a replay")
		}
	})
	t.Run("not distinct", func(t *testing.T) {
		g := newMissRig(t)
		g.expect([]verdict{g.block(seq(0, 3), seq(0, 1))}, byScan) // the repeat of 0 hits
	})
	t.Run("overlapping hull", func(t *testing.T) {
		g := newMissRig(t)
		g.expect([]verdict{g.block(A), g.block(seq(2, 1))}, byFirstTouch, byScan) // 2 is resident
	})
	t.Run("existing entry", func(t *testing.T) {
		g := newMissRig(t)
		// C evicts 0 and 1; A's second stream misses on them and hits on 2, 3.
		g.expect([]verdict{g.block(A), g.block(seq(10, 2)), g.block(A)}, byFirstTouch, byFirstTouch, byScan)
	})
	t.Run("unbracketed batch", func(t *testing.T) {
		g := newMissRig(t)
		g.loose(seq(0, 1))
		g.expect([]verdict{g.block(A)}, byScan)
	})
	t.Run("no hull declared", func(t *testing.T) {
		g := newMissRig(t)
		// Lo > Hi: no hull, whatever the two bounds are.
		g.stream(trace.Block{Off: 0, N: 1, Words: 1, Lo: 50, Hi: 49}, seq(0, 1))
		g.expect([]verdict{g.block(A)}, byScan)
	})
	t.Run("region fits", func(t *testing.T) {
		g := newMissRig(t)
		g.region(0, 4)
		g.expect([]verdict{g.block(A)}, byFirstTouch)
		if g.b.set.stale {
			t.Error("a fitting set went stale: its first touch was queued, not inserted")
		}
	})
	t.Run("traffic before the region", func(t *testing.T) {
		g := newMissRig(t)
		g.loose(seq(0, 1))
		g.region(0, 64)
		g.expect([]verdict{g.block(A)}, byScan)
	})
	t.Run("replay before the region", func(t *testing.T) {
		g := newMissRig(t)
		// The first touch is only queued, the ring still empty: the region
		// declared after it must be ignored all the same, or the queued
		// words would be indexed into a table that does not cover them.
		g.expect([]verdict{g.block(seq(100, 4))}, byFirstTouch)
		g.region(0, 64)
		g.expect([]verdict{g.block(seq(100, 4))}, byScan)
		if g.b.set.dense {
			t.Error("a region declared after traffic took effect")
		}
	})
	t.Run("hull outside the dense table", func(t *testing.T) {
		g := newMissRig(t)
		g.region(0, 8)
		// The scan leaves the dense table exactly where the reference does.
		g.expect([]verdict{g.block(seq(100, 4)), g.block(A)}, byScan, byFirstTouch)
		if g.b.set.fallbacks != 1 {
			t.Errorf("%d region fallbacks, want 1", g.b.set.fallbacks)
		}
	})
	t.Run("partly full ring", func(t *testing.T) {
		g := newMissRig(t)
		// A fills the one free slot and evicts three: check compares the
		// evictions with the reference's.
		g.expect([]verdict{g.block(seq(100, 3)), g.block(A)}, byFirstTouch, byFirstTouch)
		if g.b.Evictions != 3 {
			t.Errorf("%d evictions, want 3", g.b.Evictions)
		}
	})
	t.Run("first traffic in a probe-table region", func(t *testing.T) {
		g := newMissRig(t)
		g.region(0, denseLimitWords+1)
		g.expect([]verdict{g.block(A)}, byFirstTouch)
		if g.b.set.probe != nil || !g.b.set.stale {
			t.Fatal("want no probe table yet and a stale index")
		}
		// A scanned block (its hull overlaps A's) must build the table from
		// the ring: 2 and 3 hit.
		dram := g.b.DRAMReads
		g.expect([]verdict{g.block(seq(2, 2), seq(40, 1))}, byScan)
		if g.b.DRAMReads-dram != 1 {
			t.Errorf("%d misses, want 1", g.b.DRAMReads-dram)
		}
	})
}

// TestFittingRegionInsertsFirstTouches: in a dense region that fits its
// buffer a block proven all-miss is inserted at once — ring and marks as the
// scan would leave them, in call order — so the set never goes stale. A
// block that repeats a word is still scanned; a block outside the region
// forces the one fallback, whose probe table is built from the inserted
// ring, and the evictions that follow must take the words in the
// reference's order.
func TestFittingRegionInsertsFirstTouches(t *testing.T) {
	t.Run("fallback and evictions", func(t *testing.T) {
		g := newMissRigOf(t, 8)
		g.region(0, 8)
		g.expect([]verdict{g.block(seq(4, 2), seq(4, 1))}, byScan) // the repeat of 4 hits
		g.expect([]verdict{g.block(seq(2, 2), seq(0, 2))}, byFirstTouch)
		// One lane moving by one a call: its marks are one stretch.
		g.expect([]verdict{g.sweep(trace.Sweep{Runs: []trace.Run{seq(6, 1)}, Step: 1, Times: 2})}, byFirstTouch)
		if g.b.set.stale || g.b.Evictions != 0 {
			t.Fatalf("stale %t, %d evictions: a fitting set must insert and never evict", g.b.set.stale, g.b.Evictions)
		}
		g.expect([]verdict{g.block(seq(100, 3))}, byScan) // leaves the region: evicts 4, 5, 2
		if g.b.set.fallbacks != 1 || g.b.set.dense {
			t.Fatalf("%d region fallbacks (dense %t), want 1", g.b.set.fallbacks, g.b.set.dense)
		}
		g.expect([]verdict{g.block(seq(0, 8))}, byScan) // 0, 1 hit; 2..7 evict 3, 0, 1, 6, 7, 100
		if g.b.Evictions != 9 {
			t.Errorf("%d evictions, want 9", g.b.Evictions)
		}
	})
	t.Run("region past the reserved ring", func(t *testing.T) {
		// ringSlots reserves 1<<20 slots; the first touch takes more.
		words := int64(1<<20 + 8)
		g := newMissRigOf(t, words)
		g.region(0, words)
		if c := cap(g.b.set.ring); int64(c) >= words {
			t.Fatalf("ring reserved for %d words, want fewer than the region's %d", c, words)
		}
		// Four lanes, each moving by one a call across a quarter of the
		// region: each lane's marks are one long stretch.
		lanes := []trace.Run{{Base: 0, Stride: words / 4, Count: 4}}
		g.expect([]verdict{g.sweep(trace.Sweep{Runs: lanes, Step: 1, Times: words / 4})}, byFirstTouch)
		g.expect([]verdict{g.block(seq(0, 16))}, byScan) // all resident
		if g.b.DRAMReads != words {
			t.Errorf("%d DRAM reads, want the region's %d", g.b.DRAMReads, words)
		}
	})
}

// TestSweepScanMatchesCalls: a sweep that is not replayed is scanned call
// by call in one loop, and must leave the buffer exactly as its unrolled
// calls leave the reference — inside the dense table, leaving it part way,
// and arriving on a stale index.
func TestSweepScanMatchesCalls(t *testing.T) {
	lanes := []trace.Run{{Base: 0, Stride: 8, Count: 3}, seq(30, 2)}
	t.Run("inside the table", func(t *testing.T) {
		g := newMissRig(t)
		g.region(0, 64)
		g.loose(seq(0, 1)) // rules the proofs out: every sweep is scanned
		g.expect([]verdict{g.sweep(trace.Sweep{Runs: lanes, Step: 1, Times: 6})}, byScan)
		if g.b.set.fallbacks != 0 || g.b.Evictions == 0 {
			t.Errorf("%d fallbacks, %d evictions: want none and some", g.b.set.fallbacks, g.b.Evictions)
		}
	})
	t.Run("leaving the table", func(t *testing.T) {
		g := newMissRig(t)
		g.region(0, 34)
		g.loose(seq(0, 1))
		g.expect([]verdict{g.sweep(trace.Sweep{Runs: lanes, Step: 1, Times: 6})}, byScan)
		if g.b.set.fallbacks != 1 {
			t.Errorf("%d region fallbacks, want 1", g.b.set.fallbacks)
		}
	})
	t.Run("on a stale index", func(t *testing.T) {
		g := newMissRig(t)
		g.region(0, 64)
		g.expect([]verdict{g.block(seq(0, 2), seq(30, 2))}, byFirstTouch)
		if !g.b.set.stale {
			t.Fatal("want the index stale after a replay")
		}
		g.expect([]verdict{g.sweep(trace.Sweep{Runs: lanes, Step: 1, Times: 6})}, byScan)
	})
}

// TestRecencyMemo drives the recency proof by hand: a block whose last
// stream missed on every word stays resident for capacity-words insertions
// after it, whatever they were, and is skipped for that long; one more
// insertion and it is scanned again.
func TestRecencyMemo(t *testing.T) {
	g := newMissRig(t)
	A := seq(0, 2)
	// F fills the ring, so A's stream evicts and proves nothing by the
	// eviction counter.
	g.expect([]verdict{g.block(seq(100, 4)), g.block(A)}, byFirstTouch, byFirstTouch)
	g.expect([]verdict{g.block(seq(10, 2)), g.block(A)}, byFirstTouch, byRecency) // 2 = capacity-words since
	g.expect([]verdict{g.block(seq(20, 1)), g.block(A)}, byFirstTouch, byScan)    // 3: 0 is evicted
}

// TestSystemSetupAllocation guards the cold path's fixed cost: building a
// memory system for CB5a_2 (2.4 M filter words) allocates one table byte per
// region word, one ring slot per word that can be resident at once, and
// nothing else to speak of — 5 MB where the eager maps and full-capacity
// rings took 31 MB — and no probe table at all.
func TestSystemSetupAllocation(t *testing.T) {
	l := resnetLayer(t, "CB5a_2")
	cfg := config.New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys, err := NewSystem(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	layerRegions(l, cfg)(sys)
	runtime.ReadMemStats(&after)

	want := uint64(64 << 10) // structs, meters, size-class rounding
	for _, b := range []struct {
		set   *fifoSet
		words int64
	}{{sys.Ifmap.set, l.IfmapWords()}, {sys.Filter.set, l.FilterWords()}, {sys.Ofmap.set, l.OfmapWords()}} {
		want += uint64(b.words + 8*min(b.set.capacity, b.words))
		if b.set.probe != nil || !b.set.dense {
			t.Errorf("buffer built a probe table (dense=%t)", b.set.dense)
		}
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > want || got > 6<<20 {
		t.Errorf("NewSystem+SetRegions allocated %d bytes, want at most %d", got, want)
	}
}

// TestReservedTablesAllocateNothing: a System reserved for the largest
// region each role takes over several layers declares a smaller layer's
// regions without allocating, and reports what a System that allocated its
// tables on demand reports. CB5a_2 only sizes the reservation (its 2.4 M
// filter words), to keep the test short.
func TestReservedTablesAllocateNothing(t *testing.T) {
	cfg := config.New()
	var layers []topology.Layer
	var largest Reservation
	for _, name := range []string{"Conv1", "CB2a_2", "CB5a_2"} {
		l := resnetLayer(t, name)
		layers = append(layers, l)
		largest.Add([3]int64{l.IfmapWords(), l.FilterWords(), l.OfmapWords()})
	}
	reserved := func(s *System) { s.Reserve(largest) }
	for _, l := range layers[:2] {
		t.Run(l.Name, func(t *testing.T) {
			// One System a call: AllocsPerRun's warm-up call would
			// otherwise leave the measured ones nothing to allocate.
			systems := make([]*System, 3)
			for i := range systems {
				s, err := NewSystem(cfg, Options{})
				if err != nil {
					t.Fatal(err)
				}
				reserved(s)
				systems[i] = s
			}
			next := 0
			if n := testing.AllocsPerRun(len(systems)-1, func() {
				layerRegions(l, cfg)(systems[next])
				next++
			}); n != 0 {
				t.Errorf("SetRegions after Reserve allocated %v times a call", n)
			}
			got := runBlocks(t, l, cfg, Options{}, systolic.Window{}, true, func(s *System) {
				reserved(s)
				layerRegions(l, cfg)(s)
			})
			want := runBlocks(t, l, cfg, Options{}, systolic.Window{}, true, layerRegions(l, cfg))
			requireSameObservables(t, got, want)
		})
	}
}
