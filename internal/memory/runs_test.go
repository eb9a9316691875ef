package memory

import (
	"math/rand"
	"reflect"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/obsv"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
)

// refBuffer is the per-address model an SRAM buffer must be
// indistinguishable from: mapFIFO residency, one address at a time, with a
// read buffer's misses (or a write buffer's evictions) appended to a DRAM
// trace, one entry per cycle that has any. It is element-only, so a
// producer reaches it through trace.Runs' expanding adapter.
type refBuffer struct {
	fifo       mapFIFO
	write      bool
	sram, dram int64
	out        *[]trace.Entry
	meter      *trace.BandwidthMeter
}

func newRefBuffer(capacity int64, write bool, out *[]trace.Entry) *refBuffer {
	return &refBuffer{fifo: mapFIFO{capacity: int(capacity)}, write: write, out: out,
		meter: trace.NewBandwidthMeter(DefaultBandwidthWindow, 1)}
}

func (r *refBuffer) Consume(cycle int64, addrs []int64) {
	var traffic []int64
	for _, a := range addrs {
		r.sram++
		miss, old, evicted := r.fifo.access(a)
		switch {
		case r.write && evicted:
			traffic = append(traffic, old)
		case !r.write && miss:
			traffic = append(traffic, a)
		}
	}
	r.emit(cycle, traffic)
}

func (r *refBuffer) emit(cycle int64, traffic []int64) {
	if len(traffic) == 0 {
		return
	}
	r.dram += int64(len(traffic))
	*r.out = append(*r.out, trace.Entry{Cycle: cycle, Addrs: traffic})
	r.meter.Add(cycle, int64(len(traffic)))
}

// flush drains the resident set in FIFO order, as WriteBuffer.Flush does.
func (r *refBuffer) flush(cycle int64) {
	r.emit(cycle, r.fifo.queue)
	r.fifo.queue, r.fifo.resident = nil, nil
}

// TestSystemRunPathMatchesElementPath drives a memory system with a
// systolic run and requires exactly what the per-address reference makes of
// the same run, expanded: the DRAM traces cycle by cycle, every counter and
// the bandwidth profiles. This pins the claim that the run path changes
// cost, not behaviour, end to end through the memory model.
func TestSystemRunPathMatchesElementPath(t *testing.T) {
	l := topology.TinyNet().Layers[1]
	for _, df := range config.Dataflows {
		for _, region := range []bool{false, true} {
			cfg := config.New().WithArray(4, 4).WithDataflow(df).WithSRAM(1, 1, 1)
			cfg.WordBytes = 4 // 128 resident words: every operand thrashes
			rd, wr := &trace.Recorder{}, &trace.Recorder{}
			sys, err := NewSystem(cfg, Options{DRAMRead: rd, DRAMWrite: wr})
			if err != nil {
				t.Fatal(err)
			}
			if region {
				sys.SetRegions(cfg.IfmapOffset, l.IfmapWords(),
					cfg.FilterOffset, l.FilterWords(),
					cfg.OfmapOffset, l.OfmapWords())
			}
			if _, err := systolic.Run(l, cfg, systolic.Sinks{
				IfmapRead:  sys.Ifmap,
				FilterRead: sys.Filter,
				OfmapWrite: sys.Ofmap,
			}); err != nil {
				t.Fatal(err)
			}
			if sys.Ifmap.Evictions == 0 || sys.Filter.Evictions == 0 || sys.Ofmap.DRAMWrites == 0 {
				t.Fatalf("%s region=%v: an operand never evicts", df, region)
			}
			sys.Ofmap.Flush(0)

			var refRd, refWr []trace.Entry
			ifRef := newRefBuffer(sys.Ifmap.set.capacity, false, &refRd)
			flRef := newRefBuffer(sys.Filter.set.capacity, false, &refRd)
			ofRef := newRefBuffer(sys.Ofmap.set.capacity, true, &refWr)
			if _, err := systolic.Run(l, cfg, systolic.Sinks{
				IfmapRead: ifRef, FilterRead: flRef, OfmapWrite: ofRef,
			}); err != nil {
				t.Fatal(err)
			}
			ofRef.flush(0)

			if !reflect.DeepEqual(rd.Entries, refRd) {
				t.Errorf("%s region=%v: DRAM read trace differs from the reference", df, region)
			}
			if !reflect.DeepEqual(wr.Entries, refWr) {
				t.Errorf("%s region=%v: DRAM write trace differs from the reference", df, region)
			}
			got := [][3]int64{{sys.Ifmap.SRAMReads, sys.Ifmap.DRAMReads, sys.Ifmap.Evictions},
				{sys.Filter.SRAMReads, sys.Filter.DRAMReads, sys.Filter.Evictions},
				{sys.Ofmap.SRAMWrites, sys.Ofmap.DRAMWrites}}
			want := [][3]int64{{ifRef.sram, ifRef.dram, ifRef.fifo.evictions},
				{flRef.sram, flRef.dram, flRef.fifo.evictions},
				{ofRef.sram, ofRef.dram}}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s region=%v: counters %v, reference %v", df, region, got, want)
			}
			for i, m := range [][2]*trace.BandwidthMeter{{sys.IfmapBW, ifRef.meter},
				{sys.FilterBW, flRef.meter}, {sys.OfmapBW, ofRef.meter}} {
				if !reflect.DeepEqual(m[0].Profile(), m[1].Profile()) {
					t.Errorf("%s region=%v: bandwidth profile %d differs from the reference", df, region, i)
				}
			}
		}
	}
}

// TestStreakPathMatchesElementPath extends the equivalence above to runs
// that interleave hits and misses. The dense scan hands each streak of
// consecutive misses to the DRAM side as one run; the address sequence per
// cycle, the counters and the eviction count must equal the per-address
// reference's, which appends one address at a time.
func TestStreakPathMatchesElementPath(t *testing.T) {
	type batch struct {
		cycle int64
		runs  []trace.Run
	}
	scripted := []batch{
		// All misses: the only streak ends with the run.
		{1, []trace.Run{{Base: 100, Stride: 1, Count: 8}}},
		// Hits, then a run whose tail misses up to its boundary, then two
		// all-miss runs of which the second continues the first.
		{2, []trace.Run{{Base: 100, Stride: 1, Count: 4}, {Base: 104, Stride: 2, Count: 8},
			{Base: 200, Stride: 1, Count: 8}, {Base: 208, Stride: 1, Count: 8}}},
		// Every other word resident: one-word streaks that re-coalesce.
		{3, []trace.Run{{Base: 300, Stride: 2, Count: 16}}},
		{4, []trace.Run{{Base: 300, Stride: 1, Count: 32}}},
		// A streak in the middle, a repeated address, a descending run that
		// starts on a hit, and a miss that coalesces with the run before it.
		{5, []trace.Run{{Base: 96, Stride: 1, Count: 16}, {Base: 400, Stride: 0, Count: 5},
			{Base: 120, Stride: -3, Count: 10}, {Base: 90, Stride: 0, Count: 1}}},
	}
	// Then random batches over a footprint larger than the buffer, so
	// streaks also form across evictions.
	rng := rand.New(rand.NewSource(13))
	batches := scripted
	for c := int64(10); c < 600; c++ {
		b := batch{cycle: c}
		for i := rng.Intn(4); i >= 0; i-- {
			r := trace.Run{Count: 1 + rng.Int63n(40), Stride: []int64{1, 1, 3, 32, 0, -1, -7}[rng.Intn(7)]}
			r.Base = 1300 + rng.Int63n(600) // the whole run stays inside [0, 4096)
			b.runs = append(b.runs, r)
		}
		batches = append(batches, b)
	}

	rec := &trace.Recorder{}
	cfg := config.New()
	cfg.IfmapSRAMKB = 2 // 1024 resident words
	streak, err := NewSystem(cfg, Options{DRAMRead: rec})
	if err != nil {
		t.Fatal(err)
	}
	streak.SetRegions(0, 4096, 8192, 16, 16384, 16)
	var refTrace []trace.Entry
	ref := newRefBuffer(streak.Ifmap.set.capacity, false, &refTrace)
	for _, b := range batches {
		streak.Ifmap.ConsumeRuns(b.cycle, b.runs)
		ref.Consume(b.cycle, trace.ExpandRuns(b.runs, nil))
	}
	if !streak.Ifmap.set.dense {
		t.Fatal("buffer left the dense table")
	}
	if !reflect.DeepEqual(rec.Entries, refTrace) {
		t.Error("DRAM-side address sequence differs from the per-address reference")
	}
	if got, want := [2]int64{streak.Ifmap.SRAMReads, streak.Ifmap.DRAMReads}, [2]int64{ref.sram, ref.dram}; got != want {
		t.Errorf("SRAM and DRAM reads %v, reference %v", got, want)
	}
	if !reflect.DeepEqual(streak.IfmapBW.Profile(), ref.meter.Profile()) {
		t.Error("bandwidth profile differs from the reference")
	}
	if streak.Ifmap.Evictions != ref.fifo.evictions || streak.Ifmap.Evictions == 0 {
		t.Errorf("evictions %d, reference %d, want equal and nonzero", streak.Ifmap.Evictions, ref.fifo.evictions)
	}
}

// runCapture keeps the run lists it is handed, uncompressed by expansion.
type runCapture struct{ lists [][]trace.Run }

func (c *runCapture) Consume(int64, []int64) { panic("element path") }
func (c *runCapture) ConsumeRuns(_ int64, runs []trace.Run) {
	c.lists = append(c.lists, append([]trace.Run(nil), runs...))
}

// TestMissStreaksArriveAsRuns pins the shape the DRAM side is handed, which
// the expanded-sequence tests cannot see: a run that misses end to end
// arrives as that run, adjacent streaks coalesce, and a flush is one list.
func TestMissStreaksArriveAsRuns(t *testing.T) {
	rd := &runCapture{}
	b, err := NewReadBuffer("r", 2048, rd, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.SetRegion(0, 4096)
	b.ConsumeRuns(1, []trace.Run{{Base: 0, Stride: 768, Count: 4}})
	b.ConsumeRuns(2, []trace.Run{{Base: 0, Stride: 768, Count: 2}, {Base: 100, Stride: 1, Count: 8},
		{Base: 104, Stride: 1, Count: 8}, {Base: 112, Stride: 1, Count: 8}})
	want := [][]trace.Run{
		{{Base: 0, Stride: 768, Count: 4}},
		{{Base: 100, Stride: 1, Count: 20}},
	}
	if !reflect.DeepEqual(rd.lists, want) {
		t.Errorf("read misses arrived as %v, want %v", rd.lists, want)
	}

	wr := &runCapture{}
	w, err := NewWriteBuffer("w", 2048, wr, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.SetRegion(0, 4096)
	w.ConsumeRuns(1, []trace.Run{{Base: 10, Stride: 1, Count: 32}, {Base: 500, Stride: 2, Count: 3}})
	if n := w.Flush(2); n != 35 {
		t.Errorf("Flush = %d words, want 35", n)
	}
	if want := [][]trace.Run{{{Base: 10, Stride: 1, Count: 32}, {Base: 500, Stride: 2, Count: 3}}}; !reflect.DeepEqual(wr.lists, want) {
		t.Errorf("flush arrived as %v, want %v", wr.lists, want)
	}
}

// TestReadBufferRegionFallback: an access outside the declared region must
// not panic; the buffer migrates off the dense table, keeps serving the
// identical miss stream as an undeclared-region reference, and counts the
// migration.
func TestReadBufferRegionFallback(t *testing.T) {
	drive := func(b *ReadBuffer) {
		b.Consume(1, []int64{100, 101, 102, 101})
		b.ConsumeRuns(2, []trace.Run{{Base: 140, Stride: 5, Count: 4}}) // straddles the edge
		b.Consume(2, []int64{900, 901})                                 // outside [100, 150)
		b.ConsumeRuns(3, []trace.Run{{Base: 950, Stride: 5, Count: 3}, {Base: 102, Stride: 0, Count: 1}})
	}

	ref := &trace.Recorder{}
	plain, err := NewReadBuffer("ref", 32, ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	drive(plain)

	rec := &trace.Recorder{}
	declared, err := NewReadBuffer("declared", 32, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	declared.SetRegion(100, 50)
	drive(declared) // must not panic

	if !reflect.DeepEqual(rec.Entries, ref.Entries) {
		t.Errorf("fallback miss stream diverges:\ngot  %+v\nwant %+v", rec.Entries, ref.Entries)
	}
	if declared.SRAMReads != plain.SRAMReads || declared.DRAMReads != plain.DRAMReads {
		t.Errorf("counters diverge: got (%d, %d), want (%d, %d)",
			declared.SRAMReads, declared.DRAMReads, plain.SRAMReads, plain.DRAMReads)
	}
	if got := declared.RegionFallbacks(); got != 1 {
		t.Errorf("RegionFallbacks = %d, want 1 (one migration)", got)
	}
	if got := plain.RegionFallbacks(); got != 0 {
		t.Errorf("undeclared buffer RegionFallbacks = %d, want 0", got)
	}
}

// TestWriteBufferRegionFallback mirrors the read-path test on the write-back
// buffer, including the eviction drain order after migration.
func TestWriteBufferRegionFallback(t *testing.T) {
	drive := func(b *WriteBuffer) {
		b.Consume(1, []int64{10, 11, 12, 13})
		b.ConsumeRuns(2, []trace.Run{{Base: 18, Stride: 1, Count: 4}})  // straddles the edge
		b.ConsumeRuns(2, []trace.Run{{Base: 500, Stride: 1, Count: 4}}) // outside [10, 20)
		b.Consume(3, []int64{14, 15})                                   // evicts via ring
		b.Flush(4)
	}

	ref := &trace.Recorder{}
	plain, err := NewWriteBuffer("ref", 16, ref, nil) // 8 resident words
	if err != nil {
		t.Fatal(err)
	}
	drive(plain)

	rec := &trace.Recorder{}
	declared, err := NewWriteBuffer("declared", 16, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	declared.SetRegion(10, 10)
	drive(declared)

	if !reflect.DeepEqual(rec.Entries, ref.Entries) {
		t.Errorf("fallback drain stream diverges:\ngot  %+v\nwant %+v", rec.Entries, ref.Entries)
	}
	if declared.SRAMWrites != plain.SRAMWrites || declared.DRAMWrites != plain.DRAMWrites {
		t.Errorf("counters diverge: got (%d, %d), want (%d, %d)",
			declared.SRAMWrites, declared.DRAMWrites, plain.SRAMWrites, plain.DRAMWrites)
	}
	if got := declared.RegionFallbacks(); got != 1 {
		t.Errorf("RegionFallbacks = %d, want 1", got)
	}
}

// TestSystemRegionFallbackMetrics: the system aggregates per-buffer fallback
// counts and mirrors them into the wired obsv registry.
func TestSystemRegionFallbackMetrics(t *testing.T) {
	reg := &obsv.Registry{}
	cfg := config.New()
	sys, err := NewSystem(cfg, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Declare deliberately wrong (tiny) regions, then access beyond them.
	sys.SetRegions(0, 4, 1000, 4, 2000, 4)
	sys.Ifmap.Consume(1, []int64{0, 500})
	sys.Filter.ConsumeRuns(2, []trace.Run{{Base: 1500, Stride: 0, Count: 1}})
	sys.Ofmap.Consume(3, []int64{2000})

	if got := sys.RegionFallbacks(); got != 2 {
		t.Errorf("System.RegionFallbacks = %d, want 2 (ifmap + filter)", got)
	}
	if got := reg.Counter("memory.region_fallbacks").Value(); got != 2 {
		t.Errorf("registry counter = %d, want 2", got)
	}
	// No registry wired: still no panic, just the local counters.
	bare, err := NewSystem(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bare.SetRegions(0, 4, 1000, 4, 2000, 4)
	bare.Ifmap.Consume(1, []int64{999})
	if got := bare.RegionFallbacks(); got != 1 {
		t.Errorf("bare System.RegionFallbacks = %d, want 1", got)
	}
}

// TestRegionRedeclaredAboveDenseLimit: a region too large for the dense
// table, declared after a small one, replaces it. The small region's table
// must not stay live, so the first access to the new region is no fallback
// and misses as in a buffer that never declared the small region.
func TestRegionRedeclaredAboveDenseLimit(t *testing.T) {
	reg := &obsv.Registry{}
	sys, err := NewSystem(config.New(), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	sys.Ifmap.SetRegion(0, 100)
	sys.Ifmap.SetRegion(1000, denseLimitWords+1)
	sys.Ofmap.SetRegion(0, 100)
	sys.Ofmap.SetRegion(1000, denseLimitWords+1)
	sys.Ifmap.Consume(0, []int64{5000})
	sys.Ofmap.Consume(0, []int64{5000})
	if got := reg.Counter("memory.region_fallbacks").Value(); got != 0 {
		t.Errorf("memory.region_fallbacks = %d after accesses inside the declared region, want 0", got)
	}
	if sys.Ifmap.DRAMReads != 1 || sys.Ofmap.Pending() != 1 {
		t.Errorf("DRAMReads %d, pending writes %d; want 1 and 1", sys.Ifmap.DRAMReads, sys.Ofmap.Pending())
	}
}
