package memory

import (
	"math/rand"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/trace"
)

func mustReadBuffer(t *testing.T, capacity int64, dram trace.Consumer) *ReadBuffer {
	t.Helper()
	b, err := NewReadBuffer("test", capacity, dram, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestReadBufferColdAndHit(t *testing.T) {
	rec := &trace.Recorder{}
	b := mustReadBuffer(t, 16, rec)
	if b.name != "test" || b.set.capacity != 8 {
		t.Errorf("name/capacity = %q/%d", b.name, b.set.capacity)
	}
	b.Consume(0, []int64{1, 2, 3})
	b.Consume(1, []int64{1, 2, 3}) // all hits
	b.Consume(2, nil)              // ignored
	if b.SRAMReads != 6 {
		t.Errorf("SRAMReads = %d, want 6", b.SRAMReads)
	}
	if b.DRAMReads != 3 {
		t.Errorf("DRAMReads = %d, want 3", b.DRAMReads)
	}
	if b.Evictions != 0 {
		t.Errorf("Evictions = %d, want 0", b.Evictions)
	}
	if rec.Accesses() != 3 {
		t.Errorf("DRAM trace has %d accesses, want 3", rec.Accesses())
	}
}

func TestReadBufferFIFOEviction(t *testing.T) {
	b := mustReadBuffer(t, 4, nil)
	b.Consume(0, []int64{10, 11}) // resident {10,11}
	b.Consume(1, []int64{12})     // evicts 10 -> {11,12}
	b.Consume(2, []int64{11})     // hit
	b.Consume(3, []int64{10})     // miss again: reuse lost to eviction
	if b.DRAMReads != 4 {
		t.Errorf("DRAMReads = %d, want 4 (10 fetched twice)", b.DRAMReads)
	}
	if b.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2", b.Evictions)
	}
}

func TestReadBufferDoubleBufferedHalvesCapacity(t *testing.T) {
	b := mustReadBuffer(t, 8, nil)
	if b.set.capacity != 4 {
		t.Errorf("capacity = %d, want 4", b.set.capacity)
	}
	tiny := mustReadBuffer(t, 1, nil)
	if tiny.set.capacity != 1 {
		t.Errorf("tiny capacity = %d, want 1 (floor)", tiny.set.capacity)
	}
}

func TestReadBufferLargeEnoughNeverRefetches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := mustReadBuffer(t, 2000, nil)
	distinct := map[int64]bool{}
	for cycle := int64(0); cycle < 200; cycle++ {
		addrs := make([]int64, 1+rng.Intn(5))
		for i := range addrs {
			addrs[i] = int64(rng.Intn(500))
			distinct[addrs[i]] = true
		}
		b.Consume(cycle, addrs)
	}
	if b.DRAMReads != int64(len(distinct)) {
		t.Errorf("DRAMReads = %d, want distinct count %d", b.DRAMReads, len(distinct))
	}
	if b.Evictions != 0 {
		t.Errorf("Evictions = %d, want 0", b.Evictions)
	}
}

func TestReadBufferInvalidCapacity(t *testing.T) {
	if _, err := NewReadBuffer("x", 0, nil, nil); err == nil {
		t.Error("accepted zero capacity")
	}
	if _, err := NewWriteBuffer("x", -1, nil, nil); err == nil {
		t.Error("accepted negative capacity")
	}
}

func TestWriteBufferDrainOnEvictionAndFlush(t *testing.T) {
	rec := &trace.Recorder{}
	b, err := NewWriteBuffer("ofmap", 4, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Consume(0, []int64{100, 101}) // resident
	if b.DRAMWrites != 0 {
		t.Errorf("premature DRAM writes: %d", b.DRAMWrites)
	}
	b.Consume(1, []int64{100}) // in-place accumulate: no traffic
	if b.SRAMWrites != 3 {
		t.Errorf("SRAMWrites = %d, want 3", b.SRAMWrites)
	}
	b.Consume(2, []int64{102}) // evicts 100
	if b.DRAMWrites != 1 {
		t.Errorf("DRAMWrites = %d, want 1", b.DRAMWrites)
	}
	if got := rec.Addresses(); len(got) != 1 || got[0] != 100 {
		t.Errorf("drained %v, want [100]", got)
	}
	if b.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", b.Pending())
	}
	if n := b.Flush(10); n != 2 {
		t.Errorf("Flush = %d, want 2", n)
	}
	if b.Pending() != 0 {
		t.Errorf("Pending after flush = %d", b.Pending())
	}
	if b.DRAMWrites != 3 {
		t.Errorf("DRAMWrites = %d, want 3", b.DRAMWrites)
	}
	// FIFO order preserved on flush: 101 then 102.
	addrs := rec.Addresses()
	if addrs[1] != 101 || addrs[2] != 102 {
		t.Errorf("flush order = %v, want [100 101 102]", addrs)
	}
	if n := b.Flush(11); n != 0 {
		t.Errorf("second Flush = %d, want 0", n)
	}
}

// TestWriteBufferConservation: every distinct address written is eventually
// drained exactly as many times as it was (re-)inserted after eviction.
func TestWriteBufferConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rec := &trace.Recorder{}
	b, err := NewWriteBuffer("ofmap", 16, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := int64(0); cycle < 500; cycle++ {
		addrs := []int64{int64(rng.Intn(40))}
		b.Consume(cycle, addrs)
	}
	b.Flush(500)
	// Conservation: drained words = distinct insertions = SRAMWrites - in-place hits.
	if b.Pending() != 0 {
		t.Fatalf("Pending = %d after flush", b.Pending())
	}
	if got := rec.Accesses(); got != b.DRAMWrites {
		t.Errorf("trace %d != DRAMWrites %d", got, b.DRAMWrites)
	}
	if b.DRAMWrites > b.SRAMWrites {
		t.Errorf("DRAMWrites %d exceeds SRAMWrites %d", b.DRAMWrites, b.SRAMWrites)
	}
	if b.DRAMWrites < 40 {
		t.Errorf("DRAMWrites %d < distinct addresses 40", b.DRAMWrites)
	}
}

func TestSystemEndToEnd(t *testing.T) {
	cfg := config.New().WithSRAM(1, 1, 1) // 1 KiB each = 1024 words, 512 effective
	readRec, writeRec := &trace.Recorder{}, &trace.Recorder{}
	sys, err := NewSystem(cfg, Options{DRAMRead: readRec, DRAMWrite: writeRec})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Ifmap.set.capacity != 512 {
		t.Errorf("ifmap effective = %d, want 512", sys.Ifmap.set.capacity)
	}

	// Stream 2000 sequential ifmap reads: all cold misses (streaming).
	for c := int64(0); c < 2000; c++ {
		sys.Ifmap.Consume(c, []int64{c})
	}
	// Filter: 100 addresses read 20 times each, fits in SRAM: 100 misses.
	for rep := 0; rep < 20; rep++ {
		for a := int64(0); a < 100; a++ {
			sys.Filter.Consume(2000+int64(rep)*100+a, []int64{cfg.FilterOffset + a})
		}
	}
	// Ofmap: 600 outputs (> 512 effective): evictions plus final flush.
	for a := int64(0); a < 600; a++ {
		sys.Ofmap.Consume(4000+a, []int64{cfg.OfmapOffset + a})
	}
	sys.Ofmap.Flush(5000)

	rep := sys.Report(5000)
	if rep.IfmapDRAMReads != 2000 {
		t.Errorf("IfmapDRAMReads = %d, want 2000", rep.IfmapDRAMReads)
	}
	if rep.FilterDRAMReads != 100 {
		t.Errorf("FilterDRAMReads = %d, want 100", rep.FilterDRAMReads)
	}
	if rep.FilterSRAMReads != 2000 {
		t.Errorf("FilterSRAMReads = %d, want 2000", rep.FilterSRAMReads)
	}
	if rep.OfmapDRAMWrites != 600 {
		t.Errorf("OfmapDRAMWrites = %d, want 600", rep.OfmapDRAMWrites)
	}
	if rep.DRAMReads() != 2100 || rep.DRAMAccesses() != 2700 {
		t.Errorf("DRAM totals = %d/%d", rep.DRAMReads(), rep.DRAMAccesses())
	}
	wantRead := 2100.0 / 5000.0
	if got := rep.AvgReadBW; got != wantRead {
		t.Errorf("AvgReadBW = %v, want %v", got, wantRead)
	}
	if rep.AvgTotalBW() != rep.AvgReadBW+rep.AvgWriteBW {
		t.Error("AvgTotalBW mismatch")
	}
	// Streaming reads demand 1 word/cycle; the peak meter must see it.
	if sys.IfmapBW.PeakBytesPerCycle() < 1.0 {
		t.Errorf("peak ifmap BW = %v, want >= 1", sys.IfmapBW.PeakBytesPerCycle())
	}
	if readRec.Accesses() != 2100 || writeRec.Accesses() != 600 {
		t.Errorf("DRAM traces = %d/%d", readRec.Accesses(), writeRec.Accesses())
	}
}

func TestSystemValidatesConfig(t *testing.T) {
	bad := config.New().WithArray(0, 1)
	if _, err := NewSystem(bad, Options{}); err == nil {
		t.Error("NewSystem accepted invalid config")
	}
}

func TestReportZeroCycles(t *testing.T) {
	cfg := config.New()
	sys, err := NewSystem(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Report(0)
	if rep.AvgReadBW != 0 || rep.AvgWriteBW != 0 {
		t.Error("zero-cycle report has nonzero bandwidth")
	}
}

// TestFIFOSetDrainWrapAround exercises drain after the ring head has wrapped.
func TestFIFOSetDrainWrapAround(t *testing.T) {
	rec := &trace.Recorder{}
	b, err := NewWriteBuffer("w", 6, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for a := int64(0); a < 5; a++ { // inserts 0..4, evicts 0,1
		b.Consume(a, []int64{a})
	}
	b.Flush(10)
	addrs := rec.Addresses()
	want := []int64{0, 1, 2, 3, 4}
	if len(addrs) != len(want) {
		t.Fatalf("drained %v", addrs)
	}
	for i, a := range want {
		if addrs[i] != a {
			t.Fatalf("drained %v, want %v", addrs, want)
		}
	}
}
