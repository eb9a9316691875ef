package memory

import (
	"scalesim/internal/config"
	"scalesim/internal/obsv"
	"scalesim/internal/trace"
)

// DefaultBandwidthWindow is the cycle granularity for peak-bandwidth
// profiling.
const DefaultBandwidthWindow = 64

// Options wires a memory System's consumers; the system itself is what
// config.Config specifies, double-buffered (the paper's configuration: half
// of each SRAM is resident) and profiled at DefaultBandwidthWindow.
type Options struct {
	// DRAMRead and DRAMWrite optionally receive the DRAM traces (e.g. CSV
	// writers or a DRAM timing model).
	DRAMRead, DRAMWrite trace.Consumer
	// DRAMIfmapTap, DRAMFilterTap and DRAMOfmapTap optionally receive the
	// per-operand slice of the DRAM traffic in addition to the merged
	// DRAMRead/DRAMWrite consumers (e.g. per-operand timeline counters).
	// Nil taps leave the merged consumers untouched and cost nothing.
	DRAMIfmapTap, DRAMFilterTap, DRAMOfmapTap trace.Consumer
	// Metrics, when non-nil, receives the system's health counters:
	// "memory.region_fallbacks" (accesses outside a declared region that
	// demoted a buffer off its dense residency table) and
	// "memory.blocks_skipped" / "memory.words_skipped" (operand blocks, and
	// the SRAM words in them, proven resident rather than scanned, by the
	// eviction counter or by recency) and
	// "memory.blocks_thrashed" / "memory.words_thrashed" (proven to miss on
	// every word because the last stream's words are evicted) and
	// "memory.blocks_first_touch" / "memory.words_first_touch" (proven to
	// miss on every word because none was ever inserted), both replayed
	// rather than scanned: queued behind the ring, which is written only
	// when a later scan reads it — or, in a dense region that fits its
	// buffer (where only first touch fires, since nothing is evicted),
	// inserted at once; and "memory.sweeps" / "memory.sweep_calls"
	// (sweeps of such a block replayed whole, and the calls they stand for);
	// and "memory.blocks_fresh_write" / "memory.words_fresh_write" (OFMAP
	// tiles, and the words in them, proven never written before, so queued
	// and drained by arithmetic rather than scanned).
	Metrics *obsv.Registry
}

// System is the accelerator's local memory: the three operand SRAMs plus
// their DRAM-interface bandwidth meters.
type System struct {
	// Ifmap and Filter are the read-path SRAMs; Ofmap the write-back SRAM.
	Ifmap, Filter *ReadBuffer
	Ofmap         *WriteBuffer
	// IfmapBW, FilterBW and OfmapBW profile DRAM traffic per operand.
	IfmapBW, FilterBW, OfmapBW *trace.BandwidthMeter

	wordBytes int64
}

// NewSystem builds the memory system described by cfg.
func NewSystem(cfg config.Config, opt Options) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	wb := int64(cfg.WordBytes)
	s := &System{
		IfmapBW:   trace.NewBandwidthMeter(DefaultBandwidthWindow, wb),
		FilterBW:  trace.NewBandwidthMeter(DefaultBandwidthWindow, wb),
		OfmapBW:   trace.NewBandwidthMeter(DefaultBandwidthWindow, wb),
		wordBytes: wb,
	}
	var err error
	s.Ifmap, err = NewReadBuffer("ifmap", cfg.IfmapSRAMWords(),
		trace.Tee(opt.DRAMRead, opt.DRAMIfmapTap), s.IfmapBW)
	if err != nil {
		return nil, err
	}
	s.Filter, err = NewReadBuffer("filter", cfg.FilterSRAMWords(),
		trace.Tee(opt.DRAMRead, opt.DRAMFilterTap), s.FilterBW)
	if err != nil {
		return nil, err
	}
	s.Ofmap, err = NewWriteBuffer("ofmap", cfg.OfmapSRAMWords(),
		trace.Tee(opt.DRAMWrite, opt.DRAMOfmapTap), s.OfmapBW)
	if err != nil {
		return nil, err
	}
	if fb := opt.Metrics.Counter("memory.region_fallbacks"); fb != nil {
		for _, f := range s.sets() {
			f.onFallback = fb.Inc
		}
	}
	skipped := blockCounters{opt.Metrics.Counter("memory.blocks_skipped"), opt.Metrics.Counter("memory.words_skipped")}
	thrashed := blockCounters{opt.Metrics.Counter("memory.blocks_thrashed"), opt.Metrics.Counter("memory.words_thrashed")}
	firstTouch := blockCounters{opt.Metrics.Counter("memory.blocks_first_touch"), opt.Metrics.Counter("memory.words_first_touch")}
	for _, m := range s.memos() {
		m.skipped, m.recent, m.thrashed, m.firstTouch = skipped, skipped, thrashed, firstTouch
	}
	s.Ofmap.memo.freshWrite = blockCounters{opt.Metrics.Counter("memory.blocks_fresh_write"),
		opt.Metrics.Counter("memory.words_fresh_write")}
	sweeps := blockCounters{opt.Metrics.Counter("memory.sweeps"), opt.Metrics.Counter("memory.sweep_calls")}
	s.Ifmap.sweeps, s.Filter.sweeps = sweeps, sweeps
	return s, nil
}

// SetRegions declares the three operand address regions (base and extent in
// words), enabling the buffers' fast direct-mapped residency tables. Call
// before the first access; callers that know the layer use the layer's
// element counts as extents.
func (s *System) SetRegions(ifBase, ifWords, flBase, flWords, ofBase, ofWords int64) {
	s.Ifmap.SetRegion(ifBase, ifWords)
	s.Filter.SetRegion(flBase, flWords)
	s.Ofmap.SetRegion(ofBase, ofWords)
}

// Reservation is what a run's new residency tables are sized for, per
// operand role: the largest region, which sizes the ring, and the largest
// region a direct-mapped table covers (at most denseLimitWords), which
// sizes the marks. A run whose largest region takes the probe table still
// reserves marks for its dense regions, so no dense layer regrows them.
type Reservation struct{ ring, marks [3]int64 }

// Add widens r to cover one layer's regions (words, in SetRegions' order).
func (r *Reservation) Add(words [3]int64) {
	for k, w := range words {
		r.ring[k] = max(r.ring[k], w)
		if w <= denseLimitWords {
			r.marks[k] = max(r.marks[k], w)
		}
	}
}

// Reserve sizes a System that adopted no Tables for r: the buffers
// allocate their rings and direct-mapped tables once, and the later
// SetRegions of every layer r covers that Adopts them allocate nothing.
// Call before SetRegions. Results do not depend on the reservation.
func (s *System) Reserve(r Reservation) {
	for i, f := range s.sets() {
		f.reserve(r.ring[i], r.marks[i])
	}
}

// Tables is the residency storage of one System — each buffer's FIFO ring,
// replay queue, direct-mapped marks table and block memo — detached so that a caller
// simulating many layers can hand one layer's storage to the next instead
// of allocating (and zeroing) megabytes per layer. Only capacity travels,
// with the range of marks each table may have set: a System reads nothing
// a previous owner wrote, so results cannot depend on which Tables it
// adopted, or on whether it adopted any.
type Tables struct {
	sets [3]struct {
		ring  []int64
		marks []byte
		dirty span
		queue replayQueue
		memo  blockTables
	}
	// released is set by Release. Tables it did not make may have any
	// mark set: they are dirty everywhere.
	released bool
}

func (s *System) sets() [3]*fifoSet {
	return [3]*fifoSet{s.Ifmap.set, s.Filter.set, s.Ofmap.set}
}

func (s *System) memos() [3]*blockMemo {
	return [3]*blockMemo{&s.Ifmap.memo, &s.Filter.memo, &s.Ofmap.memo}
}

// Adopt hands t's storage to the buffers, each operand role keeping its
// own (roles differ in size, so tables stop growing sooner). Call before
// SetRegions; tables too small for the declared regions are reallocated
// there. t must not be used again.
func (s *System) Adopt(t *Tables) {
	for i, f := range s.sets() {
		f.ring, f.marks, f.queue, f.dirty = t.sets[i].ring[:0], t.sets[i].marks[:0], t.sets[i].queue, t.sets[i].dirty
		if !t.released {
			f.dirty = span{0, int32(min(cap(f.marks), denseLimitWords))}
		}
		f.queue.clear()
	}
	for i, m := range s.memos() {
		m.blockTables = t.sets[i].memo.cleared()
	}
}

// Release detaches the buffers' storage for a later Adopt. Call after
// Report, as the last use of the System: its buffers are left without
// residency state.
func (s *System) Release() *Tables {
	t := &Tables{released: true}
	for i, f := range s.sets() {
		t.sets[i].ring, t.sets[i].marks, t.sets[i].dirty, t.sets[i].queue = f.ring, f.marks, f.dirty, f.queue
		f.ring, f.marks, f.dirty, f.queue, f.dense, f.head, f.stale = nil, nil, span{}, replayQueue{}, false, 0, false
	}
	for i, m := range s.memos() {
		t.sets[i].memo, m.blockTables = m.blockTables, blockTables{}
	}
	return t
}

// RegionFallbacks returns the total accesses outside the declared regions
// across the three buffers — nonzero means a region declaration was wrong
// and the affected buffers degraded to their slower residency structures.
func (s *System) RegionFallbacks() int64 {
	return s.Ifmap.RegionFallbacks() + s.Filter.RegionFallbacks() + s.Ofmap.RegionFallbacks()
}

// Report summarizes the traffic observed so far. totalCycles is the layer's
// runtime, used to normalize average bandwidths; Flush the OFMAP buffer
// before reporting.
func (s *System) Report(totalCycles int64) Report {
	r := Report{
		IfmapSRAMReads:  s.Ifmap.SRAMReads,
		FilterSRAMReads: s.Filter.SRAMReads,
		OfmapSRAMWrites: s.Ofmap.SRAMWrites,
		IfmapDRAMReads:  s.Ifmap.DRAMReads,
		FilterDRAMReads: s.Filter.DRAMReads,
		OfmapDRAMWrites: s.Ofmap.DRAMWrites,
		Cycles:          totalCycles,
		WordBytes:       s.wordBytes,

		PeakIfmapBW:  s.IfmapBW.PeakBytesPerCycle(),
		PeakFilterBW: s.FilterBW.PeakBytesPerCycle(),
		PeakOfmapBW:  s.OfmapBW.PeakBytesPerCycle(),
	}
	if totalCycles > 0 {
		c := float64(totalCycles)
		r.AvgReadBW = float64((r.IfmapDRAMReads+r.FilterDRAMReads)*s.wordBytes) / c
		r.AvgWriteBW = float64(r.OfmapDRAMWrites*s.wordBytes) / c
	}
	return r
}

// Report is the memory side of a layer's simulation summary.
type Report struct {
	// SRAM access totals (words).
	IfmapSRAMReads, FilterSRAMReads, OfmapSRAMWrites int64
	// DRAM interface totals (words).
	IfmapDRAMReads, FilterDRAMReads, OfmapDRAMWrites int64
	// Cycles is the runtime used for bandwidth normalization.
	Cycles int64
	// WordBytes is the element size.
	WordBytes int64
	// AvgReadBW and AvgWriteBW are bytes per cycle over the whole runtime.
	AvgReadBW, AvgWriteBW float64
	// PeakIfmapBW, PeakFilterBW and PeakOfmapBW are the highest windowed
	// demands in bytes per cycle.
	PeakIfmapBW, PeakFilterBW, PeakOfmapBW float64
}

// DRAMReads returns the total words read from DRAM.
func (r Report) DRAMReads() int64 { return r.IfmapDRAMReads + r.FilterDRAMReads }

// DRAMAccesses returns the total words moved over the interface.
func (r Report) DRAMAccesses() int64 { return r.DRAMReads() + r.OfmapDRAMWrites }

// AvgTotalBW returns the combined average interface bandwidth in bytes per
// cycle.
func (r Report) AvgTotalBW() float64 { return r.AvgReadBW + r.AvgWriteBW }
