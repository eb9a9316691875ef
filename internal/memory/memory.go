// Package memory models the accelerator's local memory system: three
// double-buffered operand SRAMs (IFMAP, filter, OFMAP) that service the
// stall-free SRAM traces produced by the systolic core and, in turn,
// generate the DRAM-interface traffic (Sec. II-C of the paper: "SCALE-SIM
// parses the SRAM traces ... and generates a series of prefetch requests to
// SRAM which we call the DRAM trace").
//
// Residency model: each buffer holds a working set of distinct word
// addresses in first-use (FIFO) order. A read of a non-resident address is a
// demand miss that must have been prefetched from DRAM by that cycle; the
// miss is charged to the DRAM read trace at the cycle of use, which is
// exactly the stall-free demand schedule. Reuse within the resident window
// is free; reuse after eviction is re-fetched, which is how the loss of
// on-chip reuse from partitioning shows up as extra DRAM bandwidth
// (Fig. 11). The OFMAP buffer is a write-back buffer: outputs drain to DRAM
// on eviction and at the final flush, so partial sums revisited while still
// resident cost no interface traffic.
//
// The SRAMs are double-buffered (the paper's configuration): half of each
// serves the array while the other half prefetches, so the effective
// resident capacity is half the nominal size.
package memory

import (
	"fmt"

	"scalesim/internal/obsv"
	"scalesim/internal/trace"
)

// denseLimitWords bounds the size of the direct-mapped presence table a
// fifoSet is willing to allocate (one byte per word in the region). Larger
// regions use the open-addressing probe set instead, whose footprint scales
// with the buffer capacity rather than the region.
const denseLimitWords = 1 << 22

// fifoSet is a fixed-capacity set of addresses with FIFO replacement.
//
// Residency is tracked in one of two structures — membership tests
// dominate the simulator's runtime, so the choice matters:
//
//   - a direct-mapped byte table when the producer declares a small address
//     region via setRegion (one array access per test);
//   - an open-addressing probe table otherwise (footprint proportional to
//     capacity, not region) — a large region, or none declared — built by
//     the first insertion, or by leaveDense when a declared region turns
//     out wrong.
type fifoSet struct {
	capacity int64
	ring     []int64
	head     int // next eviction slot when full

	dense bool
	base  int64
	marks []byte

	probe *probeSet

	// fallbacks counts dense-table aborts: accesses outside the declared
	// region migrate the set to the probe table instead of crashing the
	// run. onFallback, when set, is invoked once per migration (e.g. to
	// bump an obsv counter).
	fallbacks  int64
	onFallback func()
}

func newFIFOSet(capacity int64) *fifoSet { return &fifoSet{capacity: capacity} }

// setRegion switches to a region-aware residency structure for addresses in
// [base, base+words). Must be called before any insertion. Storage adopted
// beforehand (see System.Adopt) is reused when it is large enough: the ring
// arrives empty and the marks are cleared over the region here, so whatever
// the previous owner left in either is never read.
func (f *fifoSet) setRegion(base, words int64) {
	if words < 1 || len(f.ring) > 0 {
		return
	}
	// At most one slot per distinct address is ever occupied.
	if need := min(f.capacity, words, 1<<20); int64(cap(f.ring)) < need {
		f.ring = make([]int64, 0, need)
	}
	if words > denseLimitWords {
		return // the probe table, built by the first insertion
	}
	f.dense = true
	f.base = base
	if int64(cap(f.marks)) < words {
		f.marks = make([]byte, words)
	} else {
		f.marks = f.marks[:words]
		clear(f.marks)
	}
}

// leaveDense abandons the direct-mapped table after an access outside the
// declared region: the region declaration was wrong, so residency migrates
// to the probe table (the ring holds exactly the resident set) and the
// run degrades gracefully instead of crashing.
func (f *fifoSet) leaveDense() {
	f.dense = false
	f.marks = nil
	f.probe = newProbeSet(f.capacity)
	for _, a := range f.ring {
		f.probe.insert(a)
	}
	f.fallbacks++
	if f.onFallback != nil {
		f.onFallback()
	}
}

// contains reports residency.
func (f *fifoSet) contains(addr int64) bool {
	if f.dense {
		idx := addr - f.base
		if idx >= 0 && idx < int64(len(f.marks)) {
			return f.marks[idx] != 0
		}
		f.leaveDense()
	}
	return f.probe != nil && f.probe.contains(addr)
}

func (f *fifoSet) mark(addr int64, present bool) {
	if f.dense {
		idx := addr - f.base
		if idx < 0 || idx >= int64(len(f.marks)) {
			f.leaveDense()
		}
	}
	if f.dense {
		if present {
			f.marks[addr-f.base] = 1
		} else {
			f.marks[addr-f.base] = 0
		}
		return
	}
	if f.probe == nil {
		f.probe = newProbeSet(f.capacity) // no region declared
	}
	if present {
		f.probe.insert(addr)
	} else {
		f.probe.remove(addr)
	}
}

// denseBounds reports whether the whole progression lies inside the dense
// table's region, making the bulk scan below safe without per-address range
// checks.
func (f *fifoSet) denseBounds(r trace.Run) bool {
	lo, hi := r.Base, r.Last()
	if r.Stride < 0 {
		lo, hi = hi, lo
	}
	return lo >= f.base && hi < f.base+int64(len(f.marks))
}

// scanRunDense walks one in-region progression against the dense table,
// inserting every miss and, when record is set, re-compressing the missed
// addresses onto the misses run list (the read path's demand stream); with
// no DRAM consumer the misses are only counted. It is contains()+insert()
// unrolled across a run: membership is one byte load per address and the
// FIFO ring is manipulated directly, which keeps the memory model cheap on
// the hot path.
//
// Misses are emitted by streak — each maximal stretch of consecutive misses
// is one sub-progression of r, appended as a single run — so a run that
// misses end to end reaches the DRAM side as the run it arrived as. The
// streaks are disjoint, in order and cover exactly the missed words, so the
// list expands to the same address sequence as appending them one by one.
func (f *fifoSet) scanRunDense(r trace.Run, misses []trace.Run, record bool) (m []trace.Run, missWords, evictions int64) {
	marks, base := f.marks, f.base
	a, left := r.Base, r.Count
	for left > 0 {
		if marks[a-base] != 0 {
			a += r.Stride
			left--
			continue
		}
		// A streak of misses starts at a; it ends at the next hit or with
		// the run. The hit scan above pays nothing for it.
		first, before := a, left
		for {
			if int64(len(f.ring)) < f.capacity {
				f.ring = append(f.ring, a)
			} else {
				old := f.ring[f.head]
				marks[old-base] = 0 // dense ⇒ every resident address is in-region
				f.ring[f.head] = a
				f.head++
				if f.head == len(f.ring) {
					f.head = 0
				}
				evictions++
			}
			marks[a-base] = 1
			a += r.Stride
			left--
			if left == 0 || marks[a-base] != 0 {
				break
			}
		}
		if record {
			misses = trace.AppendRun(misses, first, r.Stride, before-left)
		}
		missWords += before - left
	}
	return misses, missWords, evictions
}

// scanRunDenseEvict is scanRunDense for the write-back path: misses are
// absorbed silently and the evicted addresses are re-compressed onto the
// drained run list instead (or only counted, as above).
func (f *fifoSet) scanRunDenseEvict(r trace.Run, drained []trace.Run, record bool) (d []trace.Run, drainWords int64) {
	marks, base := f.marks, f.base
	a := r.Base
	for i := int64(0); i < r.Count; i++ {
		if idx := a - base; marks[idx] == 0 {
			if int64(len(f.ring)) < f.capacity {
				f.ring = append(f.ring, a)
			} else {
				old := f.ring[f.head]
				marks[old-base] = 0
				f.ring[f.head] = a
				f.head++
				if f.head == len(f.ring) {
					f.head = 0
				}
				if record {
					drained = trace.AppendAddr(drained, old)
				}
				drainWords++
			}
			marks[idx] = 1
		}
		a += r.Stride
	}
	return drained, drainWords
}

// insert adds addr, evicting the oldest entry when full. It returns the
// evicted address and whether an eviction happened.
func (f *fifoSet) insert(addr int64) (evicted int64, didEvict bool) {
	if int64(len(f.ring)) < f.capacity {
		f.ring = append(f.ring, addr)
		f.mark(addr, true)
		return 0, false
	}
	old := f.ring[f.head]
	f.mark(old, false)
	f.ring[f.head] = addr
	f.mark(addr, true)
	f.head++
	if f.head == len(f.ring) {
		f.head = 0
	}
	return old, true
}

// drain empties the set and, when record is set, re-compresses the resident
// addresses onto dst in FIFO order: the ring from head to its end, then the
// wrapped part.
func (f *fifoSet) drain(dst []trace.Run, record bool) []trace.Run {
	if record {
		for _, seg := range [2][]int64{f.ring[f.head:], f.ring[:f.head]} {
			for _, a := range seg {
				dst = trace.AppendAddr(dst, a)
			}
		}
	}
	if f.dense {
		clear(f.marks) // dense ⇒ every resident address is in-region
	} else {
		for _, a := range f.ring {
			f.mark(a, false)
		}
	}
	f.ring = f.ring[:0]
	f.head = 0
	return dst
}

func (f *fifoSet) len() int { return len(f.ring) }

// blockMemo is the buffers' trace.BlockConsumer state: for each operand
// block, the value the buffer's eviction counter had when a complete stream
// of the block last ended without moving it.
//
// A FIFO buffer changes state only on a miss and loses an address only by
// eviction. A stream that caused no eviction therefore leaves every address
// it touched resident — hit or freshly inserted alike — and they all stay
// resident for as long as the counter keeps that value. A later stream of the
// same block under an equal counter is all hits: no state change, no DRAM
// event, no meter update; only the SRAM access count moves.
type blockMemo struct {
	proven map[blockKey]int64
	cur    blockKey
	start  int64 // counter at BeginBlock

	// blocks and words count what was skipped (nil-safe obsv counters).
	blocks, words *obsv.Counter
}

type blockKey struct{ off, n, words int64 }

// begin opens a block and reports whether it is proven resident under the
// current eviction counter.
func (m *blockMemo) begin(k blockKey, counter int64) bool {
	if at, ok := m.proven[k]; ok && at == counter {
		m.blocks.Inc()
		m.words.Add(k.words)
		return true
	}
	m.cur, m.start = k, counter
	return false
}

// end closes the open block, recording it when the counter did not move.
func (m *blockMemo) end(counter int64) {
	if counter != m.start {
		return
	}
	if m.proven == nil {
		m.proven = make(map[blockKey]int64)
	}
	m.proven[m.cur] = counter
}

// buffer is the scaffolding the two operand SRAMs share: the residency set
// and block memo, and the DRAM side their traffic is forwarded to. Each
// buffer type adds its own ConsumeRuns, its counters and its block counter.
type buffer struct {
	name string
	set  *fifoSet
	memo blockMemo

	dram trace.RunConsumer
	// record is set when a DRAM consumer was wired: the traffic is then
	// re-compressed into runs for it, otherwise only counted.
	record bool
	meter  *trace.BandwidthMeter
	runBuf []trace.Run
}

// newBuffer validates the nominal capacity and halves it for double
// buffering.
func newBuffer(name string, capacityWords int64, dram trace.Consumer, meter *trace.BandwidthMeter) (buffer, error) {
	if capacityWords < 1 {
		return buffer{}, fmt.Errorf("memory: %s: capacity %d words must be positive", name, capacityWords)
	}
	return buffer{name: name, set: newFIFOSet(max(capacityWords/2, 1)),
		dram: trace.Runs(dram), record: dram != nil, meter: meter}, nil
}

// Name returns the buffer's label.
func (b *buffer) Name() string { return b.name }

// SetRegion declares the address region this buffer will service, enabling
// the fast direct-mapped residency table. Call before the first access. A
// new declaration also opens a new block namespace: proven blocks are
// forgotten.
func (b *buffer) SetRegion(base, words int64) {
	b.set.setRegion(base, words)
	b.memo.proven = nil
}

// EffectiveWords returns the resident capacity in words.
func (b *buffer) EffectiveWords() int64 { return b.set.capacity }

// RegionFallbacks counts accesses outside the declared region that forced
// the residency structure off the dense fast path (zero on a healthy
// region declaration).
func (b *buffer) RegionFallbacks() int64 { return b.set.fallbacks }

// forward hands one cycle's DRAM traffic, runBuf with words in total, to
// the DRAM trace and the bandwidth meter.
func (b *buffer) forward(cycle, words int64) {
	b.dram.ConsumeRuns(cycle, b.runBuf)
	if b.meter != nil {
		b.meter.Add(cycle, words)
	}
}

// ReadBuffer is one operand SRAM on the read path (IFMAP or filter).
// It implements trace.Consumer over the SRAM read trace and forwards demand
// misses to the DRAM read trace.
type ReadBuffer struct {
	buffer

	// SRAMReads counts word reads served (hits + misses).
	SRAMReads int64
	// DRAMReads counts words fetched from DRAM (demand misses).
	DRAMReads int64
	// Evictions counts working-set replacements.
	Evictions int64
}

// NewReadBuffer creates a read-path SRAM.
//
// capacityWords is the nominal SRAM size in words; double buffering makes
// the effective resident capacity half of it. dram receives the DRAM read
// trace (may be nil) and meter, when non-nil, accumulates the DRAM demand
// bandwidth profile.
func NewReadBuffer(name string, capacityWords int64, dram trace.Consumer, meter *trace.BandwidthMeter) (*ReadBuffer, error) {
	b, err := newBuffer(name, capacityWords, dram, meter)
	if err != nil {
		return nil, err
	}
	return &ReadBuffer{buffer: b}, nil
}

// Consume implements trace.Consumer over SRAM read events.
func (b *ReadBuffer) Consume(cycle int64, addrs []int64) { trace.ConsumeAddrs(b, cycle, addrs) }

// ConsumeRuns implements trace.RunConsumer: residency is probed by walking
// each run's progression arithmetically — no address slice is ever built —
// and the demand misses are re-compressed into runs for the DRAM trace.
func (b *ReadBuffer) ConsumeRuns(cycle int64, runs []trace.Run) {
	words := trace.RunWords(runs)
	if words == 0 {
		return
	}
	b.SRAMReads += words
	misses := b.runBuf[:0]
	var missWords int64
	for _, r := range runs {
		if b.set.dense && b.set.denseBounds(r) {
			var mw, ev int64
			misses, mw, ev = b.set.scanRunDense(r, misses, b.record)
			missWords += mw
			b.Evictions += ev
			continue
		}
		a := r.Base
		for i := int64(0); i < r.Count; i++ {
			if !b.set.contains(a) {
				if _, evicted := b.set.insert(a); evicted {
					b.Evictions++
				}
				misses = trace.AppendAddr(misses, a)
				missWords++
			}
			a += r.Stride
		}
	}
	b.runBuf = misses
	if missWords > 0 {
		b.DRAMReads += missWords
		b.forward(cycle, missWords)
	}
}

// BeginBlock implements trace.BlockConsumer with Evictions as the counter.
func (b *ReadBuffer) BeginBlock(off, n, words int64) bool {
	if !b.memo.begin(blockKey{off, n, words}, b.Evictions) {
		return false
	}
	b.SRAMReads += words
	return true
}

// EndBlock implements trace.BlockConsumer.
func (b *ReadBuffer) EndBlock() { b.memo.end(b.Evictions) }

// HitRate returns the fraction of SRAM reads served without DRAM traffic.
func (b *ReadBuffer) HitRate() float64 {
	if b.SRAMReads == 0 {
		return 0
	}
	return 1 - float64(b.DRAMReads)/float64(b.SRAMReads)
}

// WriteBuffer is the OFMAP SRAM: a write-back buffer that drains to DRAM on
// eviction and at the final Flush.
type WriteBuffer struct {
	buffer

	// SRAMWrites counts word writes accepted from the array.
	SRAMWrites int64
	// DRAMWrites counts words drained to DRAM.
	DRAMWrites int64
}

// NewWriteBuffer creates the write-path SRAM; parameters mirror
// NewReadBuffer, with dram receiving the DRAM write trace.
func NewWriteBuffer(name string, capacityWords int64, dram trace.Consumer, meter *trace.BandwidthMeter) (*WriteBuffer, error) {
	b, err := newBuffer(name, capacityWords, dram, meter)
	if err != nil {
		return nil, err
	}
	return &WriteBuffer{buffer: b}, nil
}

// Consume implements trace.Consumer over SRAM write events.
func (b *WriteBuffer) Consume(cycle int64, addrs []int64) { trace.ConsumeAddrs(b, cycle, addrs) }

// ConsumeRuns implements trace.RunConsumer; like ReadBuffer.ConsumeRuns it
// walks the progressions arithmetically and forwards evicted outputs to
// the DRAM write trace as re-compressed runs.
func (b *WriteBuffer) ConsumeRuns(cycle int64, runs []trace.Run) {
	words := trace.RunWords(runs)
	if words == 0 {
		return
	}
	b.SRAMWrites += words
	drained := b.runBuf[:0]
	var drainWords int64
	for _, r := range runs {
		if b.set.dense && b.set.denseBounds(r) {
			var dw int64
			drained, dw = b.set.scanRunDenseEvict(r, drained, b.record)
			drainWords += dw
			continue
		}
		a := r.Base
		for i := int64(0); i < r.Count; i++ {
			if !b.set.contains(a) {
				if old, evicted := b.set.insert(a); evicted {
					drained = trace.AppendAddr(drained, old)
					drainWords++
				}
			}
			a += r.Stride
		}
	}
	b.runBuf = drained
	if drainWords > 0 {
		b.DRAMWrites += drainWords
		b.forward(cycle, drainWords)
	}
}

// BeginBlock implements trace.BlockConsumer. Every eviction drains one word
// and Flush drains the rest, so DRAMWrites serves as the eviction counter.
func (b *WriteBuffer) BeginBlock(off, n, words int64) bool {
	if !b.memo.begin(blockKey{off, n, words}, b.DRAMWrites) {
		return false
	}
	b.SRAMWrites += words
	return true
}

// EndBlock implements trace.BlockConsumer.
func (b *WriteBuffer) EndBlock() { b.memo.end(b.DRAMWrites) }

// Flush drains every resident output to DRAM at the given cycle (the end of
// the layer), as runs like every other write-back. It returns the number of
// words written back.
func (b *WriteBuffer) Flush(cycle int64) int64 {
	words := b.Pending()
	if words == 0 {
		return 0
	}
	b.runBuf = b.set.drain(b.runBuf[:0], b.record)
	b.DRAMWrites += words
	b.forward(cycle, words)
	return words
}

// Pending returns the resident word count awaiting write-back.
func (b *WriteBuffer) Pending() int64 { return int64(b.set.len()) }
