// Package tracetools analyzes the simulator's access traces beyond the
// built-in aggregate reports. Its centerpiece is a single-pass LRU stack
// distance profiler (Mattson et al., 1970): from one walk over an SRAM
// trace it produces the miss count of *every possible* buffer capacity at
// once — the miss-ratio curve — so SRAM provisioning questions ("how much
// buffer until CB2a_3 stops thrashing?") can be answered without
// re-simulating per size.
package tracetools

import (
	"sort"

	"scalesim/internal/trace"
)

// ReuseProfiler computes LRU stack distances of a word-granular access
// stream. It implements trace.Consumer and trace.RunConsumer so it can tap a
// live simulation, or be fed a scanned trace.
type ReuseProfiler struct {
	// slot[addr] is the compressed time index of the address's last access.
	slot map[int64]int32
	// bit is a Fenwick tree marking live last-access slots.
	bit []int32
	// clock is the next free slot (1-based inside bit).
	clock int32
	// live is the number of distinct addresses seen.
	live int32

	// hist[d] counts accesses at stack distance d (1-based: d=1 is an
	// immediate re-reference).
	hist map[int64]int64
	// cold counts first-touch accesses (infinite distance).
	cold int64
	// total counts all accesses.
	total int64
}

// NewReuseProfiler returns an empty profiler.
func NewReuseProfiler() *ReuseProfiler {
	return &ReuseProfiler{
		slot: make(map[int64]int32),
		bit:  make([]int32, 1024),
		hist: make(map[int64]int64),
	}
}

// Consume implements trace.Consumer.
func (p *ReuseProfiler) Consume(cycle int64, addrs []int64) { trace.ConsumeAddrs(p, cycle, addrs) }

// ConsumeRuns implements trace.RunConsumer, touching every address in
// order; the cycle is irrelevant to stack distances.
func (p *ReuseProfiler) ConsumeRuns(_ int64, runs []trace.Run) {
	for _, r := range runs {
		a := r.Base
		for i := int64(0); i < r.Count; i++ {
			p.Touch(a)
			a += r.Stride
		}
	}
}

// Touch records one access.
func (p *ReuseProfiler) Touch(addr int64) {
	p.total++
	if old, seen := p.slot[addr]; seen {
		// Stack distance: distinct addresses accessed strictly after the
		// previous access to addr, plus addr itself.
		after := p.suffixCount(old)
		p.hist[int64(after)+1]++
		p.clear(old)
	} else {
		p.cold++
		p.live++
	}
	p.ensure(p.clock + 1)
	p.clock++
	p.set(p.clock)
	p.slot[addr] = p.clock
	// When the slot space fills, reclaim it by renumbering live slots —
	// but only when that actually shrinks the space (live << clock);
	// otherwise just grow the tree.
	if int(p.clock) >= len(p.bit)-1 {
		if int64(p.live)*2 <= int64(p.clock) {
			p.compact()
		} else {
			p.ensure(p.clock * 2)
		}
	}
}

// --- Fenwick tree over slots (1-based) ------------------------------------

func (p *ReuseProfiler) ensure(n int32) {
	for int(n) >= len(p.bit) {
		p.bit = append(p.bit, make([]int32, len(p.bit))...)
	}
}

func (p *ReuseProfiler) set(i int32) {
	for ; int(i) < len(p.bit); i += i & -i {
		p.bit[i]++
	}
}

func (p *ReuseProfiler) clear(i int32) {
	for ; int(i) < len(p.bit); i += i & -i {
		p.bit[i]--
	}
}

// prefix returns the number of live slots in [1, i].
func (p *ReuseProfiler) prefix(i int32) int32 {
	var s int32
	for ; i > 0; i -= i & -i {
		s += p.bit[i]
	}
	return s
}

// suffixCount returns the number of live slots strictly after i.
func (p *ReuseProfiler) suffixCount(i int32) int32 {
	return p.live - p.prefix(i)
}

// compact renumbers live slots contiguously, bounding the tree by the
// number of distinct addresses rather than total accesses.
func (p *ReuseProfiler) compact() {
	type entry struct {
		addr int64
		slot int32
	}
	entries := make([]entry, 0, len(p.slot))
	for a, s := range p.slot {
		entries = append(entries, entry{a, s})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].slot < entries[j].slot })
	// Allocate headroom so the next compaction is not immediate.
	p.bit = make([]int32, nextPow2(2*int32(len(entries))+2))
	p.clock = 0
	for _, e := range entries {
		p.clock++
		p.slot[e.addr] = p.clock
		p.set(p.clock)
	}
}

func nextPow2(n int32) int32 {
	p := int32(1024)
	for p <= n {
		p *= 2
	}
	return p
}

// --- Results ----------------------------------------------------------------

// Total returns the access count.
func (p *ReuseProfiler) Total() int64 { return p.total }

// Distinct returns the number of distinct addresses (= cold misses).
func (p *ReuseProfiler) Distinct() int64 { return p.cold }

// MissesAt returns the miss count of an LRU buffer holding `words`
// addresses: cold misses plus every access whose stack distance exceeds
// the capacity.
func (p *ReuseProfiler) MissesAt(words int64) int64 {
	misses := p.cold
	for d, c := range p.hist {
		if d > words {
			misses += c
		}
	}
	return misses
}

// MRCPoint is one point of a miss-ratio curve.
type MRCPoint struct {
	// CapacityWords is the LRU buffer size.
	CapacityWords int64
	// Misses is the absolute miss count.
	Misses int64
	// Ratio is Misses / Total.
	Ratio float64
}

// MissRatioCurve evaluates the curve at the given capacities (sorted copies
// of the input order are not required).
func (p *ReuseProfiler) MissRatioCurve(capacities []int64) []MRCPoint {
	out := make([]MRCPoint, 0, len(capacities))
	for _, c := range capacities {
		m := p.MissesAt(c)
		pt := MRCPoint{CapacityWords: c, Misses: m}
		if p.total > 0 {
			pt.Ratio = float64(m) / float64(p.total)
		}
		out = append(out, pt)
	}
	return out
}
