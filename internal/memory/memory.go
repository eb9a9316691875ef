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
	"cmp"
	"fmt"
	"slices"

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
//     useProbe before the first run the dense table does not cover, or by
//     leaveDense when a declared region turns out wrong.
type fifoSet struct {
	capacity int64
	ring     []int64
	head     int // next eviction slot when full

	dense bool
	base  int64
	marks []byte
	// zeroed is set while marks is as make left it — reserved and not yet
	// dense — so the next setRegion need not clear it.
	zeroed bool

	probe *probeSet
	// stale is set while words that overwrite inserted are unmarked: they
	// wait in queue, behind the ring, and reindex writes them into the ring
	// and rebuilds the index before it is next read.
	stale bool
	queue replayQueue

	// fallbacks counts dense-table aborts: accesses outside the declared
	// region migrate the set to the probe table instead of crashing the
	// run. onFallback, when set, is invoked once per migration (e.g. to
	// bump an obsv counter).
	fallbacks  int64
	onFallback func()
}

func newFIFOSet(capacity int64) *fifoSet { return &fifoSet{capacity: capacity} }

// ringSlots is how many ring slots a region of words can occupy: at most
// one per distinct address, and no more than the buffer holds.
func (f *fifoSet) ringSlots(words int64) int64 { return min(f.capacity, words, 1<<20) }

// reserve allocates a fresh set's storage for regions of up to words, so
// that declaring any of them later allocates nothing: the ring at the slots
// such a region can occupy, and the marks table when the region is dense.
// Call once, before setRegion, on a set that adopted nothing.
func (f *fifoSet) reserve(words int64) {
	if words < 1 {
		return
	}
	f.ring = make([]int64, 0, f.ringSlots(words))
	if words <= denseLimitWords {
		f.marks, f.zeroed = make([]byte, words), true
	}
}

// setRegion switches to a region-aware residency structure for addresses in
// [base, base+words). Must be called before any insertion. Storage adopted
// beforehand (see System.Adopt) is reused when it is large enough: the ring
// arrives empty and the marks are cleared over the region here, so whatever
// the previous owner left in either is never read. Marks fresh from make
// (reserve) are left as they are: clearing them would only fault in pages
// the region never touches.
func (f *fifoSet) setRegion(base, words int64) {
	if words < 1 || f.len() > 0 {
		return
	}
	if need := f.ringSlots(words); int64(cap(f.ring)) < need {
		f.ring = make([]int64, 0, need)
	}
	if words > denseLimitWords {
		f.dense = false // the probe table, built by useProbe
		return
	}
	f.dense = true
	f.base = base
	if int64(cap(f.marks)) < words {
		f.marks = make([]byte, words)
	} else if f.marks = f.marks[:words]; !f.zeroed {
		clear(f.marks)
	}
	f.zeroed = false
}

// leaveDense abandons the direct-mapped table before a run that leaves the
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

// useProbe readies the probe table for a run the dense table does not
// cover, and returns it: a dense set leaves its table (one fallback), and a
// set with no region declared builds the table on first use.
func (f *fifoSet) useProbe() *probeSet {
	if f.dense {
		f.leaveDense()
	} else if f.probe == nil {
		f.probe = newProbeSet(f.capacity)
	}
	return f.probe
}

// bounds returns the lowest and highest address of a run.
func bounds(r trace.Run) (lo, hi int64) {
	lo, hi = r.Base, r.Last()
	if r.Stride < 0 {
		lo, hi = hi, lo
	}
	return lo, hi
}

// denseCovers reports whether the addresses lo..hi (a run's bounds) lie
// inside the dense table's region, making the bulk scan below safe without
// per-address range checks.
func (f *fifoSet) denseCovers(lo, hi int64) bool {
	return f.dense && lo >= f.base && hi < f.base+int64(len(f.marks))
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

// overwrite inserts the calls of a sweep, words > 0 in each, known to miss —
// none resident, none repeated — behind the ring's words. It queues the
// sweep rather than writing it, and leaves the residency index stale: the
// caller has proven the whole block misses, so nothing reads the ring or the
// index until reindex writes the queue out and rebuilds the index. It
// returns the evictions, max(0, len+times·words-capacity). With trim the
// queue drops the words they displace; without, the caller pops them (see
// replayQueue.pop).
func (f *fifoSet) overwrite(s trace.Sweep, words int64, trim bool) (evictions int64) {
	f.stale = true
	evictions = max(0, int64(f.len())+s.Times*words-f.capacity)
	f.queue.push(s, words)
	if trim {
		f.queue.trim(f.capacity)
	}
	return evictions
}

// write inserts a run into the ring: free slots first, then each over the
// oldest slot. Only the run's last capacity words can survive it.
func (f *fifoSet) write(r trace.Run) {
	a, left := r.Base, r.Count
	if free := f.capacity - int64(len(f.ring)); free > 0 {
		k, n := int(min(free, left)), len(f.ring)
		f.ring = slices.Grow(f.ring, k)[:n+k]
		a = fill(f.ring[n:], a, r.Stride)
		left -= int64(k)
	}
	n := int64(len(f.ring))
	if left > n {
		a += (left - n) * r.Stride
		f.head = int((int64(f.head) + left - n) % n)
		left = n
	}
	for left > 0 {
		seg := f.ring[f.head:min(int64(f.head)+left, n)]
		a = fill(seg, a, r.Stride)
		left -= int64(len(seg))
		if f.head += len(seg); f.head == len(f.ring) {
			f.head = 0
		}
	}
}

// fill writes the progression a, a+stride, ... into s and returns the
// address after it.
func fill(s []int64, a, stride int64) int64 {
	for i := range s {
		s[i] = a
		a += stride
	}
	return a
}

// flushQueue writes the queued batches into the ring, oldest first. When
// the queued words alone fill the set, everything in the ring is displaced
// and it restarts empty.
func (f *fifoSet) flushQueue() {
	q := &f.queue
	if q.words >= f.capacity {
		f.ring, f.head = f.ring[:0], 0
	}
	skip := q.cursor // the head copy's words popped already
	for _, b := range q.batches[q.head:] {
		for j := b.first; j < b.times; j++ {
			for _, r := range q.runs[b.off : b.off+b.n] {
				r.Base += j * b.step
				if skip >= r.Count {
					skip -= r.Count
					continue
				}
				r.Base += skip * r.Stride
				r.Count -= skip
				skip = 0
				f.write(r)
			}
		}
	}
	q.clear()
}

// reindex writes the queue into the ring and rebuilds the stale residency
// index from it, since the ring then holds exactly the resident set: one
// clear, then one mark per slot. Every ring address of a dense set is
// in-region — overwrite replays a stream the dense table already accepted,
// or a first touch whose declared hull it covers (see ReadBuffer.BeginBlock).
// A probe table that no insertion has built yet (overwrite was the first
// traffic) is built here.
func (f *fifoSet) reindex() {
	f.stale = false
	f.flushQueue()
	if f.dense {
		clear(f.marks)
		for _, a := range f.ring {
			f.marks[a-f.base] = 1
		}
		return
	}
	p := f.useProbe()
	clear(p.slots)
	for _, a := range f.ring {
		p.insert(a)
	}
}

// replayQueue holds the sweeps overwrite inserted since the ring was last
// written, oldest first, with the runs they carry. A sweep is one entry
// however many calls it stands for, consecutive calls that repeat one
// another shifted share one entry too, and words no later reindex can see
// are dropped as they are displaced (trim) or handed on (pop), so the queue
// costs O(sweeps) to fill and never holds much more than the set's capacity
// in words.
type replayQueue struct {
	// batches[head:] are the live entries; runs holds their runs, and the
	// dead entries' below the first live one's until compaction.
	batches []batch
	head    int
	runs    []trace.Run
	// cursor counts the words of the head entry's first live copy that pop
	// has handed on already.
	cursor int64
	// words counts the live words: every live copy of every entry, less
	// the cursor.
	words int64
}

// batch is one queue entry: copy j, for first <= j < times, is the runs
// runs[off:off+n] with every base moved by j·step, words words in all.
type batch struct {
	off, n       int
	words, step  int64
	first, times int64
}

// push appends a sweep, words in each call, to the queue, joining the last
// entry when the sweep continues it (see extend).
func (q *replayQueue) push(s trace.Sweep, words int64) {
	if q.head == len(q.batches) || !q.extend(&q.batches[len(q.batches)-1], s) {
		q.batches = append(q.batches, batch{off: len(q.runs), n: len(s.Runs), words: words, step: s.Step, times: s.Times})
		q.runs = append(q.runs, s.Runs...)
	}
	q.words += s.Times * words
}

// trim drops every leading copy that the words queued behind it displace
// from a set of the given capacity. A queue that is trimmed is never popped,
// so its cursor is 0.
func (q *replayQueue) trim(capacity int64) {
	for q.head < len(q.batches) {
		b := &q.batches[q.head]
		excess := q.words - capacity // the leading words displaced
		if excess < b.words {
			break
		}
		drop := int64(1) // a call displaces one copy at a time in steady state: no division
		if excess >= 2*b.words {
			drop = excess / b.words
		}
		drop = min(drop, b.times-b.first)
		b.first += drop
		q.words -= drop * b.words
		if b.first < b.times {
			break
		}
		q.head++
	}
	q.compact()
}

// pop removes the n <= words oldest queued words and appends them to dst in
// queue order, compressed as trace.AppendAddr would compress them one by
// one: the write-back a word-by-word scan of the same inserts drains.
func (q *replayQueue) pop(n int64, dst []trace.Run) []trace.Run {
	q.words -= n
	for n > 0 {
		b := &q.batches[q.head]
		skip := q.cursor
		for _, r := range q.runs[b.off : b.off+b.n] {
			if skip >= r.Count {
				skip -= r.Count
				continue
			}
			k := min(r.Count-skip, n)
			dst = appendAddrs(dst, r.Base+b.first*b.step+skip*r.Stride, r.Stride, k)
			q.cursor += k
			if n -= k; n == 0 {
				break
			}
			skip = 0
		}
		if q.cursor == b.words {
			q.cursor = 0
			if b.first++; b.first == b.times {
				q.head++
			}
		}
	}
	q.compact()
	return dst
}

// appendAddrs appends the progression (base, stride, count) to dst exactly
// as count trace.AppendAddr calls would: the first two addresses decide how
// it joins dst's last run, and the rest extend the progression.
func appendAddrs(dst []trace.Run, base, stride, count int64) []trace.Run {
	for i := range min(count, 2) {
		dst = trace.AppendAddr(dst, base+i*stride)
	}
	return trace.AppendRun(dst, base+2*stride, stride, count-2)
}

// compact empties a queue left with no live entry, and otherwise drops the
// dead entries once their runs outnumber the live ones: a copy costs
// O(live), paid for by the drops since the last one.
func (q *replayQueue) compact() {
	if q.head == len(q.batches) {
		q.clear()
		return
	}
	if dead := q.batches[q.head].off; 2*dead >= len(q.runs) {
		q.runs = q.runs[:copy(q.runs, q.runs[dead:])]
		q.batches = q.batches[:copy(q.batches, q.batches[q.head:])]
		for i := range q.batches {
			q.batches[i].off -= dead
		}
		q.head = 0
	}
}

// extend adds the sweep's calls to b as its next copies if its first call
// is b's last copy shifted by b's step (by any step while b has one copy)
// and any later call moves by that step too.
func (q *replayQueue) extend(b *batch, s trace.Sweep) bool {
	if len(s.Runs) != b.n {
		return false
	}
	prev := q.runs[b.off : b.off+b.n]
	d := s.Runs[0].Base - prev[0].Base // copy b.times moves every base by d
	step := b.step
	if b.times == 1 {
		step = d
	}
	if d != b.times*step || (s.Times > 1 && s.Step != step) {
		return false
	}
	for i, r := range s.Runs {
		if p := prev[i]; r.Stride != p.Stride || r.Count != p.Count || r.Base-p.Base != d {
			return false
		}
	}
	b.step = step
	b.times += s.Times
	return true
}

// clear empties the queue, keeping its storage.
func (q *replayQueue) clear() {
	q.batches, q.runs, q.head, q.cursor, q.words = q.batches[:0], q.runs[:0], 0, 0, 0
}

// insert adds addr to a set indexed by the probe table (see useProbe),
// evicting the oldest entry when full. It returns the evicted address and
// whether an eviction happened.
func (f *fifoSet) insert(addr int64) (evicted int64, didEvict bool) {
	if int64(len(f.ring)) < f.capacity {
		f.ring = append(f.ring, addr)
		f.probe.insert(addr)
		return 0, false
	}
	old := f.ring[f.head]
	f.probe.remove(old)
	f.ring[f.head] = addr
	f.probe.insert(addr)
	f.head++
	if f.head == len(f.ring) {
		f.head = 0
	}
	return old, true
}

// drain empties the set and, when record is set, re-compresses the resident
// addresses onto dst in FIFO order: the queue is written into the ring, then
// the ring is read from head to its end, then the wrapped part. Without
// record the queue is dropped unwritten.
func (f *fifoSet) drain(dst []trace.Run, record bool) []trace.Run {
	if record {
		f.flushQueue()
		for _, seg := range [2][]int64{f.ring[f.head:], f.ring[:f.head]} {
			for _, a := range seg {
				dst = trace.AppendAddr(dst, a)
			}
		}
	}
	f.queue.clear()
	if f.dense {
		clear(f.marks) // dense ⇒ every resident address is in-region
	} else if f.probe != nil {
		clear(f.probe.slots)
	}
	f.ring = f.ring[:0]
	f.head = 0
	f.stale = false
	return dst
}

// len returns the number of resident words, queued ones included.
func (f *fifoSet) len() int { return int(min(f.capacity, int64(len(f.ring))+f.queue.words)) }

// blockMemo is the buffers' trace.BlockConsumer state: for each operand
// block, what its last complete stream proved about the next one. One entry
// holds every verdict.
//
// All-hit. A FIFO buffer changes state only on a miss and loses an address
// only by eviction. A stream that caused no eviction therefore leaves every
// address it touched resident — hit or freshly inserted alike — and they all
// stay resident for as long as the eviction counter keeps that value. A later
// stream of the same block under an equal counter is all hits: no state
// change, no DRAM event, no meter update; only the SRAM access count moves.
//
// All-hit by recency (read buffers). Under FIFO the resident set is exactly
// the last capacity insertions. If the last stream missed on every word,
// ending at insertion count thrashed, its words are still all resident while
// inserted-thrashed <= capacity-words, whatever was inserted since.
//
// All-miss by thrashing (read buffers). Suppose the last stream missed on
// every word, at least capacity insertions have happened since it ended, and
// no other traffic can have inserted one of the block's words: every
// bracketed block's declared hull is disjoint from every other's, and nothing
// reached the buffer outside a block. Under FIFO an address is evicted
// exactly capacity insertions after its own, so none of the block's words is
// resident now; the block replays the same address sequence, so by induction
// over it the new stream inserts what the last one did, where the last one
// did, and misses on every word.
//
// All-miss by first touch (read buffers). Under the same hull and traffic
// conditions, a block with no entry yet whose declared hull is disjoint from
// every earlier one has never had a word inserted: the ring was empty when
// the memo started proving. If it is declared distinct, no word repeats
// within the stream either, so every word misses.
//
// Fresh write (the write-back buffer). The OS drain declares each fold's
// outputs as a tile (trace.Block.Pitch): rows of the OFMAP by a range of
// filters. Folds run in row-major order, so the tiles arrive in bands: a
// tile starts a new band below every earlier one, or extends the current
// band to the right. Tiles in that order are pairwise disjoint. If the ring
// was empty at SetRegion and every write since arrived in such a tile, no
// word of the next one was ever written, and a distinct tile misses on every
// word (see beginWrite).
type blockMemo struct {
	blockTables
	// key, at and prev are the open block, its entry's index (-1: none
	// yet) and the entry as BeginBlock found it.
	key  blockKey
	at   int32
	prev blockProof
	open bool
	// replay is set while the open block is proven all-miss.
	replay bool
	// startEv and startIns are the eviction and insertion counters at
	// BeginBlock.
	startEv, startIns int64
	// unprovable is set, and hulls dropped, once two hulls overlap, a block
	// declares none or traffic reaches the buffer outside a block — or from
	// the start when the declared region fits the buffer, which then never
	// evicts: until SetRegion no block is proven all-miss.
	unprovable bool

	// band is the fresh-write proof's state: the region base tiles are
	// laid out from, and the pitch, rows and last column of the newest
	// band's tiles (pitch 0 before the first).
	band tileBand

	// skipped and recent count blocks proven all-hit by the eviction
	// counter and by recency (NewSystem wires both to the same counters),
	// thrashed and firstTouch blocks proven all-miss by either proof, and
	// freshWrite tiles proven fresh (nil-safe obsv counters).
	skipped, recent, thrashed, firstTouch, freshWrite blockCounters
}

type tileBand struct{ base, pitch, rowLo, rowHi, colHi int64 }

// blockTables is a memo's storage. Like the residency tables it travels
// from one System to the next (see Tables), and SetRegion clears it.
type blockTables struct {
	// index maps a block to its entry in proofs: the map is written once
	// per block, and a changed entry is a slice store.
	index  map[blockKey]int32
	proofs []blockProof
	// hulls are the declared hulls of the blocks opened since SetRegion,
	// one per block, sorted and pairwise disjoint. While the memo is proving,
	// a block has an entry exactly when its hull is here.
	hulls []hull
}

// cleared empties the storage, keeping its capacity.
func (t blockTables) cleared() blockTables {
	clear(t.index)
	return blockTables{t.index, t.proofs[:0], t.hulls[:0]}
}

type blockKey struct{ off, n, words int64 }

// blockProof is one block's entry: the eviction counter at which its last
// stream ended without evicting, and the insertion counter at which its last
// stream ended having missed on every word — each noProof when that stream
// did not qualify.
type blockProof struct{ resident, thrashed int64 }

const noProof = -1

type hull struct{ lo, hi int64 }

type blockCounters struct{ blocks, words *obsv.Counter }

func (c blockCounters) add(words int64) {
	c.blocks.Inc()
	c.words.Add(words)
}

// reset opens a new block namespace: proofs and hulls are forgotten. fits
// reports that the declared region fits the buffer.
func (m *blockMemo) reset(fits bool) {
	m.blockTables, m.unprovable = m.blockTables.cleared(), fits
}

// begin opens block k and reports whether it is proven all-hit under the
// eviction counter.
func (m *blockMemo) begin(k blockKey, evictions int64) bool {
	p, at := blockProof{resident: noProof, thrashed: noProof}, int32(-1)
	if i, ok := m.index[k]; ok {
		if p, at = m.proofs[i], i; p.resident == evictions {
			m.skipped.add(k.words)
			return true
		}
	}
	m.key, m.at, m.prev, m.open, m.replay = k, at, p, true, false
	m.startEv = evictions
	return false
}

// beginRead, called by a read buffer after begin declined to skip, applies
// the proofs that rest on the insertion counter inserted and the buffer's
// capacity. It reports the block all-hit by recency, closing it again, or
// sets replay when it is proven all-miss. A block seen for the first time
// has its declared hull recorded.
func (m *blockMemo) beginRead(b trace.Block, inserted, capacity int64) (skip bool) {
	if t := m.prev.thrashed; t != noProof && inserted-t <= capacity-b.Words {
		m.open = false
		m.recent.add(b.Words)
		return true
	}
	m.startIns = inserted
	fresh := m.at < 0
	if fresh && !m.unprovable {
		m.addHull(b)
	}
	switch {
	case m.unprovable:
	case fresh:
		if m.replay = b.Distinct; m.replay {
			m.firstTouch.add(b.Words)
		}
	case m.prev.thrashed != noProof && inserted-m.prev.thrashed >= capacity:
		m.replay = true
		m.thrashed.add(b.Words)
	}
	return false
}

// beginWrite, called by a write-back buffer after begin declined to skip,
// sets replay when the block is proven fresh: a distinct tile whose columns
// do not wrap, in band order after every tile accepted since SetRegion.
// Any other block rules the proof out until SetRegion.
func (m *blockMemo) beginWrite(b trace.Block) {
	if m.unprovable {
		return
	}
	t := &m.band
	lo, hi := b.Lo-t.base, b.Hi-t.base
	if !b.Distinct || b.Pitch <= 0 || lo < 0 || lo > hi || (t.pitch != 0 && b.Pitch != t.pitch) {
		m.stopProving()
		return
	}
	r0, c0, r1, c1 := lo/b.Pitch, lo%b.Pitch, hi/b.Pitch, hi%b.Pitch
	switch {
	case c0 > c1:
		m.stopProving()
		return
	case t.pitch == 0 || r0 > t.rowHi: // a new band below every earlier one
	case r0 == t.rowLo && r1 == t.rowHi && c0 > t.colHi: // right of the band's last tile
	default:
		m.stopProving()
		return
	}
	*t = tileBand{base: t.base, pitch: b.Pitch, rowLo: r0, rowHi: r1, colHi: c1}
	m.replay = true
	m.freshWrite.add(b.Words)
}

// stopProving rules out every all-miss proof until SetRegion.
func (m *blockMemo) stopProving() {
	m.unprovable, m.hulls = true, m.hulls[:0]
}

// end closes the open block and records what its stream proved. A
// write-back buffer proves no thrashing and passes 0 as inserted, which no
// stream of one word or more matches. A resident proof the counter
// has passed is left in place, since the counter never returns to it.
func (m *blockMemo) end(evictions, inserted int64) {
	m.open, m.replay = false, false
	p := m.prev
	if evictions == m.startEv {
		p.resident = evictions
	}
	p.thrashed = noProof
	if inserted-m.startIns == m.key.words {
		p.thrashed = inserted
	}
	if p != m.prev {
		m.put(p)
	}
}

// put stores the open block's entry, creating it if it has none.
func (m *blockMemo) put(p blockProof) {
	if m.at >= 0 {
		m.proofs[m.at] = p
		return
	}
	if m.index == nil {
		m.index = make(map[blockKey]int32)
	}
	m.at = int32(len(m.proofs))
	m.index[m.key] = m.at
	m.proofs = append(m.proofs, p)
}

// addHull inserts the open block's declared hull into the sorted list and
// creates its entry, or rules out the all-miss proofs if the hull overlaps
// another block's or none is declared.
func (m *blockMemo) addHull(b trace.Block) {
	i, _ := slices.BinarySearchFunc(m.hulls, b.Lo, func(e hull, lo int64) int { return cmp.Compare(e.lo, lo) })
	if b.Lo > b.Hi || (i > 0 && m.hulls[i-1].hi >= b.Lo) || (i < len(m.hulls) && m.hulls[i].lo <= b.Hi) {
		m.stopProving()
		return
	}
	m.hulls = slices.Insert(m.hulls, i, hull{b.Lo, b.Hi})
	m.put(m.prev)
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
	// sweeps counts the sweeps taken whole, and the calls they stand for
	// (nil-safe obsv counters).
	sweeps blockCounters
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

// SetRegion declares the address region this buffer will service, enabling
// the fast direct-mapped residency table. Call before the first access. A
// new declaration also opens a new block namespace: proven blocks are
// forgotten. The all-miss proofs stay off when the region fits the buffer
// or traffic came first (the ring is not empty).
func (b *buffer) SetRegion(base, words int64) {
	b.set.setRegion(base, words)
	b.memo.reset(words <= b.set.capacity || b.set.len() > 0)
}

// RegionFallbacks counts accesses outside the declared region that forced
// the residency structure off the dense fast path (zero on a healthy
// region declaration).
func (b *buffer) RegionFallbacks() int64 { return b.set.fallbacks }

// forward hands one cycle's DRAM traffic, runBuf with words in total, to
// the DRAM trace and the bandwidth meter.
func (b *buffer) forward(cycle, words int64) {
	if b.record {
		b.dram.ConsumeRuns(cycle, b.runBuf)
	}
	if b.meter != nil {
		b.meter.Add(cycle, words)
	}
}

// forwardSweep hands times cycles' DRAM traffic from cycle on — runBuf, with
// words in total, moved by step each cycle — to the DRAM trace as one sweep
// (trace.Sweep.Feed), and to the bandwidth meter, window by window.
func (b *buffer) forwardSweep(cycle, words, step, times int64) {
	if b.record {
		trace.Sweep{Cycle: cycle, Runs: b.runBuf, Step: step, Times: times}.Feed(b.dram)
	}
	if b.meter != nil {
		b.meter.AddSweep(cycle, words, times)
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
// and the demand misses are re-compressed into runs for the DRAM trace. A
// block proven all-miss is not probed at all (see replay).
func (b *ReadBuffer) ConsumeRuns(cycle int64, runs []trace.Run) {
	words := trace.RunWords(runs)
	if words == 0 {
		return
	}
	b.SRAMReads += words
	if b.memo.replay {
		b.replay(trace.Sweep{Cycle: cycle, Runs: runs, Times: 1}, words)
		return
	}
	if !b.memo.open {
		b.memo.stopProving()
	}
	if b.set.stale {
		b.set.reindex()
	}
	misses := b.runBuf[:0]
	var missWords int64
	for _, r := range runs {
		if b.set.denseCovers(bounds(r)) {
			var mw, ev int64
			misses, mw, ev = b.set.scanRunDense(r, misses, b.record)
			missWords += mw
			b.Evictions += ev
			continue
		}
		probe, a := b.set.useProbe(), r.Base
		for i := int64(0); i < r.Count; i++ {
			if !probe.contains(a) {
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

// ConsumeSweep implements trace.BlockConsumer: a sweep of a block proven
// all-miss is replayed whole, and any other is unrolled into ConsumeRuns.
func (b *ReadBuffer) ConsumeSweep(s trace.Sweep) {
	words := trace.RunWords(s.Runs)
	if !b.memo.replay || words == 0 {
		s.Unroll(b)
		return
	}
	b.SRAMReads += s.Times * words
	b.replay(s, words)
	b.sweeps.add(s.Times)
}

// replay streams the calls of a sweep (one call, or many) of a block proven
// all-miss: every word is a miss, so the arriving runs are the demand
// stream — the runs the streak scan would emit — the counters move by
// arithmetic, and the sweep is queued behind the ring as one entry (see
// overwrite).
func (b *ReadBuffer) replay(s trace.Sweep, words int64) {
	b.Evictions += b.set.overwrite(s, words, true)
	misses := b.runBuf[:0]
	if b.record {
		for _, r := range s.Runs {
			misses = trace.AppendRun(misses, r.Base, r.Stride, r.Count)
		}
	}
	b.runBuf = misses
	b.DRAMReads += s.Times * words
	b.forwardSweep(s.Cycle, words, s.Step, s.Times)
}

// BeginBlock implements trace.BlockConsumer: a block is skipped when proven
// all-hit under Evictions or by recency, and replayed when proven all-miss
// under DRAMReads, the insertion counter. A block whose hull leaves the
// dense table is not taken as a first touch: its scan moves the set to the
// probe table, exactly as the same stream unbracketed would.
func (b *ReadBuffer) BeginBlock(blk trace.Block) bool {
	if b.set.dense && !b.set.denseCovers(blk.Lo, blk.Hi) {
		blk.Distinct = false
	}
	if b.memo.begin(blockKey{blk.Off, blk.N, blk.Words}, b.Evictions) ||
		b.memo.beginRead(blk, b.DRAMReads, b.set.capacity) {
		b.SRAMReads += blk.Words
		return true
	}
	return false
}

// EndBlock implements trace.BlockConsumer.
func (b *ReadBuffer) EndBlock() { b.memo.end(b.Evictions, b.DRAMReads) }

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
	// No tile is proven fresh before SetRegion declares the base tiles are
	// laid out from.
	b.memo.unprovable = true
	return &WriteBuffer{buffer: b}, nil
}

// SetRegion declares the address region this buffer will service, as
// ReadBuffer's does, and the base output tiles are laid out from. The
// fresh-write proof stays off when traffic came first (the ring is not
// empty); a region that fits the buffer does not rule it out.
func (b *WriteBuffer) SetRegion(base, words int64) {
	b.set.setRegion(base, words)
	b.memo.reset(b.set.len() > 0)
	b.memo.band = tileBand{base: base}
}

// Consume implements trace.Consumer over SRAM write events.
func (b *WriteBuffer) Consume(cycle int64, addrs []int64) { trace.ConsumeAddrs(b, cycle, addrs) }

// ConsumeRuns implements trace.RunConsumer; like ReadBuffer.ConsumeRuns it
// walks the progressions arithmetically and forwards evicted outputs to
// the DRAM write trace as re-compressed runs. A tile proven fresh is not
// scanned at all (see replay).
func (b *WriteBuffer) ConsumeRuns(cycle int64, runs []trace.Run) {
	words := trace.RunWords(runs)
	if words == 0 {
		return
	}
	b.SRAMWrites += words
	if b.memo.replay {
		b.replay(trace.Sweep{Cycle: cycle, Runs: runs, Times: 1}, words)
		return
	}
	if !b.memo.open {
		b.memo.stopProving()
	}
	if b.set.stale {
		b.set.reindex()
	}
	drained := b.runBuf[:0]
	var drainWords int64
	for _, r := range runs {
		if b.set.denseCovers(bounds(r)) {
			var dw int64
			drained, dw = b.set.scanRunDenseEvict(r, drained, b.record)
			drainWords += dw
			continue
		}
		probe, a := b.set.useProbe(), r.Base
		for i := int64(0); i < r.Count; i++ {
			if !probe.contains(a) {
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

// BeginBlock implements trace.BlockConsumer: a block is skipped when proven
// all-hit — every eviction drains one word and Flush drains the rest, so
// DRAMWrites serves as the eviction counter — and replayed when it is a
// tile proven fresh. A tile that leaves the dense table is not taken as
// fresh: its scan moves the set to the probe table, exactly as the same
// stream unbracketed would.
func (b *WriteBuffer) BeginBlock(blk trace.Block) bool {
	if b.memo.begin(blockKey{blk.Off, blk.N, blk.Words}, b.DRAMWrites) {
		b.SRAMWrites += blk.Words
		return true
	}
	if b.set.dense && !b.set.denseCovers(blk.Lo, blk.Hi) {
		blk.Distinct = false
	}
	b.memo.beginWrite(blk)
	return false
}

// ConsumeSweep implements trace.BlockConsumer: a sweep of a tile proven
// fresh is replayed whole, and any other is unrolled into ConsumeRuns.
func (b *WriteBuffer) ConsumeSweep(s trace.Sweep) {
	words := trace.RunWords(s.Runs)
	if !b.memo.replay || words == 0 {
		s.Unroll(b)
		return
	}
	b.SRAMWrites += s.Times * words
	b.replay(s, words)
}

// replay writes the calls of a sweep (one call, or many) of a tile proven
// fresh. Every word misses, so the sweep is queued behind the ring as one
// entry (see overwrite), and call j drains the set's oldest
// max(0, min(words, (j+1)·words − free)) words, free being the slots open
// before the sweep: nothing while the set fills, then one partial call, then
// words per call. While the proof holds the ring is empty — every insertion
// since SetRegion was queued — so with a DRAM consumer each call's drain is
// popped off the queue's head and forwarded as the runs the word-by-word
// scan would emit; without one the drains are only counted and metered.
func (b *WriteBuffer) replay(s trace.Sweep, words int64) {
	free := b.set.capacity - int64(b.set.len())
	b.DRAMWrites += b.set.overwrite(s, words, !b.record)
	j := min(s.Times, free/words) // the calls that drain nothing
	if j == s.Times {
		return
	}
	if d := (j+1)*words - free; d < words {
		b.drain(s.Cycle+j, d)
		j++
	}
	switch {
	case b.record:
		for ; j < s.Times; j++ {
			b.drain(s.Cycle+j, words)
		}
	case b.meter != nil && j < s.Times:
		b.meter.AddSweep(s.Cycle+j, words, s.Times-j)
	}
}

// drain forwards one call's write-back of the set's n oldest words, which a
// replayed sweep left at the head of the queue.
func (b *WriteBuffer) drain(cycle, n int64) {
	if b.record {
		b.runBuf = b.set.queue.pop(n, b.runBuf[:0])
	}
	b.forward(cycle, n)
}

// EndBlock implements trace.BlockConsumer.
func (b *WriteBuffer) EndBlock() { b.memo.end(b.DRAMWrites, 0) }

// Flush drains every resident output to DRAM at the given cycle (the end of
// the layer), as runs like every other write-back. Without a DRAM consumer
// the words are only counted and metered. It returns the number of words
// written back.
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
