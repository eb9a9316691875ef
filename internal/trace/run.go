package trace

import "sync"

// Run is a strided address segment: Count addresses forming the arithmetic
// progression Base, Base+Stride, ..., Base+(Count-1)*Stride. The simulator's
// address generators are affine (row-major layouts walked by skewed
// wavefronts), so every per-cycle batch collapses into a handful of runs;
// representing batches this way shrinks the systolic→trace→memory hot path
// from O(elements) to O(segments) while expanding to exactly the same
// address sequence.
type Run struct {
	Base, Stride, Count int64
}

// Last returns the final address of the run.
func (r Run) Last() int64 { return r.Base + (r.Count-1)*r.Stride }

// AppendTo expands the run onto dst in order.
func (r Run) AppendTo(dst []int64) []int64 {
	a := r.Base
	for i := int64(0); i < r.Count; i++ {
		dst = append(dst, a)
		a += r.Stride
	}
	return dst
}

// RunWords returns the total address count of a run list.
func RunWords(runs []Run) int64 {
	var n int64
	for _, r := range runs {
		n += r.Count
	}
	return n
}

// ExpandRuns appends every address of the run list onto dst, preserving
// order. Pass dst[:0] of a reusable buffer to avoid allocation.
func ExpandRuns(runs []Run, dst []int64) []int64 {
	for _, r := range runs {
		dst = r.AppendTo(dst)
	}
	return dst
}

// AppendRun appends the progression (base, stride, count) onto a run list,
// coalescing with the final run when the new segment continues its
// progression — so producers can emit candidate segments freely (e.g. at
// every potential layout wrap) and still get a minimal list. count < 1 is a
// no-op. A run is an exact progression: two addresses whose step does not
// fit in an int64 (MaxInt64 then MinInt64) stay in separate runs rather
// than coalescing into one that wraps.
func AppendRun(runs []Run, base, stride, count int64) []Run {
	if count < 1 {
		return runs
	}
	if n := len(runs); n > 0 {
		last := &runs[n-1]
		switch {
		case last.Count == 1 && count == 1:
			// Two singletons define their own stride.
			if d := base - last.Base; follows(last.Base, d, base) {
				last.Stride = d
				last.Count = 2
				return runs
			}
		case last.Count == 1 && follows(last.Base, stride, base):
			// Singleton extended by a segment that points back at it.
			last.Stride = stride
			last.Count = 1 + count
			return runs
		case (count == 1 || stride == last.Stride) && follows(last.Last(), last.Stride, base):
			last.Count += count
			return runs
		}
	}
	return append(runs, Run{Base: base, Stride: stride, Count: count})
}

// follows reports whether b is a+stride without wrapping int64.
func follows(a, stride, b int64) bool {
	return a+stride == b && (b < a) == (stride < 0)
}

// AppendAddr appends a single address onto a run list, coalescing runs of
// uniform stride — the streaming form of AppendRun for consumers that
// re-compress filtered address streams (e.g. the SRAM miss path).
func AppendAddr(runs []Run, addr int64) []Run {
	return AppendRun(runs, addr, 0, 1)
}

// RunConsumer receives trace events in run form. ConsumeRuns is the bulk
// counterpart of Consumer.Consume: one call per cycle, with the cycle's
// addresses as an ordered run list. The runs slice is only valid for the
// duration of the call; implementations that retain it must copy.
//
// ConsumeRuns is every product consumer's only body: its Consume is
// ConsumeAddrs over itself, so both entry points observe the same trace.
type RunConsumer interface {
	ConsumeRuns(cycle int64, runs []Run)
}

// runBufs recycles ConsumeAddrs' run lists, keeping the element entry point
// free of per-call allocation.
var runBufs = sync.Pool{New: func() any { return new([]Run) }}

// ConsumeAddrs is the one element→run shim: it compresses a batch of
// addresses into runs and hands them to c.ConsumeRuns. A run-native
// consumer's Consume method is exactly this call.
func ConsumeAddrs(c RunConsumer, cycle int64, addrs []int64) {
	buf := runBufs.Get().(*[]Run)
	runs := (*buf)[:0]
	for _, a := range addrs {
		runs = AppendAddr(runs, a)
	}
	c.ConsumeRuns(cycle, runs)
	*buf = runs
	runBufs.Put(buf)
}

// Block is what a producer declares about an operand block when it opens
// one (see BlockConsumer).
//
// (Off, N, Words) names the block: the same triple must always denote the
// same address sequence, Words addresses in total, in the same order — a
// consumer may prove the next stream from what the last one did address by
// address (the SRAM buffers replay an all-miss block on that proof).
//
// [Lo, Hi] is the block's hull: every address it streams lies inside it. It
// may be wider than the exact bounds, never narrower. Distinct means no
// address repeats within one stream of the block. Lo > Hi declares no hull
// and !Distinct no distinctness; a consumer must then assume neither.
//
// Pitch > 0 declares the hull a tile instead: the block writes into a
// region laid out in rows of Pitch words, and relative to the region's base
// every address it streams lies in rows Lo/Pitch..Hi/Pitch and columns
// Lo%Pitch..Hi%Pitch (the OS drain of one fold's outputs). Pitch 0 keeps
// the interval meaning.
type Block struct {
	Off, N, Words int64
	Lo, Hi        int64
	Distinct      bool
	Pitch         int64
}

// BlockConsumer is an optional capability beside RunConsumer: a producer
// that replays the same operand block many times (a fold's IFMAP rows, its
// filter columns) brackets each replay, and a consumer whose state can prove
// the whole block a no-op says so before a single run is generated. When
// BeginBlock returns true the consumer has accounted for the block and the
// producer sends nothing — no ConsumeRuns, no ConsumeSweep, no EndBlock.
// Otherwise the producer streams the block, as calls and sweeps in cycle
// order, and calls EndBlock after its last batch.
//
// Only consumers for which an all-hit block is unobservable, and an all-miss
// block needs no scan, implement this (the SRAM buffers). Tee, the recorders
// and the CSV writer deliberately do not: any live observer in the chain
// hides the capability, so it receives the full stream, call by call.
// Producers discover it by type assertion on the resolved RunConsumer.
type BlockConsumer interface {
	BeginBlock(b Block) (skip bool)
	// ConsumeSweep takes Times calls of the open block at once (see Sweep).
	// It must leave the consumer exactly as Sweep.Unroll would; a consumer
	// with no closed form for the sweep calls it.
	ConsumeSweep(s Sweep)
	EndBlock()
}

// Sweep is Times calls on consecutive cycles: call j, for 0 <= j < Times,
// arrives at Cycle+j and carries Runs with every base moved by j·Step —
// the same split, counts and strides, run for run. It is how a producer
// sends the steady part of a wavefront, where each cycle's slice is the
// previous one shifted. Runs is only valid for the duration of the call.
type Sweep struct {
	Cycle int64
	Runs  []Run
	Step  int64
	Times int64
}

// sweepConsumer is a consumer that takes a sweep whole: a BlockConsumer
// inside its open block, and on the DRAM side the timing model, the stall
// analyzer and a tee of such. Its ConsumeSweep must leave it exactly as
// Unroll would.
type sweepConsumer interface{ ConsumeSweep(s Sweep) }

// Feed is the one way to hand a sweep downstream: whole to a consumer that
// takes sweeps, and as Unroll's calls to any other.
func (s Sweep) Feed(c RunConsumer) {
	if sc, ok := c.(sweepConsumer); ok {
		sc.ConsumeSweep(s)
		return
	}
	s.Unroll(c)
}

// Unroll hands the sweep to c as the Times calls it stands for, in cycle
// order, shifting one private copy of the runs: the one fallback of every
// consumer that takes a sweep with no closed form.
func (s Sweep) Unroll(c RunConsumer) {
	if s.Times == 1 {
		c.ConsumeRuns(s.Cycle, s.Runs)
		return
	}
	buf := runBufs.Get().(*[]Run)
	runs := append((*buf)[:0], s.Runs...)
	for j := int64(0); j < s.Times; j++ {
		if j > 0 {
			for i := range runs {
				runs[i].Base += s.Step
			}
		}
		c.ConsumeRuns(s.Cycle+j, runs)
	}
	*buf = runs
	runBufs.Put(buf)
}

// runExpander adapts an element-only Consumer (a ConsumerFunc, a caller's
// own sink) to RunConsumer by materializing runs into a reusable buffer.
// Not safe for concurrent use (per-stream consumers never are).
type runExpander struct {
	c   Consumer
	buf []int64
}

func (e *runExpander) ConsumeRuns(cycle int64, runs []Run) {
	e.buf = ExpandRuns(runs, e.buf[:0])
	e.c.Consume(cycle, e.buf)
}

// Runs returns c's native run path when it has one, or wraps it in a
// materializing adapter (one reusable buffer, no per-cycle allocation).
// A nil consumer yields a discarding RunConsumer.
func Runs(c Consumer) RunConsumer {
	if c == nil {
		return nullConsumer{}
	}
	if rc, ok := c.(RunConsumer); ok {
		return rc
	}
	return &runExpander{c: c}
}
