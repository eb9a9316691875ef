package memory

import (
	"math/rand"
	"slices"
	"testing"

	"scalesim/internal/trace"
)

// eagerOverwrite is overwrite without the replay queue: it writes every
// word into the ring at once — free slots first, then each over the oldest
// slot, one word at a time — and returns the evictions. FuzzReplayQueue holds the queue
// to it.
func eagerOverwrite(f *fifoSet, r trace.Run) (evictions int64) {
	f.stale = true
	a, left := r.Base, r.Count
	if free := f.capacity - int64(len(f.ring)); free > 0 {
		k, n := int(min(free, left)), len(f.ring)
		f.ring = slices.Grow(f.ring, k)[:n+k]
		for i := n; i < n+k; i++ {
			f.ring[i] = a
			a += r.Stride
		}
		left -= int64(k)
	}
	evictions = left
	for ; left > 0; left-- {
		f.ring[f.head] = a
		a += r.Stride
		if f.head++; f.head == len(f.ring) {
			f.head = 0
		}
	}
	return evictions
}

// fifoOrder returns a set's resident words, oldest first, as the ring holds
// them: the queue is not included.
func fifoOrder(f *fifoSet) []int64 {
	return append(slices.Clone(f.ring[f.head:]), f.ring[:f.head]...)
}

// logicalOrder returns a set's resident words, oldest first, with its queue
// expanded behind the ring and cut to the last capacity words — what
// flushQueue must write, computed without it.
func logicalOrder(f *fifoSet) []int64 {
	out := fifoOrder(f)
	q := &f.queue
	for _, b := range q.batches[q.head:] {
		for j := b.first; j < b.times; j++ {
			for _, r := range q.runs[b.off : b.off+b.n] {
				r.Base += j * b.step
				out = trace.ExpandRuns([]trace.Run{r}, out)
			}
		}
	}
	return out[max(0, int64(len(out))-f.capacity):]
}

// scanRun is ReadBuffer.ConsumeRuns' scan of one run on a bare set: the
// index rebuilt if stale, then the dense table or the probe table.
func scanRun(f *fifoSet, r trace.Run) (misses []trace.Run, evictions int64) {
	if f.stale {
		f.reindex()
	}
	if f.denseCovers(bounds(r)) {
		misses, _, evictions = f.scanRunDense(r, nil, true)
		return misses, evictions
	}
	probe, a := f.useProbe(), r.Base
	for i := int64(0); i < r.Count; i++ {
		if !probe.contains(a) {
			if _, evicted := f.insert(a); evicted {
				evictions++
			}
			misses = trace.AppendAddr(misses, a)
		}
		a += r.Stride
	}
	return misses, evictions
}

// queueRegion is the dense region FuzzReplayQueue's addresses stay in, and
// maxBatchWords the most words fuzzOps puts in a batch: two runs of 40.
const (
	queueRegion   = 64
	maxBatchWords = 80
)

// fuzzOps decodes bytes into operations on a set; each byte read past the
// end is 0.
type fuzzOps struct {
	data []byte
	last []trace.Run // the previous batch
}

func (o *fuzzOps) next() int64 {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return int64(b)
}

// run decodes an in-region run: a base, a nonzero stride in -3..3 and a
// count cut to what stays in the region.
func (o *fuzzOps) run() trace.Run {
	base, stride, count := o.next()%queueRegion, o.next()%6-3, 1+o.next()%40
	if stride >= 0 {
		stride++
	}
	if stride > 0 {
		count = min(count, (queueRegion-1-base)/stride+1)
	} else {
		count = min(count, base/-stride+1)
	}
	return trace.Run{Base: base, Stride: stride, Count: count}
}

// shifted returns runs with every base moved by d.
func shifted(runs []trace.Run, d int64) []trace.Run {
	out := slices.Clone(runs)
	for i := range out {
		out[i].Base += d
	}
	return out
}

func inRegion(runs []trace.Run) bool {
	for _, r := range runs {
		if lo, hi := bounds(r); lo < 0 || hi >= queueRegion {
			return false
		}
	}
	return true
}

// FuzzReplayQueue holds the replay queue to the eager ring writes it
// replaces: two dense sets of one capacity take the same operations —
// batches overwritten (new, or the previous batch shifted), sweeps of them,
// scans, reindex, drain and leaving the dense table — one through overwrite,
// the reference through eagerOverwrite, a sweep call by call. After every
// operation the two must hold the same words in the same FIFO order, and
// every eviction count, miss stream and drained stream must agree.
func FuzzReplayQueue(f *testing.F) {
	// Opcodes: 0 batch of one run, 1 batch of two runs, 2 the previous batch
	// shifted, 3 scan, 4 reindex, 5 drain, 6 leave the dense table, 7 a sweep
	// of 2 to 17 calls from the previous batch shifted (a fresh run if there
	// is none), by a step in -8..7.
	for _, seed := range [][]byte{
		// Shifted repeats that group: one run, then shifted by +1 four times.
		{4, 0, 0, 4, 4, 2, 1, 2, 1, 2, 1, 2, 1, 3, 2, 4, 1},
		// Count ramps that do not group.
		{6, 0, 0, 4, 1, 0, 8, 4, 2, 0, 16, 4, 3, 0, 24, 4, 4, 4},
		// Two-run interleaved calls, shifted together.
		{8, 1, 29, 4, 1, 40, 4, 0, 2, 1, 2, 1, 2, 1, 2, 1, 3, 30, 3, 0},
		// Negative stride and step.
		{5, 0, 60, 1, 3, 2, 255, 2, 255, 2, 254, 3, 55, 2, 5},
		// A run longer than the capacity.
		{3, 0, 0, 3, 39, 3, 10, 3, 1, 4, 5},
		// A partly full ring, then batches.
		{10, 3, 50, 4, 3, 0, 0, 4, 6, 2, 6, 2, 6, 3, 1, 4, 2},
		// Batches around leaving the dense table.
		{7, 0, 0, 4, 9, 6, 2, 9, 2, 9, 3, 20, 5, 3, 5},
		// A sweep that continues the previous batch's entry, then a scan.
		{12, 0, 0, 4, 2, 2, 1, 2, 1, 7, 1, 9, 6, 3, 0, 4, 4},
		// A negative-step sweep longer than the capacity.
		{4, 0, 50, 4, 1, 7, 0, 254, 12, 4, 3, 40, 1, 1},
		// A sweep with no previous batch, then a shifted batch joining it.
		{9, 7, 5, 4, 3, 9, 3, 2, 3, 3, 0, 4, 4},
		// A sweep that continues the previous batch's entry by a different step.
		{20, 0, 0, 3, 1, 2, 2, 7, 2, 12, 2, 4},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int64(data[0])%24
		o := &fuzzOps{data: data[1:]}
		q, ref := newFIFOSet(capacity), newFIFOSet(capacity)
		q.setRegion(0, queueRegion)
		ref.setRegion(0, queueRegion)
		for step := 0; len(o.data) > 0 && step < 64; step++ {
			switch op := o.next() % 8; op {
			case 0, 1, 2:
				var runs []trace.Run
				if op == 2 {
					if o.last == nil {
						continue
					}
					d := int64(int8(o.next()))
					for _, r := range o.last {
						runs = append(runs, trace.Run{Base: r.Base + d, Stride: r.Stride, Count: r.Count})
					}
					if !inRegion(runs) {
						continue
					}
				} else {
					for range 1 + op {
						runs = append(runs, o.run())
					}
				}
				o.last = runs
				got := q.overwrite(trace.Sweep{Runs: runs, Times: 1}, trace.RunWords(runs), true)
				var want int64
				for _, r := range runs {
					want += eagerOverwrite(ref, r)
				}
				if got != want {
					t.Fatalf("step %d: overwrite %v evicted %d, eager %d", step, runs, got, want)
				}
			case 3:
				r := o.run()
				got, gotEv := scanRun(q, r)
				want, wantEv := scanRun(ref, r)
				if !slices.Equal(got, want) || gotEv != wantEv {
					t.Fatalf("step %d: scan %v missed %v evicting %d, eager %v evicting %d",
						step, r, got, gotEv, want, wantEv)
				}
			case 4:
				q.reindex()
				ref.reindex()
				if got, want := fifoOrder(q), fifoOrder(ref); !slices.Equal(got, want) {
					t.Fatalf("step %d: reindexed ring %v, eager %v", step, got, want)
				}
			case 5:
				if got, want := q.drain(nil, true), ref.drain(nil, true); !slices.Equal(got, want) {
					t.Fatalf("step %d: drained %v, eager %v", step, got, want)
				}
			case 6:
				if q.dense {
					q.leaveDense()
					ref.leaveDense()
				}
			case 7:
				d := int64(int8(o.next()))
				sw := trace.Sweep{Step: o.next()%16 - 8, Times: 2 + o.next()%16}
				if o.last == nil {
					sw.Runs = []trace.Run{o.run()}
				}
				for _, r := range o.last {
					sw.Runs = append(sw.Runs, trace.Run{Base: r.Base + d, Stride: r.Stride, Count: r.Count})
				}
				lastCall := shifted(sw.Runs, (sw.Times-1)*sw.Step)
				if !inRegion(sw.Runs) || !inRegion(lastCall) {
					continue
				}
				o.last = lastCall
				got := q.overwrite(sw, trace.RunWords(sw.Runs), true)
				var want int64
				for j := range sw.Times {
					for _, r := range shifted(sw.Runs, j*sw.Step) {
						want += eagerOverwrite(ref, r)
					}
				}
				if got != want {
					t.Fatalf("step %d: sweep %+v evicted %d, eager %d", step, sw, got, want)
				}
			}
			if got, want := logicalOrder(q), fifoOrder(ref); !slices.Equal(got, want) {
				t.Fatalf("step %d: resident %v, eager %v", step, got, want)
			}
			if q.len() != ref.len() || q.stale != ref.stale {
				t.Fatalf("step %d: len %d stale %t, eager %d and %t", step, q.len(), q.stale, ref.len(), ref.stale)
			}
			if q.queue.words >= capacity+maxBatchWords {
				t.Fatalf("step %d: %d words queued, capacity %d", step, q.queue.words, capacity)
			}
		}
	})
}

// TestReplayQueueSkipsTheRing pins that the queue fires: a replay-only
// stream of ten times the capacity, in calls that each repeat the previous
// one shifted, never writes the ring and leaves one queue entry; the next
// scan writes exactly the last capacity words into the ring, in order.
func TestReplayQueueSkipsTheRing(t *testing.T) {
	b, err := NewReadBuffer("b", 32, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := b.set.capacity
	b.SetRegion(0, 1024)
	// Each call carries two interleaved runs, as a 3x3 convolution's do.
	call := func(j int64) []trace.Run {
		return []trace.Run{{Base: 2 * j, Stride: 1, Count: 2}, {Base: 512 + 2*j, Stride: 1, Count: 2}}
	}
	calls := 10 * c / 4
	var stream []int64
	for j := range calls {
		stream = trace.ExpandRuns(call(j), stream)
	}
	blk := trace.Block{Off: 0, N: calls, Words: int64(len(stream)), Lo: 0, Hi: 512 + 2*calls - 1, Distinct: true}
	if b.BeginBlock(blk) {
		t.Fatal("first stream skipped")
	}
	for j := range calls {
		b.ConsumeRuns(j, call(j))
	}
	b.EndBlock()
	if len(b.set.ring) != 0 || len(b.set.queue.batches)-b.set.queue.head != 1 || b.set.queue.words > c+4 {
		t.Fatalf("after the replay: ring %d words, queue %d entries and %d words; want 0, 1 and at most %d",
			len(b.set.ring), len(b.set.queue.batches)-b.set.queue.head, b.set.queue.words, c+4)
	}
	if b.DRAMReads != int64(len(stream)) || b.Evictions != int64(len(stream))-c {
		t.Errorf("DRAMReads %d Evictions %d, want %d and %d", b.DRAMReads, b.Evictions, len(stream), int64(len(stream))-c)
	}
	// A hit on the newest word: the scan reindexes and misses nothing.
	b.ConsumeRuns(calls, []trace.Run{{Base: stream[len(stream)-1], Stride: 1, Count: 1}})
	if b.DRAMReads != int64(len(stream)) {
		t.Errorf("the newest replayed word missed")
	}
	if got, want := fifoOrder(b.set), stream[int64(len(stream))-c:]; !slices.Equal(got, want) {
		t.Errorf("ring after the scan %v, want the last %d words %v", got, c, want)
	}
	if b.set.queue.words != 0 || b.set.stale {
		t.Errorf("queue holds %d words, stale %t after the scan", b.set.queue.words, b.set.stale)
	}
}

// eagerEvict is eagerOverwrite's word-by-word insert that also returns the
// evicted words, compressed one by one as the write-back scan compresses
// them.
func eagerEvict(f *fifoSet, r trace.Run, evicted []trace.Run) []trace.Run {
	a := r.Base
	for range r.Count {
		if int64(len(f.ring)) < f.capacity {
			f.ring = append(f.ring, a)
		} else {
			evicted = trace.AppendAddr(evicted, f.ring[f.head])
			f.ring[f.head] = a
			if f.head++; f.head == len(f.ring) {
				f.head = 0
			}
		}
		a += r.Stride
	}
	return evicted
}

// TestReplayQueuePopMatchesEager holds pop to eager ring writes: random
// sweeps are queued untrimmed, and after each call its evictions are popped
// off the queue's head. The popped runs must equal, run for run, what
// inserting word by word evicts, and a reindex or a drain — which write the
// queue, popped words skipped, into the ring — must leave the same FIFO.
// Every insert is a fresh word, as in a write-back buffer proving tiles.
func TestReplayQueuePopMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := range 300 {
		capacity := 1 + rng.Int63n(24)
		q, ref := newFIFOSet(capacity), newFIFOSet(capacity)
		q.setRegion(0, 1<<16)
		ref.setRegion(0, 1<<16)
		next := int64(0) // fresh words only: every insert misses
		for step := range 12 {
			runs := []trace.Run{{Base: next, Stride: 1 + rng.Int63n(3), Count: 1 + rng.Int63n(9)}}
			if rng.Intn(2) == 0 {
				last := runs[0].Base + (runs[0].Count-1)*runs[0].Stride
				runs = append(runs, trace.Run{Base: last + 1 + rng.Int63n(4), Stride: 1, Count: 1 + rng.Int63n(5)})
			}
			words := trace.RunWords(runs)
			last := runs[len(runs)-1]
			span := last.Base + (last.Count-1)*last.Stride - runs[0].Base + 1
			sw := trace.Sweep{Runs: runs, Step: span + rng.Int63n(3), Times: 1 + rng.Int63n(6)}
			next += sw.Times * sw.Step
			free := capacity - int64(q.len())
			q.overwrite(sw, words, false)
			for j := range sw.Times {
				n := max(0, min(words, (j+1)*words-free))
				got := q.queue.pop(n, nil)
				var want []trace.Run
				for _, r := range shifted(runs, j*sw.Step) {
					want = eagerEvict(ref, r, want)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("case %d step %d call %d: popped %v, eager %v", c, step, j, got, want)
				}
			}
			if q.queue.words > capacity {
				t.Fatalf("case %d step %d: %d words queued, capacity %d", c, step, q.queue.words, capacity)
			}
			switch rng.Intn(6) {
			case 0:
				q.reindex()
				if got, want := fifoOrder(q), fifoOrder(ref); !slices.Equal(got, want) {
					t.Fatalf("case %d step %d: reindexed ring %v, eager %v", c, step, got, want)
				}
				q.drain(nil, false) // the ring empty again, as pop requires
				ref.drain(nil, false)
			case 1:
				if got, want := q.drain(nil, true), ref.drain(nil, true); !slices.Equal(got, want) {
					t.Fatalf("case %d step %d: drained %v, eager %v", c, step, got, want)
				}
			}
		}
	}
}
