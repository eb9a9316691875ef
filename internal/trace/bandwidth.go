package trace

import (
	"cmp"
	"slices"
)

// BandwidthMeter aggregates a trace into a bandwidth profile: the access
// volume per fixed-size cycle window, from which average and peak demand
// bandwidths are derived. The paper reports interface bandwidth in
// words (or bytes) per cycle of stall-free operation.
type BandwidthMeter struct {
	// WindowCycles is the aggregation granularity.
	WindowCycles int64
	// WordBytes scales word counts into bytes.
	WordBytes int64

	// ordered holds the settled windows that arrived in increasing order
	// (the producers' order), in chunks that double up to maxChunk windows
	// and are never copied; windows holds any other, by window index. A
	// window may be in both, and then its words are their sum.
	ordered [][]window
	windows map[int64]int64
	// cur and curWords hold the window being filled, the cycles lo..hi;
	// settle stores them when the window changes or a reader needs them.
	cur, curWords int64
	lo, hi        int64
	total         int64
	last          int64
	first         int64
	seen          bool
}

// NewBandwidthMeter creates a meter with the given window size in cycles
// (window <= 0 defaults to 1) and word size in bytes.
func NewBandwidthMeter(windowCycles, wordBytes int64) *BandwidthMeter {
	if windowCycles <= 0 {
		windowCycles = 1
	}
	if wordBytes <= 0 {
		wordBytes = 1
	}
	return &BandwidthMeter{
		WindowCycles: windowCycles,
		WordBytes:    wordBytes,
		lo:           1 - windowCycles,
		hi:           windowCycles - 1,
	}
}

// Consume implements Consumer.
func (b *BandwidthMeter) Consume(cycle int64, addrs []int64) { ConsumeAddrs(b, cycle, addrs) }

// ConsumeRuns implements RunConsumer: only the word count matters, so runs
// are never expanded.
func (b *BandwidthMeter) ConsumeRuns(cycle int64, runs []Run) {
	b.Add(cycle, RunWords(runs))
}

// Add records n word accesses at the given cycle without materializing
// addresses; producers that already aggregate use this directly.
func (b *BandwidthMeter) Add(cycle, words int64) {
	if words <= 0 {
		return
	}
	b.open(cycle)
	b.record(cycle, cycle, words)
}

// AddSweep records words accesses at each of the times cycles from cycle
// on, exactly as that many Add calls in cycle order would, one window at a
// time.
func (b *BandwidthMeter) AddSweep(cycle, words, times int64) {
	if words <= 0 || times <= 0 {
		return
	}
	for c, end := cycle, cycle+times; c < end; {
		b.open(c)
		last := min(end-1, b.hi)
		b.record(c, last, words*(last-c+1))
		c = last + 1
	}
}

// open makes cycle's window the one being filled, settling the one before.
func (b *BandwidthMeter) open(cycle int64) {
	if cycle >= b.lo && cycle <= b.hi {
		return
	}
	b.settle()
	w := cycle / b.WindowCycles
	b.cur, b.lo, b.hi = w, w*b.WindowCycles, w*b.WindowCycles+b.WindowCycles-1
	// Division truncates toward zero: window 0 also holds the cycles above
	// -WindowCycles, and a negative window ends at its multiple.
	switch {
	case w == 0:
		b.lo = 1 - b.WindowCycles
	case w < 0:
		b.lo, b.hi = b.lo-b.WindowCycles+1, b.lo
	}
}

// record adds words, accessed in cycles first..last, to the open window.
func (b *BandwidthMeter) record(first, last, words int64) {
	b.curWords += words
	b.total += words
	if !b.seen || first < b.first {
		b.first = first
	}
	if !b.seen || last > b.last {
		b.last = last
	}
	b.seen = true
}

// window is one settled window: its index and words.
type window struct{ index, words int64 }

// maxChunk bounds the windows in one chunk of BandwidthMeter.ordered.
const maxChunk = 1 << 16

// settle stores the open window: appended to ordered when it comes after
// every ordered window, else in the map.
func (b *BandwidthMeter) settle() {
	if b.curWords == 0 {
		return
	}
	n := len(b.ordered)
	var last *window
	if n > 0 {
		last = &b.ordered[n-1][len(b.ordered[n-1])-1]
	}
	switch {
	case last == nil || b.cur > last.index:
		if n == 0 || len(b.ordered[n-1]) == cap(b.ordered[n-1]) {
			size := 64
			if n > 0 {
				size = min(2*cap(b.ordered[n-1]), maxChunk)
			}
			b.ordered = append(b.ordered, make([]window, 0, size))
			n++
		}
		b.ordered[n-1] = append(b.ordered[n-1], window{b.cur, b.curWords})
	case b.cur == last.index:
		last.words += b.curWords
	default:
		if b.windows == nil {
			b.windows = make(map[int64]int64)
		}
		b.windows[b.cur] += b.curWords
	}
	b.curWords = 0
}

// TotalWords returns the total accessed word count.
func (b *BandwidthMeter) TotalWords() int64 { return b.total }

// TotalBytes returns the total traffic in bytes.
func (b *BandwidthMeter) TotalBytes() int64 { return b.total * b.WordBytes }

// Bounds returns the first and last active cycle (zeros before any
// traffic).
func (b *BandwidthMeter) Bounds() (first, last int64) { return b.first, b.last }

// Span returns the active cycle span.
func (b *BandwidthMeter) Span() int64 {
	if !b.seen {
		return 0
	}
	return b.last - b.first + 1
}

// AvgBytesPerCycle returns total bytes divided by the active span.
func (b *BandwidthMeter) AvgBytesPerCycle() float64 {
	span := b.Span()
	if span == 0 {
		return 0
	}
	return float64(b.TotalBytes()) / float64(span)
}

// PeakBytesPerCycle returns the highest per-window demand, normalized to
// bytes per cycle.
func (b *BandwidthMeter) PeakBytesPerCycle() float64 {
	b.settle()
	var peak int64
	if len(b.windows) == 0 {
		for _, chunk := range b.ordered {
			for _, w := range chunk {
				peak = max(peak, w.words)
			}
		}
	} else {
		for _, p := range b.Profile() {
			peak = max(peak, p.Words)
		}
	}
	return float64(peak*b.WordBytes) / float64(b.WindowCycles)
}

// ProfilePoint is one window of a bandwidth profile.
type ProfilePoint struct {
	// StartCycle is the window's first cycle.
	StartCycle int64
	// Words is the access volume in the window.
	Words int64
}

// Profile returns the active windows as (start cycle, words) points in
// cycle order — the meter's contents as a plottable series.
func (b *BandwidthMeter) Profile() []ProfilePoint {
	b.settle()
	n := len(b.windows)
	for _, chunk := range b.ordered {
		n += len(chunk)
	}
	out := make([]ProfilePoint, 0, n)
	for _, chunk := range b.ordered {
		for _, w := range chunk {
			out = append(out, ProfilePoint{StartCycle: w.index * b.WindowCycles, Words: w.words})
		}
	}
	if len(b.windows) == 0 {
		return out
	}
	for w, words := range b.windows {
		out = append(out, ProfilePoint{StartCycle: w * b.WindowCycles, Words: words})
	}
	slices.SortFunc(out, func(x, y ProfilePoint) int { return cmp.Compare(x.StartCycle, y.StartCycle) })
	// A window in both stores is one point.
	merged := out[:1]
	for _, p := range out[1:] {
		if last := &merged[len(merged)-1]; p.StartCycle == last.StartCycle {
			last.Words += p.Words
		} else {
			merged = append(merged, p)
		}
	}
	return merged
}
