package trace

import "sort"

// BandwidthMeter aggregates a trace into a bandwidth profile: the access
// volume per fixed-size cycle window, from which average and peak demand
// bandwidths are derived. The paper reports interface bandwidth in
// words (or bytes) per cycle of stall-free operation.
type BandwidthMeter struct {
	// WindowCycles is the aggregation granularity.
	WindowCycles int64
	// WordBytes scales word counts into bytes.
	WordBytes int64

	windows map[int64]int64 // window index -> words
	// cur and curWords hold the window being filled; settle folds them
	// into windows when the window changes or a reader needs the map.
	cur, curWords int64
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
		windows:      make(map[int64]int64),
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
	if w := cycle / b.WindowCycles; w != b.cur {
		b.settle()
		b.cur = w
	}
	b.curWords += words
	b.total += words
	if !b.seen || cycle < b.first {
		b.first = cycle
	}
	if !b.seen || cycle > b.last {
		b.last = cycle
	}
	b.seen = true
}

// settle folds the open window into the map.
func (b *BandwidthMeter) settle() {
	if b.curWords > 0 {
		b.windows[b.cur] += b.curWords
		b.curWords = 0
	}
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
	for _, w := range b.windows {
		if w > peak {
			peak = w
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
	out := make([]ProfilePoint, 0, len(b.windows))
	for w, words := range b.windows {
		out = append(out, ProfilePoint{StartCycle: w * b.WindowCycles, Words: words})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartCycle < out[j].StartCycle })
	return out
}
