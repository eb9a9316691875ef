package trace

import "math"

// StallAnalyzer converts a DRAM demand trace into compute stalls under a
// bounded memory link. The simulator's traces are stall-free *demand*
// schedules: an access at cycle c must have been delivered by cycle c for
// the array not to stall. With a link that moves WordsPerCycle words, the
// earliest the first n words can be delivered is n/WordsPerCycle cycles, so
// whenever cumulative demand runs ahead of the link, the difference is time
// the compute must stall.
//
// The analyzer tracks max over events of (cumWords/WordsPerCycle - cycle);
// that maximum is the total stall the layer suffers. Feeding both the read
// and write traces into one analyzer models a shared bidirectional link.
// Events from the two streams may interleave slightly out of cycle order;
// since cumulative demand is order-insensitive and the lag bound is taken
// per event, the result is exact for ordered streams and a tight upper
// bound otherwise.
// With RecordIntervals enabled, the analyzer additionally localizes the
// stalls: each increase of the running maximum lag is attributed to the
// cycle that caused it, and increases closer than the merge window apart
// coalesce into one StallInterval. The intervals' total duration equals
// StallCycles up to rounding; their placement is an attribution
// heuristic, not additional model state. This is the single stall
// implementation, and a layer has one instance of it — the timeline's
// layer recorder is handed the analyzer the results come from — so the
// registry's stall fractions and the timeline's stall tracks can never
// diverge.
type StallAnalyzer struct {
	// WordsPerCycle is the link bandwidth.
	WordsPerCycle float64

	cumWords int64
	maxLag   float64

	// Interval recording state; window == 0 disables it.
	window    int64
	carry     float64
	intervals []StallInterval
}

// StallInterval is one localized stall span on the cycle axis.
type StallInterval struct {
	// Start is the cycle whose demand pushed the link behind.
	Start int64
	// Dur is the stall cycles attributed to the interval.
	Dur int64
}

// NewStallAnalyzer builds an analyzer for the given link bandwidth; a
// non-positive bandwidth panics (an unbounded link needs no analyzer).
func NewStallAnalyzer(wordsPerCycle float64) *StallAnalyzer {
	if wordsPerCycle <= 0 {
		panic("trace: stall analyzer needs positive bandwidth")
	}
	return &StallAnalyzer{WordsPerCycle: wordsPerCycle}
}

// Consume implements Consumer.
func (s *StallAnalyzer) Consume(cycle int64, addrs []int64) { ConsumeAddrs(s, cycle, addrs) }

// ConsumeRuns implements RunConsumer: cumulative demand needs only the
// word count, so runs are never expanded.
func (s *StallAnalyzer) ConsumeRuns(cycle int64, runs []Run) {
	s.Add(cycle, RunWords(runs))
}

// ConsumeSweep takes a sweep's Times equal calls by arithmetic: the lag is
// linear in the call index with slope w/BW - 1 for w words a call, so when
// the computed lags are monotone, their maximum is at one end and the two
// end calls settle maxLag. They are when the bandwidth is a power of two
// and every operand is below 2^53: a word count over such a bandwidth is
// exact, only the difference rounds, and rounding is monotone. Any other
// bandwidth, or interval recording (which attributes every increase to its
// call), adds the calls one by one.
func (s *StallAnalyzer) ConsumeSweep(sw Sweep) {
	w := RunWords(sw.Runs)
	if w <= 0 {
		return
	}
	last := s.cumWords + sw.Times*w
	end := math.Max(float64(last)/s.WordsPerCycle, float64(sw.Cycle+sw.Times))
	frac, _ := math.Frexp(s.WordsPerCycle)
	if exact := frac == 0.5 && end < 1<<53 && last < 1<<53; sw.Times > 1 && s.window == 0 && exact {
		lo := float64(s.cumWords+w)/s.WordsPerCycle - float64(sw.Cycle+1)
		hi := float64(last)/s.WordsPerCycle - float64(sw.Cycle+sw.Times)
		s.cumWords = last
		s.maxLag = max(s.maxLag, lo, hi)
		return
	}
	for j := int64(0); j < sw.Times; j++ {
		s.Add(sw.Cycle+j, w)
	}
}

// RecordIntervals enables stall localization with the given merge window
// in cycles (<= 0 defaults to 1). Call before feeding events.
func (s *StallAnalyzer) RecordIntervals(window int64) {
	if window <= 0 {
		window = 1
	}
	s.window = window
}

// Intervals returns the localized stall spans recorded so far (nil
// unless RecordIntervals was enabled).
func (s *StallAnalyzer) Intervals() []StallInterval { return s.intervals }

// Add records words of demand at the given cycle.
func (s *StallAnalyzer) Add(cycle, words int64) {
	if words <= 0 {
		return
	}
	s.cumWords += words
	// Delivery of the first cumWords words finishes at cumWords/BW; the
	// demand wanted them by the end of `cycle` (i.e. cycle+1 cycle
	// boundaries have passed).
	lag := float64(s.cumWords)/s.WordsPerCycle - float64(cycle+1)
	if lag <= s.maxLag {
		return
	}
	if s.window > 0 {
		s.carry += lag - s.maxLag
	}
	s.maxLag = lag
	if s.window == 0 {
		return
	}
	// Attribute whole stalled cycles to this event, merging with the
	// previous interval when it ends within one window of this cycle.
	d := int64(s.carry)
	if d <= 0 {
		return
	}
	s.carry -= float64(d)
	if n := len(s.intervals); n > 0 &&
		cycle <= s.intervals[n-1].Start+s.intervals[n-1].Dur+s.window {
		s.intervals[n-1].Dur += d
		return
	}
	s.intervals = append(s.intervals, StallInterval{Start: cycle, Dur: d})
}

// StallCycles returns the extra cycles the bounded link inflicts.
func (s *StallAnalyzer) StallCycles() int64 {
	if s.maxLag <= 0 {
		return 0
	}
	return int64(math.Ceil(s.maxLag))
}
