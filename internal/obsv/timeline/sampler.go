package timeline

import (
	"math"

	"scalesim/internal/trace"
)

// Sampler aggregates one trace stream into per-window word counts for a
// counter track. It is a run-native trace consumer: run batches contribute
// via trace.RunWords, so the hot path stays O(segments) regardless of how
// many addresses a cycle touches.
type Sampler struct {
	window int64
	base   int64 // window index of counts[0]
	counts []int64
	total  int64
	first  int64
	last   int64
	seen   bool
}

// NewSampler builds a sampler with the given window in cycles (<= 0
// defaults to 1).
func NewSampler(window int64) *Sampler {
	if window <= 0 {
		window = 1
	}
	return &Sampler{window: window}
}

// Consume implements trace.Consumer.
func (s *Sampler) Consume(cycle int64, addrs []int64) {
	s.Add(cycle, int64(len(addrs)))
}

// ConsumeRuns implements trace.RunConsumer without expanding the runs.
func (s *Sampler) ConsumeRuns(cycle int64, runs []trace.Run) {
	s.Add(cycle, trace.RunWords(runs))
}

// Add records words of traffic at the given cycle.
func (s *Sampler) Add(cycle, words int64) {
	if words <= 0 {
		return
	}
	w := cycle / s.window
	if !s.seen {
		s.seen = true
		s.base = w
		s.first, s.last = cycle, cycle
	}
	if cycle < s.first {
		s.first = cycle
	}
	if cycle > s.last {
		s.last = cycle
	}
	idx := w - s.base
	if idx < 0 {
		// A cycle before the first window seen; streams are nearly
		// ordered, so this stays rare. Grow at the front.
		grown := make([]int64, int64(len(s.counts))-idx)
		copy(grown[-idx:], s.counts)
		s.counts = grown
		s.base = w
		idx = 0
	}
	if n := idx + 1 - int64(len(s.counts)); n > 0 {
		s.counts = append(s.counts, make([]int64, n)...)
	}
	s.counts[idx] += words
	s.total += words
}

// Active reports whether any traffic was recorded.
func (s *Sampler) Active() bool { return s.seen }

// Total returns the recorded word count.
func (s *Sampler) Total() int64 { return s.total }

// Bounds returns the first and last active cycle.
func (s *Sampler) Bounds() (first, last int64) { return s.first, s.last }

// Peak returns the highest windowed demand in words per cycle.
func (s *Sampler) Peak() float64 {
	var peak int64
	for _, c := range s.counts {
		if c > peak {
			peak = c
		}
	}
	return float64(peak) / float64(s.window)
}

// Emit writes the profile as counter samples on the given track: one
// sample per change in windowed demand (words per cycle, step-rendered by
// viewers) plus a closing zero, each shifted by offset cycles.
func (s *Sampler) Emit(w *Writer, pid int64, track string, offset int64) {
	if !s.seen {
		return
	}
	prev := math.Inf(-1)
	for i, c := range s.counts {
		v := float64(c) / float64(s.window)
		if v == prev {
			continue
		}
		w.Counter(pid, track, offset+(s.base+int64(i))*s.window, v)
		prev = v
	}
	if prev != 0 {
		w.Counter(pid, track, offset+(s.base+int64(len(s.counts)))*s.window, 0)
	}
}
