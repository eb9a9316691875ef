package timeline

import (
	"math"

	"scalesim/internal/trace"
)

// Sampler aggregates one trace stream into per-window word counts for a
// counter track: a trace.BandwidthMeter counting words (one byte per word),
// so it is a run-native consumer and the hot path stays O(segments)
// regardless of how many addresses a cycle touches.
type Sampler struct{ *trace.BandwidthMeter }

// NewSampler builds a sampler with the given window in cycles (<= 0
// defaults to 1).
func NewSampler(window int64) *Sampler {
	return &Sampler{trace.NewBandwidthMeter(window, 1)}
}

// Active reports whether any traffic was recorded.
func (s Sampler) Active() bool { return s.TotalWords() > 0 }

// Total returns the recorded word count.
func (s Sampler) Total() int64 { return s.TotalWords() }

// Emit writes the profile as counter samples on the given track: one
// sample per change in windowed demand (words per cycle, step-rendered by
// viewers) plus a closing zero, each shifted by offset cycles. A gap
// between active windows is a window of zero demand.
func (s Sampler) Emit(w *Writer, pid int64, track string, offset int64) {
	prev, next := math.Inf(-1), int64(0)
	for _, p := range s.Profile() {
		if p.StartCycle != next && prev > 0 {
			w.Counter(pid, track, offset+next, 0)
			prev = 0
		}
		if v := float64(p.Words) / float64(s.WindowCycles); v != prev {
			w.Counter(pid, track, offset+p.StartCycle, v)
			prev = v
		}
		next = p.StartCycle + s.WindowCycles
	}
	if prev > 0 {
		w.Counter(pid, track, offset+next, 0)
	}
}
