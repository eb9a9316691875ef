package trace

import (
	"math/rand"
	"testing"
)

func TestStallAnalyzerNoStallUnderFastLink(t *testing.T) {
	s := NewStallAnalyzer(10)
	for c := int64(0); c < 100; c++ {
		s.Add(c, 5) // demand 5 words/cycle against a 10 words/cycle link
	}
	if got := s.StallCycles(); got != 0 {
		t.Errorf("StallCycles = %d, want 0", got)
	}
	if s.cumWords != 500 {
		t.Errorf("cumulative demand = %d", s.cumWords)
	}
}

func TestStallAnalyzerHalfLink(t *testing.T) {
	// Demand 2 words/cycle against a 1 word/cycle link for 100 cycles:
	// 200 words take 200 cycles; the last demand is at cycle 99 (needs
	// delivery by 100), so the stall is 100 cycles.
	s := NewStallAnalyzer(1)
	for c := int64(0); c < 100; c++ {
		s.Add(c, 2)
	}
	if got := s.StallCycles(); got != 100 {
		t.Errorf("StallCycles = %d, want 100", got)
	}
}

func TestStallAnalyzerBurst(t *testing.T) {
	// A cold burst at cycle 0 dominates: 64 words at cycle 0 on a 1
	// word/cycle link stall 63 cycles even if nothing follows.
	s := NewStallAnalyzer(1)
	s.Add(0, 64)
	if got := s.StallCycles(); got != 63 {
		t.Errorf("StallCycles = %d, want 63", got)
	}
	// Later sparse demand does not add stalls.
	s.Add(1000, 1)
	if got := s.StallCycles(); got != 63 {
		t.Errorf("StallCycles after sparse tail = %d, want 63", got)
	}
}

func TestStallAnalyzerConsumeAndEdgeCases(t *testing.T) {
	s := NewStallAnalyzer(2)
	s.Consume(0, []int64{1, 2, 3, 4})
	s.Consume(1, nil)
	s.Add(2, 0)
	s.Add(2, -5)
	if s.cumWords != 4 {
		t.Errorf("cumulative demand = %d", s.cumWords)
	}
	if got := s.StallCycles(); got != 1 {
		t.Errorf("StallCycles = %d, want 1 (4 words @2/cyc need 2 cycles, demanded by 1)", got)
	}
	assertPanic(t, func() { NewStallAnalyzer(0) })
}

func assertPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// TestStallAnalyzerMonotoneInBandwidth: more bandwidth never means more
// stalls.
func TestStallAnalyzerMonotoneInBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	events := make([][2]int64, 200)
	cycle := int64(0)
	for i := range events {
		cycle += rng.Int63n(4)
		events[i] = [2]int64{cycle, 1 + rng.Int63n(20)}
	}
	prev := int64(1 << 62)
	for _, bw := range []float64{0.5, 1, 2, 4, 8} {
		s := NewStallAnalyzer(bw)
		for _, e := range events {
			s.Add(e[0], e[1])
		}
		if s.StallCycles() > prev {
			t.Fatalf("stalls rose with bandwidth %v: %d > %d", bw, s.StallCycles(), prev)
		}
		prev = s.StallCycles()
	}
}
