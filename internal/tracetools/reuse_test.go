package tracetools

import (
	"math/rand"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

// lruRef is a brute-force LRU cache for cross-checking.
type lruRef struct {
	capacity int
	order    []int64 // most recent last
	misses   int64
}

func (l *lruRef) touch(addr int64) {
	for i, a := range l.order {
		if a == addr {
			l.order = append(append(append([]int64{}, l.order[:i]...), l.order[i+1:]...), addr)
			return
		}
	}
	l.misses++
	l.order = append(l.order, addr)
	if len(l.order) > l.capacity {
		l.order = l.order[1:]
	}
}

func TestKnownDistances(t *testing.T) {
	p := NewReuseProfiler()
	for _, a := range []int64{1, 2, 3, 1, 2, 1} {
		p.Touch(a)
	}
	// 1,2,3 cold; 1 at distance 3; 2 at distance 3 (3,1 then 2 itself);
	// 1 at distance 2.
	if p.Distinct() != 3 || p.Total() != 6 {
		t.Fatalf("distinct/total = %d/%d", p.Distinct(), p.Total())
	}
	if p.hist[3] != 2 || p.hist[2] != 1 {
		t.Errorf("histogram = %v", p.hist)
	}
	// LRU of 3 words: only cold misses. LRU of 2: the distance-3 accesses
	// miss.
	if got := p.MissesAt(3); got != 3 {
		t.Errorf("MissesAt(3) = %d, want 3", got)
	}
	if got := p.MissesAt(2); got != 5 {
		t.Errorf("MissesAt(2) = %d, want 5", got)
	}
}

// TestAgainstBruteForceLRU is the defining property: MissesAt(c) equals a
// real LRU cache of capacity c run over the same stream.
func TestAgainstBruteForceLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		stream := make([]int64, 3000)
		span := int64(20 + rng.Intn(80))
		for i := range stream {
			// Mixture of looping and random accesses for varied distances.
			if rng.Intn(2) == 0 {
				stream[i] = int64(i) % span
			} else {
				stream[i] = rng.Int63n(span * 2)
			}
		}
		p := NewReuseProfiler()
		for _, a := range stream {
			p.Touch(a)
		}
		for _, capacity := range []int{1, 2, 5, 17, 50, 200} {
			ref := &lruRef{capacity: capacity}
			for _, a := range stream {
				ref.touch(a)
			}
			if got := p.MissesAt(int64(capacity)); got != ref.misses {
				t.Fatalf("trial %d capacity %d: profiler %d, brute force %d",
					trial, capacity, got, ref.misses)
			}
		}
	}
}

// TestCompaction forces several tree compactions and re-verifies.
func TestCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	p := NewReuseProfiler()
	ref := &lruRef{capacity: 8}
	for i := 0; i < 50_000; i++ { // far beyond the initial 1024-slot tree
		a := rng.Int63n(40)
		p.Touch(a)
		ref.touch(a)
	}
	if got := p.MissesAt(8); got != ref.misses {
		t.Fatalf("after compaction: profiler %d, brute force %d", got, ref.misses)
	}
}

func TestMissRatioCurveMonotone(t *testing.T) {
	l := topology.TinyNet().Layers[1]
	cfg := config.New().WithArray(8, 8)
	p := NewReuseProfiler()
	if _, err := systolic.Run(l, cfg, systolic.Sinks{IfmapRead: p}); err != nil {
		t.Fatal(err)
	}
	caps := []int64{1, 4, 16, 64, 256, 1024, 4096}
	curve := p.MissRatioCurve(caps)
	if len(curve) != len(caps) {
		t.Fatalf("curve has %d points", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Misses > curve[i-1].Misses {
			t.Errorf("MRC not monotone at %d words", curve[i].CapacityWords)
		}
	}
	// Infinite capacity floor: misses converge to distinct addresses.
	if last := curve[len(curve)-1]; last.Misses != p.Distinct() {
		t.Errorf("misses at 4096 words = %d, want cold floor %d", last.Misses, p.Distinct())
	}
	if curve[0].Ratio <= 0 || curve[0].Ratio > 1 {
		t.Errorf("ratio = %v", curve[0].Ratio)
	}
}

func TestConsumeInterface(t *testing.T) {
	p := NewReuseProfiler()
	p.Consume(0, []int64{1, 2, 1})
	if p.Total() != 3 || p.Distinct() != 2 {
		t.Errorf("total/distinct = %d/%d", p.Total(), p.Distinct())
	}
}

func TestEmptyProfiler(t *testing.T) {
	p := NewReuseProfiler()
	if p.MissesAt(10) != 0 {
		t.Error("empty profiler misses != 0")
	}
	pts := p.MissRatioCurve([]int64{1})
	if pts[0].Ratio != 0 {
		t.Error("empty ratio != 0")
	}
}
