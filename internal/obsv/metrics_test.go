package obsv

import (
	"math/rand"
	"sync"
	"testing"
)

// TestHistogramQuantilesKnown checks nearest-rank quantiles against
// distributions whose answers are known exactly.
func TestHistogramQuantilesKnown(t *testing.T) {
	t.Run("1..100 shuffled", func(t *testing.T) {
		var h Histogram
		rng := rand.New(rand.NewSource(1))
		for _, v := range rng.Perm(100) {
			h.Observe(float64(v + 1))
		}
		snap := h.Snapshot()
		if snap.Count != 100 || snap.Sum != 5050 || snap.Min != 1 || snap.Max != 100 {
			t.Fatalf("snapshot = %+v", snap)
		}
		for _, tc := range []struct{ p, want float64 }{
			{0.50, 50}, {0.95, 95}, {0.99, 99}, {1.0, 100}, {0.01, 1},
		} {
			if got := h.Quantile(tc.p); got != tc.want {
				t.Errorf("Quantile(%v) = %v, want %v", tc.p, got, tc.want)
			}
		}
		if snap.P50 != 50 || snap.P95 != 95 || snap.P99 != 99 {
			t.Errorf("snapshot quantiles = %v/%v/%v, want 50/95/99", snap.P50, snap.P95, snap.P99)
		}
	})

	t.Run("single sample", func(t *testing.T) {
		var h Histogram
		h.Observe(7.5)
		snap := h.Snapshot()
		if snap.Count != 1 || snap.Min != 7.5 || snap.Max != 7.5 ||
			snap.P50 != 7.5 || snap.P95 != 7.5 || snap.P99 != 7.5 {
			t.Errorf("snapshot = %+v", snap)
		}
	})

	t.Run("bimodal", func(t *testing.T) {
		// 90 samples at 1, 10 at 100: p50 and pre-tail quantiles sit on the
		// low mode, p95 and above on the high one.
		var h Histogram
		for i := 0; i < 90; i++ {
			h.Observe(1)
		}
		for i := 0; i < 10; i++ {
			h.Observe(100)
		}
		snap := h.Snapshot()
		if snap.P50 != 1 || snap.P95 != 100 || snap.P99 != 100 {
			t.Errorf("bimodal quantiles = %v/%v/%v, want 1/100/100", snap.P50, snap.P95, snap.P99)
		}
	})

	t.Run("empty", func(t *testing.T) {
		var h Histogram
		if snap := h.Snapshot(); snap != (HistogramSnapshot{}) {
			t.Errorf("empty snapshot = %+v", snap)
		}
		if q := h.Quantile(0.5); q != 0 {
			t.Errorf("empty quantile = %v", q)
		}
	})
}

// TestCounterConcurrent hammers one counter, one gauge and one histogram
// from many goroutines; run under -race this doubles as the data-race
// check.
func TestCounterConcurrent(t *testing.T) {
	var reg Registry
	const goroutines, increments = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				reg.Counter("jobs").Inc()
				reg.Gauge("last").Set(int64(g))
				reg.Histogram("lat").Observe(float64(i))
			}
		}(g)
	}
	wg.Wait()
	if got := reg.Counter("jobs").Value(); got != goroutines*increments {
		t.Errorf("counter = %d, want %d", got, goroutines*increments)
	}
	if got := reg.Gauge("last").Value(); got < 0 || got >= goroutines {
		t.Errorf("gauge = %d, want one goroutine's index", got)
	}
	if got := reg.Histogram("lat").Snapshot().Count; got != goroutines*increments {
		t.Errorf("histogram count = %d, want %d", got, goroutines*increments)
	}
}

// TestNilSafety: the disabled state is a nil pointer everywhere, and
// every operation on it must be a silent no-op.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Add(1)
	reg.Gauge("x").Set(1)
	reg.Histogram("x").Observe(1)
	if !reg.Snapshot().Empty() {
		t.Error("nil registry snapshot not empty")
	}

	var rec *Recorder
	if rec.Enabled() {
		t.Error("nil recorder enabled")
	}
	rec.Phase("p")()
	rec.Time("t")()
	rec.ObserveLayer(0, 0)
	rec.Metrics().Counter("x").Inc()
	if rec.SpanSink() != nil {
		t.Error("nil recorder span sink not nil")
	}
	if rec.LayerSeconds(0) != 0 || rec.Spans() != nil {
		t.Error("nil recorder leaked data")
	}
	if err := rec.Manifest().Validate(); err != nil {
		t.Errorf("nil recorder manifest invalid: %v", err)
	}

	var prog *Progress
	prog.Start(3)
	prog.Step("a")
	prog.Finish()

	var sr *SpanRecorder
	sr.Emit(Span{})
	if sr.Spans() != nil || sr.Stats().Jobs != 0 {
		t.Error("nil span recorder leaked data")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	var reg Registry
	reg.Counter("a").Add(3)
	reg.Gauge("b").Set(9)
	reg.Histogram("c").Observe(2.5)
	snap := reg.Snapshot()
	if snap.Counters["a"] != 3 || snap.Gauges["b"] != 9 || snap.Histograms["c"].Count != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	// Same-name accessors return the same instance.
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("counter identity not stable")
	}
}
