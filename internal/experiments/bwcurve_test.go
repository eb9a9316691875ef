package experiments

import (
	"testing"

	"scalesim/internal/config"
)

func TestBandwidthCurveShape(t *testing.T) {
	l := CB2a3()
	cfg := config.New().WithArray(32, 32).WithSRAM(64, 64, 32)
	bws := []float64{0.5, 1, 2, 4, 8, 16, 64}
	points, err := BandwidthCurve(l, cfg, bws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(bws) {
		t.Fatalf("points = %d", len(points))
	}
	// Slowdown is monotone non-increasing in bandwidth and reaches 1.
	for i := 1; i < len(points); i++ {
		if points[i].Slowdown > points[i-1].Slowdown+1e-12 {
			t.Errorf("slowdown rose with bandwidth: %v -> %v",
				points[i-1].Slowdown, points[i].Slowdown)
		}
	}
	// A generous link is effectively stall-free; a residual handful of
	// cycles from cold/flush bursts is fine.
	if last := points[len(points)-1]; last.Slowdown > 1.01 {
		t.Errorf("generous link still memory-bound: %+v", last)
	}
	if first := points[0]; first.StallCycles <= 0 {
		t.Errorf("starved link does not stall: %+v", first)
	}
	// Stall-free cycles are bandwidth-independent.
	for _, p := range points {
		if p.StallFreeCycles != points[0].StallFreeCycles {
			t.Errorf("stall-free runtime varied with bandwidth")
			break
		}
	}
}

func TestBandwidthCurveErrors(t *testing.T) {
	l := CB2a3()
	cfg := config.New()
	if _, err := BandwidthCurve(l, cfg, nil, nil); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := BandwidthCurve(l, cfg, []float64{0}, nil); err == nil {
		t.Error("zero bandwidth accepted")
	}
	bad := l
	bad.Stride = 0
	if _, err := BandwidthCurve(bad, cfg, []float64{1}, nil); err == nil {
		t.Error("invalid layer accepted")
	}
}
