package experiments

import (
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/topology"
)

func TestDataflowStudyResNet(t *testing.T) {
	cfg := config.New().WithArray(32, 32)
	res, err := DataflowStudy(topology.ResNet50(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Choices) != 54 {
		t.Fatalf("choices = %d", len(res.Choices))
	}
	// Adaptive can never lose to any fixed dataflow.
	for _, df := range config.Dataflows {
		if res.AdaptiveCycles > res.FixedCycles[df] {
			t.Errorf("adaptive %d slower than fixed %v %d",
				res.AdaptiveCycles, df, res.FixedCycles[df])
		}
	}
	// Per-layer choice sums must reproduce the adaptive total.
	var sum int64
	for _, c := range res.Choices {
		sum += c.Cycles[c.Best]
		for _, df := range config.Dataflows {
			if c.Cycles[c.Best] > c.Cycles[df] {
				t.Fatalf("%s: best %v not minimal", c.Layer, c.Best)
			}
		}
	}
	if sum != res.AdaptiveCycles {
		t.Errorf("adaptive sum %d != %d", sum, res.AdaptiveCycles)
	}
	// ResNet50 mixes shapes enough that at least two dataflows win
	// somewhere — the study is non-degenerate.
	seen := map[config.Dataflow]bool{}
	for _, c := range res.Choices {
		seen[c.Best] = true
	}
	if len(seen) < 2 {
		t.Errorf("only %d dataflows ever win; expected a mix", len(seen))
	}
}

func TestDataflowStudyValidates(t *testing.T) {
	if _, err := DataflowStudy(topology.Topology{Name: "e"}, config.New()); err == nil {
		t.Error("empty topology accepted")
	}
	bad := topology.Topology{Name: "b", Layers: []topology.Layer{{Name: "x"}}}
	if _, err := DataflowStudy(bad, config.New()); err == nil {
		t.Error("invalid layer accepted")
	}
}
