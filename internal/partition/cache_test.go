package partition

import (
	"encoding/json"
	"testing"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/simcache"
	"scalesim/internal/topology"
)

// TestCacheEquivalenceScaleOut pins byte-identical scale-out results for
// cache-off, cache-on (cold) and cache-on (warm) runs, and that repeats
// replay every partition window.
func TestCacheEquivalenceScaleOut(t *testing.T) {
	l := topology.Layer{Name: "conv", IfmapH: 28, IfmapW: 28, FilterH: 3, FilterW: 3,
		Channels: 16, NumFilters: 32, Stride: 1}
	base := config.New().WithSRAM(64, 64, 32)
	spec := Spec{Parts: analytical.Partitioning{Pr: 2, Pc: 2}, Shape: analytical.Shape{R: 8, C: 8}}

	marshal := func(r Result) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	ref, err := Run(l, base, spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	cache := simcache.New()
	cold, err := Run(l, base, spec, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if marshal(cold) != marshal(ref) {
		t.Fatal("cold cached scale-out run differs from uncached run")
	}
	if cache.Stats().Misses != cold.ActivePartitions {
		t.Fatalf("misses=%d want one per active partition (%d)", cache.Stats().Misses, cold.ActivePartitions)
	}

	warm, err := Run(l, base, spec, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if marshal(warm) != marshal(ref) {
		t.Fatal("warm cached scale-out run differs from uncached run")
	}
	if cache.Stats().Hits != warm.ActivePartitions {
		t.Fatalf("hits=%d want one per active partition (%d)", cache.Stats().Hits, warm.ActivePartitions)
	}
}

// TestWindowKeyIncludesOffsets: two windows of equal size at different
// origins must never share an entry — their fold schedules differ.
func TestWindowKeyIncludesOffsets(t *testing.T) {
	l := topology.Layer{Name: "conv", IfmapH: 14, IfmapW: 14, FilterH: 3, FilterW: 3,
		Channels: 8, NumFilters: 16, Stride: 1}
	base := config.New().WithSRAM(32, 32, 16)
	cache := simcache.New()

	// A 1x2 grid splits Sc into two equal windows at different offsets.
	spec := Spec{Parts: analytical.Partitioning{Pr: 1, Pc: 2}, Shape: analytical.Shape{R: 8, C: 8}}
	res, err := Run(l, base, spec, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res.ActivePartitions != 2 {
		t.Fatalf("want 2 active partitions, got %d", res.ActivePartitions)
	}
	if cache.Stats().Hits != 0 {
		t.Fatalf("equal-sized windows at different offsets collided: hits=%d", cache.Stats().Hits)
	}
	if cache.Len() != 2 {
		t.Fatalf("want 2 distinct entries, got %d", cache.Len())
	}
}

// TestPartitionSweepReuse: sweeping partition counts with a shared cache
// must replay windows revisited across sweep points and stay
// byte-identical to the uncached sweep.
func TestPartitionSweepReuse(t *testing.T) {
	series := []Series{{Name: "gemm", Layer: topology.FromGEMM("gemm", 64, 128, 64), MACs: 256, Parts: []int64{1, 2, 4}}}
	base := config.New().WithSRAM(128, 128, 64)

	ref, err := Sweep(series, base, 8, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache := simcache.New()
	once, err := Sweep(series, base, 8, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	again, err := Sweep(series, base, 8, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(ref)
	onceJSON, _ := json.Marshal(once)
	againJSON, _ := json.Marshal(again)
	if string(onceJSON) != string(refJSON) || string(againJSON) != string(refJSON) {
		t.Fatal("cached sweep differs from uncached sweep")
	}
	if cache.Stats().Hits == 0 {
		t.Fatal("repeated sweep produced no cache hits")
	}
}
