package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/timeline"
	"scalesim/internal/simcache"
	"scalesim/internal/topology"
)

// runWith simulates topo under cfg/opt and returns the result.
func runWith(t *testing.T, cfg config.Config, opt Options, topo topology.Topology) RunResult {
	t.Helper()
	sim, err := New(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Simulate(topo)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resultJSON flattens a run result for byte-level comparison. Everything
// a report can print derives from this serialization, so equal bytes here
// pin the satellite's "byte-identical reports" requirement at the source.
func resultJSON(t *testing.T, res RunResult) []byte {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCacheEquivalenceResNet50 runs ResNet50 cache-off, cache-on (cold),
// and cache-on again (warm, same cache) and requires byte-identical
// results each time, at workers 1, 2 and 4. ResNet50 repeats conv shapes
// across blocks; the run plan shares those inside the run, so the cache
// sees each distinct key once per run whatever the worker count.
func TestCacheEquivalenceResNet50(t *testing.T) {
	cfg := config.New().WithArray(16, 16)
	topo := topology.ResNet50()
	base := resultJSON(t, runWith(t, cfg, Options{}, topo))
	for _, workers := range []int{1, 2, 4} {
		requireCacheContract(t, cfg, workers, topo, base)
	}
}

// TestPlanCacheAccounting: a run looks each distinct key up once and
// stores each key it computed once, whatever the worker count.
func TestPlanCacheAccounting(t *testing.T) {
	topo := miniResNet50()
	cfg := config.New().WithArray(8, 8).WithSRAM(1, 1, 1)
	base := resultJSON(t, runWith(t, cfg, Options{}, topo))
	for _, workers := range []int{1, 2, 4} {
		requireCacheContract(t, cfg, workers, topo, base)
	}
}

// requireCacheContract runs topo cold and warm against one fresh cache.
// Cold: lookups = misses = entries = distinct keys, no hits. Warm: every
// distinct key hits once. Both equal the uncached run byte for byte.
func requireCacheContract(t *testing.T, cfg config.Config, workers int, topo topology.Topology, base []byte) {
	t.Helper()
	distinct := map[string]bool{}
	for _, l := range topo.Layers {
		distinct[l.Key()] = true
	}
	n := int64(len(distinct))
	cache := simcache.New()
	opt := Options{Cache: cache, Workers: workers}
	if got := resultJSON(t, runWith(t, cfg, opt, topo)); !bytes.Equal(base, got) {
		t.Fatalf("workers=%d: cold cached run differs from uncached run", workers)
	}
	if cache.Stats().Hits != 0 || cache.Stats().Misses != n || int64(cache.Len()) != n {
		t.Fatalf("workers=%d cold: hits=%d misses=%d entries=%d, want 0, %d, %d",
			workers, cache.Stats().Hits, cache.Stats().Misses, cache.Len(), n, n)
	}
	if got := resultJSON(t, runWith(t, cfg, opt, topo)); !bytes.Equal(base, got) {
		t.Fatalf("workers=%d: warm cached run differs from uncached run", workers)
	}
	if cache.Stats().Hits != n || cache.Stats().Misses != n {
		t.Fatalf("workers=%d warm: hits=%d misses=%d, want %d and %d", workers, cache.Stats().Hits, cache.Stats().Misses, n, n)
	}
}

// TestCacheEquivalenceBoundedDRAM covers the analyzed extras: stall
// cycles under a bounded link and DRAM timing statistics must replay from
// the cache exactly.
func TestCacheEquivalenceBoundedDRAM(t *testing.T) {
	cfg := config.New().WithArray(8, 8).WithSRAM(16, 16, 8)
	topo := topology.TinyNet()
	d := dram.DDR3()
	opt := Options{DRAMBandwidth: 1.5, DRAM: &d}

	base := runWith(t, cfg, opt, topo)

	cache := simcache.New()
	copt := opt
	copt.Cache = cache
	cold := runWith(t, cfg, copt, topo)
	warm := runWith(t, cfg, copt, topo)
	if cache.Stats().Hits == 0 {
		t.Fatal("warm run produced no hits")
	}
	for i := range base.Layers {
		if base.Layers[i].StallCycles == 0 {
			t.Fatalf("layer %d: test is vacuous, no stalls under bounded link", i)
		}
	}
	if !bytes.Equal(resultJSON(t, base), resultJSON(t, cold)) {
		t.Fatal("cold cached run differs")
	}
	if !bytes.Equal(resultJSON(t, base), resultJSON(t, warm)) {
		t.Fatal("warm cached run differs")
	}
	if warm.Layers[0].DRAMStats == nil || warm.Layers[0].DRAMStats.Requests == 0 {
		t.Fatal("DRAM stats not replayed from cache")
	}
}

// TestCacheKeyCollisions pins that near-identical layers and near-identical
// configurations never share entries: a stride change, a dataflow change
// and a bandwidth-bound change must each simulate fresh.
func TestCacheKeyCollisions(t *testing.T) {
	cache := simcache.New()
	cfg := config.New().WithArray(8, 8)
	base := topology.Layer{Name: "a", IfmapH: 14, IfmapW: 14, FilterH: 3, FilterW: 3,
		Channels: 8, NumFilters: 8, Stride: 1}
	strided := base
	strided.Name = "b"
	strided.Stride = 2

	sim, err := New(cfg, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := sim.SimulateLayer(base)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sim.SimulateLayer(strided)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Hits != 0 || cache.Stats().Misses != 2 {
		t.Fatalf("stride variant collided: hits=%d misses=%d", cache.Stats().Hits, cache.Stats().Misses)
	}
	if ra.Compute.Cycles == rb.Compute.Cycles {
		t.Fatal("stride variants simulated identically; collision test is vacuous")
	}

	// Same shapes under a different dataflow: fresh entries again.
	ws, err := New(cfg.WithDataflow(config.WeightStationary), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.SimulateLayer(base); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Hits != 0 {
		t.Fatal("dataflow variant collided")
	}

	// Same shape with a bandwidth bound: must not reuse the unbounded entry.
	bw, err := New(cfg, Options{Cache: cache, DRAMBandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	rbw, err := bw.SimulateLayer(base)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Hits != 0 {
		t.Fatal("bandwidth-bound variant collided")
	}
	if rbw.StallCycles == 0 {
		t.Fatal("bounded run has no stalls; bound-key test is vacuous")
	}

	// And the true repeat does hit.
	if _, err := sim.SimulateLayer(base); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Hits != 1 {
		t.Fatalf("identical repeat missed: hits=%d", cache.Stats().Hits)
	}
}

// TestCacheHitRelabelsLayer: an entry filled under one layer name must
// report the hitting layer's name, not the filler's.
func TestCacheHitRelabelsLayer(t *testing.T) {
	cache := simcache.New()
	sim, err := New(config.New().WithArray(8, 8), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	l := topology.FromGEMM("first", 32, 64, 32)
	if _, err := sim.SimulateLayer(l); err != nil {
		t.Fatal(err)
	}
	twin := l
	twin.Name = "second"
	res, err := sim.SimulateLayer(twin)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Hits != 1 {
		t.Fatalf("twin missed: hits=%d", cache.Stats().Hits)
	}
	if res.Compute.Layer.Name != "second" {
		t.Fatalf("hit kept filler's name %q", res.Compute.Layer.Name)
	}
}

// TestCacheBypassedByLiveSinks: every option that demands a live
// per-layer consumer must disable the cache for the run.
func TestCacheBypassedByLiveSinks(t *testing.T) {
	cache := simcache.New()
	topo := topology.TinyNet()
	cfg := config.New().WithArray(8, 8)

	variants := map[string]Options{
		"tracedir": {Cache: cache, TraceDir: t.TempDir()},
		"timeline": {Cache: cache, Timeline: timeline.New(&bytes.Buffer{}, timeline.Options{})},
	}
	for name, opt := range variants {
		runWith(t, cfg, opt, topo)
		if cache.Stats().Misses != 0 || cache.Len() != 0 {
			t.Fatalf("%s: cache consulted despite live sink", name)
		}
	}
}

// TestCacheStatsInManifest: the run manifest must carry the cache
// counters and the canonical config hash.
func TestCacheStatsInManifest(t *testing.T) {
	cache := simcache.New()
	cfg := config.New().WithArray(8, 8)
	rec := obsv.NewRecorder()
	sim, err := New(cfg, Options{Cache: cache, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.TinyNet()
	res, err := sim.Simulate(topo)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sim.Simulate(topo)
	if err != nil {
		t.Fatal(err)
	}
	_ = res2
	m := mustManifest(t, sim, res)
	if m.Cache == nil {
		t.Fatal("manifest missing cache stats")
	}
	if m.Cache.Hits == 0 || m.Cache.Misses == 0 {
		t.Fatalf("cache stats = %+v, want both hits and misses", m.Cache)
	}
	if m.ConfigHash != cfg.Hash() {
		t.Fatalf("manifest config hash %q", m.ConfigHash)
	}
	reg := rec.Metrics()
	if reg.Counter("core.simcache.hits").Value() == 0 {
		t.Fatal("metrics registry missing simcache hit counter")
	}
	if reg.Counter("core.simcache.misses").Value() == 0 {
		t.Fatal("metrics registry missing simcache miss counter")
	}
}

// TestDiskCacheAcrossSimulators: a disk-backed cache fills in one
// simulator and replays byte-identically in a fresh one sharing only the
// directory.
func TestDiskCacheAcrossSimulators(t *testing.T) {
	dir := t.TempDir()
	cfg := config.New().WithArray(16, 16)
	topo := topology.Topology{Name: "gemms", Layers: []topology.Layer{
		topology.FromGEMM("g0", 64, 128, 96),
		topology.FromGEMM("g1", 32, 256, 64),
		topology.FromGEMM("g0_twin", 64, 128, 96),
	}}

	base := resultJSON(t, runWith(t, cfg, Options{}, topo))

	c1, err := simcache.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultJSON(t, runWith(t, cfg, Options{Cache: c1}, topo)); !bytes.Equal(base, got) {
		t.Fatal("filling run differs")
	}

	c2, err := simcache.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultJSON(t, runWith(t, cfg, Options{Cache: c2}, topo)); !bytes.Equal(base, got) {
		t.Fatal("disk-replayed run differs")
	}
	if c2.Stats().Hits == 0 || c2.Stats().Misses != 0 {
		t.Fatalf("disk replay: hits=%d misses=%d, want all hits", c2.Stats().Hits, c2.Stats().Misses)
	}
}
