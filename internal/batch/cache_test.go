package batch_test

import (
	"encoding/json"
	"testing"

	. "scalesim/internal/batch"
	"scalesim/internal/obsv"
	"scalesim/internal/simcache"
)

// TestGridCacheEquivalence runs the same grid cache-off, cache-on and
// cache-on again (warm) and requires byte-identical rows, with the warm
// pass replaying every layer of every point.
func TestGridCacheEquivalence(t *testing.T) {
	marshal := func(rows []Row) string {
		data, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	spec := tinySpec()
	spec.Parallel = 2

	ref, err := run(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	cache := simcache.New()
	cold, err := run(spec, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	if marshal(cold) != marshal(ref) {
		t.Fatal("cold cached grid differs from uncached grid")
	}
	warm, err := run(spec, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	if marshal(warm) != marshal(ref) {
		t.Fatal("warm cached grid differs from uncached grid")
	}
	nLayers := int64(0)
	for _, p := range spec.Points() {
		nLayers += int64(len(p.Workload.Nodes))
	}
	if got := cache.Stats().Hits; got < nLayers {
		t.Fatalf("warm grid hits=%d, want at least %d (every layer of every point)", got, nLayers)
	}
}

// TestManifestCarriesCacheStats: the sweep manifest must expose the
// shared cache's counters and the canonical config hash.
func TestManifestCarriesCacheStats(t *testing.T) {
	spec := tinySpec()
	cache := simcache.New()
	rec := obsv.NewRecorder()
	rows, err := run(spec, cache, rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(spec, cache, rec); err != nil {
		t.Fatal(err)
	}
	m, err := NewManifest(spec.Base.Hash(), rows, rec, cache)
	if err != nil {
		t.Fatal(err)
	}
	if m.ConfigHash != spec.Base.Hash() {
		t.Fatalf("manifest config hash %q", m.ConfigHash)
	}
	if m.Cache == nil || m.Cache.Hits == 0 || m.Cache.Misses == 0 {
		t.Fatalf("manifest cache stats = %+v", m.Cache)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// An uncached sweep's manifest must omit the section entirely.
	plain := tinySpec()
	if m2, err := NewManifest(plain.Base.Hash(), rows, nil, nil); err != nil {
		t.Fatal(err)
	} else if m2.Cache != nil {
		t.Fatal("uncached manifest grew a cache section")
	}
}
