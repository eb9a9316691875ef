package simcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"scalesim/internal/dram"
	"scalesim/internal/memory"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

// sampleEntry builds an entry with non-trivial values in every field,
// including floats that exercise JSON round-trip fidelity.
func sampleEntry() Entry {
	return Entry{
		Compute: systolic.Result{
			Layer:              topology.Layer{Name: "conv1", IfmapH: 56, IfmapW: 56, FilterH: 3, FilterW: 3, Channels: 64, NumFilters: 64, Stride: 1},
			Cycles:             123456,
			MACs:               789012,
			MappingUtilization: 0.8437512345678901, // awkward float: must survive disk round-trip
			ComputeUtilization: 1.0 / 3.0,
			FoldsR:             7,
			FoldsC:             3,
		},
		Memory: memory.Report{
			IfmapSRAMReads:  1000,
			FilterSRAMReads: 2000,
			OfmapSRAMWrites: 3000,
			IfmapDRAMReads:  400,
			FilterDRAMReads: 500,
			OfmapDRAMWrites: 600,
			AvgReadBW:       0.1234567890123456789,
			PeakIfmapBW:     7.7,
		},
		DRAMStats:   &dram.Stats{Requests: 42, RowHits: 17, RowMisses: 25},
		StallCycles: 99,
	}
}

func TestGetPutMemory(t *testing.T) {
	c := New()
	if _, ok := c.Get("k"); ok {
		t.Fatal("empty cache hit")
	}
	e := sampleEntry()
	c.Put("k", e)
	got, ok := c.Get("k")
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.Compute.Cycles != e.Compute.Cycles || got.StallCycles != 99 {
		t.Fatalf("entry mismatch: %+v", got)
	}
	if c.Stats().Hits != 1 || c.Stats().Misses != 1 || c.Len() != 1 {
		t.Fatalf("stats: hits=%d misses=%d len=%d", c.Stats().Hits, c.Stats().Misses, c.Len())
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("snapshot: %+v", s)
	}
}

// TestNilSafety pins the "thread it unconditionally" contract: every
// method must be callable on a nil cache.
func TestNilSafety(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	c.Put("k", Entry{})
	if c.Len() != 0 {
		t.Fatal("nil cache counted")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil stats: %+v", s)
	}
}

// TestDiskRoundTrip stores an entry through one cache and loads it
// through a second cache on the same directory, then requires exact
// equality — including float64 fields — via re-marshaled JSON bytes.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := sampleEntry()
	a.Put("layer|key", e)

	b, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get("layer|key")
	if !ok {
		t.Fatal("disk miss")
	}
	want, _ := json.Marshal(e)
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		t.Fatalf("disk round-trip changed entry:\nwant %s\nhave %s", want, have)
	}
	if got.Compute.MappingUtilization != e.Compute.MappingUtilization {
		t.Fatalf("float changed: %v vs %v", got.Compute.MappingUtilization, e.Compute.MappingUtilization)
	}
	if got.DRAMStats == nil || got.DRAMStats.RowHits != 17 {
		t.Fatalf("dram stats lost: %+v", got.DRAMStats)
	}
	// The loaded entry is promoted into memory: a second Get must not
	// touch disk (remove the file and re-read).
	for _, f := range mustGlob(t, dir) {
		os.Remove(f)
	}
	if _, ok := b.Get("layer|key"); !ok {
		t.Fatal("promoted entry lost")
	}
}

// TestDiskCorruption: truncated files, wrong schema, and key mismatches
// (a foreign file renamed into place) must all degrade to misses.
func TestDiskCorruption(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("good", sampleEntry())
	files := mustGlob(t, dir)
	if len(files) != 1 {
		t.Fatalf("want 1 spill file, got %d", len(files))
	}

	fresh := func() *Cache {
		n, err := NewDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	// Truncated JSON.
	if err := os.WriteFile(files[0], []byte(`{"schema":"scalesim.simcache/v1","key":"good","entry":{`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh().Get("good"); ok {
		t.Fatal("corrupt file hit")
	}

	// Wrong schema.
	doc := document{Schema: "scalesim.simcache/v999", Key: "good", Entry: sampleEntry()}
	data, _ := json.Marshal(doc)
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh().Get("good"); ok {
		t.Fatal("wrong-schema file hit")
	}

	// Key mismatch: valid document for a different key at this path.
	doc = document{Schema: diskSchema, Key: "evil-twin", Entry: sampleEntry()}
	data, _ = json.Marshal(doc)
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	n := fresh()
	if _, ok := n.Get("good"); ok {
		t.Fatal("key-mismatched file hit")
	}
	if n.diskErrs.Load() == 0 {
		t.Fatal("mismatch not counted as disk error")
	}
}

// TestConcurrentAccess exercises the lock paths under the race detector.
func TestConcurrentAccess(t *testing.T) {
	c, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keys[i%len(keys)]
				if _, ok := c.Get(k); !ok {
					c.Put(k, sampleEntry())
				}
				c.Stats()
			}
		}()
	}
	wg.Wait()
	if c.Len() != len(keys) {
		t.Fatalf("len=%d want %d", c.Len(), len(keys))
	}
}

func mustGlob(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}
