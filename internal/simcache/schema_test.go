package simcache

import (
	"encoding/json"
	"os"
	"testing"

	"scalesim/internal/topology"
	"scalesim/internal/vector"
)

// TestVectorEntryRoundTrip: the v2 entry's vector-unit result survives a
// disk round-trip intact.
func TestVectorEntryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := sampleEntry()
	e.Vector = &vector.Result{
		Kind: topology.OpSoftmax, Rows: 32, Cols: 32,
		Operands: 1, Lanes: 16, Passes: 3, Cycles: 192, Ops: 3072,
		LaneUtilization: 1.0 / 3.0,
	}
	a.Put("op=softmax|i32x32x1/f1x1x1/s1", e)

	b, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get("op=softmax|i32x32x1/f1x1x1/s1")
	if !ok {
		t.Fatal("disk miss")
	}
	if got.Vector == nil || *got.Vector != *e.Vector {
		t.Fatalf("vector result changed: %+v", got.Vector)
	}
}

// TestOldSchemaDiskEntriesMiss pins the migration contract: a v1 spill
// file — written by the pre-operator-graph key scheme — at exactly the
// path the current scheme would consult must read as a miss (counted as
// a disk error), never as a hit and never as a hard error.
func TestOldSchemaDiskEntriesMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "a32x32;s512/512/256;df=os|i56x56x64/f3x3x64/s1"
	doc := document{Schema: "scalesim.simcache/v1", Key: key, Entry: sampleEntry()}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Get(key); ok {
		t.Fatal("v1 spill file served as a hit")
	}
	if got := c.diskErrs.Load(); got != 1 {
		t.Fatalf("disk errors = %d, want 1", got)
	}
	if c.Stats().Misses != 1 || c.Stats().Hits != 0 {
		t.Fatalf("hits=%d misses=%d, want 0/1", c.Stats().Hits, c.Stats().Misses)
	}
	// The stale file must not block a fresh store and reload under the
	// current schema.
	c.Put(key, sampleEntry())
	fresh, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(key); !ok {
		t.Fatal("re-stored entry missed")
	}
}
