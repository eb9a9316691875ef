package simcache

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"scalesim/internal/obsv/cycleacct"
	"scalesim/internal/topology"
	"scalesim/internal/vector"
)

// fuzzKey is the key whose spill path the fuzzer writes.
const fuzzKey = "a8x8;s4/4/2;df=os|i8x8x3/f3x3x3/s1"

// FuzzSpillDocument puts hostile bytes at a spill path. Every reader of a
// cache directory must take them: Get misses or returns an entry that
// round-trips through a store, ScanDir counts the file (a key or an
// invalid file) instead of failing and agrees with Get, and a capped
// NewDiskLRU opens the directory. Seeds are spill files written here by
// Put — a systolic entry with DRAM stats, stalls and a ledger, and a
// vector-unit one — plus damaged copies.
func FuzzSpillDocument(f *testing.F) {
	led := cycleacct.Ledger{}
	led.Add(cycleacct.PhaseArray, cycleacct.MACActive, 10)
	led.Add(cycleacct.PhaseLink, cycleacct.DRAMBwStall, 2)
	led.Total = 12
	sys := sampleEntry()
	sys.Ledger = &led
	vec := sampleEntry()
	vec.Vector = &vector.Result{Kind: topology.OpSoftmax, Rows: 32, Cols: 32, Operands: 1, Lanes: 16, Passes: 3, Cycles: 192}
	for _, e := range []Entry{sys, vec} {
		c, err := NewDisk(f.TempDir())
		if err != nil {
			f.Fatal(err)
		}
		c.Put(fuzzKey, e)
		data, err := os.ReadFile(c.path(fuzzKey))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(bytes.Replace(data, []byte(diskSchema), []byte("scalesim.simcache/v2"), 1))
		f.Add(bytes.Replace(data, []byte(fuzzKey), []byte("another key"), 1))
	}
	f.Add([]byte("null"))
	f.Add([]byte(`{"schema":"` + diskSchema + `","key":"` + fuzzKey + `","entry":{"cycle_ledger":{"bins":null}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		c, err := NewDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.path(fuzzKey), data, 0o644); err != nil {
			t.Fatal(err)
		}
		keys, invalid, err := ScanDir(dir)
		if err != nil || len(keys)+invalid != 1 {
			t.Fatalf("ScanDir = %v, %d invalid, %v; want the one file counted", keys, invalid, err)
		}
		if _, err := NewDiskLRU(dir, 1<<20); err != nil {
			t.Fatalf("NewDiskLRU: %v", err)
		}
		e, ok := c.Get(fuzzKey)
		if ok != (len(keys) == 1) {
			t.Fatalf("Get hit = %v, but ScanDir found keys %v", ok, keys)
		}
		if !ok {
			return
		}
		again, err := NewDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		again.Put(fuzzKey, e)
		reread, err := NewDisk(again.dir)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := reread.Get(fuzzKey)
		if !ok {
			t.Fatal("an entry Get returned does not survive a store")
		}
		want, _ := json.Marshal(e)
		if have, _ := json.Marshal(got); !bytes.Equal(have, want) {
			t.Fatalf("round trip changed the entry:\n%s\n%s", want, have)
		}
	})
}
