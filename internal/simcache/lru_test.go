package simcache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"scalesim/internal/systolic"
)

// lruEntry builds a distinguishable entry; cycles make keys' values
// differ so replay tests can tell entries apart.
func lruEntry(cycles int64) Entry {
	return Entry{Compute: systolic.Result{Cycles: cycles}}
}

// entryBytes measures one spill document for key/entry as store writes it.
// evictions is how many spill files the cap has deleted; zero on nil or
// uncapped caches.
func evictions(c *Cache) int64 {
	if c == nil || c.lru == nil {
		return 0
	}
	c.lru.mu.Lock()
	defer c.lru.mu.Unlock()
	return c.lru.evictions
}

func entryBytes(t *testing.T, key string, e Entry) int64 {
	t.Helper()
	dir := t.TempDir()
	c, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key, e)
	info, err := os.Stat(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func TestLRUEvictsColdestUnderCap(t *testing.T) {
	one := entryBytes(t, "k0", lruEntry(0))
	dir := t.TempDir()
	// Room for two entries, not three.
	c, err := NewDiskLRU(dir, 2*one+one/2)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k0", lruEntry(10))
	c.Put("k1", lruEntry(11))
	// Touch k0 so k1 becomes the coldest, then overflow with k2.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 should hit")
	}
	c.Put("k2", lruEntry(12))

	if got := evictions(c); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got, max := c.DiskBytes(), 2*one+one/2; got > max {
		t.Fatalf("disk bytes %d over cap %d", got, max)
	}
	if _, err := os.Stat(c.path("k1")); !os.IsNotExist(err) {
		t.Fatalf("k1 spill should be deleted, stat err = %v", err)
	}
	// The evicted entry is a miss — including in this same process.
	if _, ok := c.Get("k1"); ok {
		t.Fatal("evicted k1 must read as a miss")
	}
	for _, k := range []string{"k0", "k2"} {
		if e, ok := c.Get(k); !ok || e.Compute.Cycles == 11 {
			t.Fatalf("%s should survive (ok=%v cycles=%d)", k, ok, e.Compute.Cycles)
		}
	}
}

func TestLRUNeverEvictsTheOnlyEntry(t *testing.T) {
	c, err := NewDiskLRU(t.TempDir(), 1) // absurdly small cap
	if err != nil {
		t.Fatal(err)
	}
	c.Put("solo", lruEntry(1))
	if got := evictions(c); got != 0 {
		t.Fatalf("evictions = %d, want 0 (newest entry is never evicted)", got)
	}
	if _, ok := c.Get("solo"); !ok {
		t.Fatal("the just-stored entry must remain readable")
	}
}

// TestLRUIndexSurvivesRestart: recency outlives the process that made it
// without anything to flush. Process 1 stores k0 then k1; process 2 only
// hits k0; process 3 opens with a tighter cap and must evict k1, the one
// nobody used since.
func TestLRUIndexSurvivesRestart(t *testing.T) {
	one := entryBytes(t, "k0", lruEntry(0))
	dir := t.TempDir()
	c, err := NewDiskLRU(dir, 10*one)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k0", lruEntry(10))
	c.Put("k1", lruEntry(11))

	c2, err := NewDiskLRU(dir, 10*one)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("k0"); !ok { // k1 is now coldest
		t.Fatal("k0 should hit")
	}

	c3, err := NewDiskLRU(dir, one+one/2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(c3.path("k1")); !os.IsNotExist(err) {
		t.Fatalf("k1 should be evicted on reopen, stat err = %v", err)
	}
	if _, ok := c3.Get("k0"); !ok {
		t.Fatal("k0 (recently used) must survive reopen eviction")
	}
}

// TestLRUHitOnAnotherProcessesFile: a hit on a spill file that another
// capped process wrote after this one opened the directory — so it is in
// neither's account here — is remembered too.
func TestLRUHitOnAnotherProcessesFile(t *testing.T) {
	one := entryBytes(t, "k0", lruEntry(0))
	dir := t.TempDir()
	writer, err := NewDiskLRU(dir, 10*one)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := NewDiskLRU(dir, 10*one)
	if err != nil {
		t.Fatal(err)
	}
	writer.Put("k0", lruEntry(10))
	writer.Put("k1", lruEntry(11))
	if _, ok := reader.Get("k0"); !ok {
		t.Fatal("k0 should hit from disk")
	}
	c3, err := NewDiskLRU(dir, one+one/2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(c3.path("k1")); !os.IsNotExist(err) {
		t.Fatalf("k1 should be evicted on reopen, stat err = %v", err)
	}
	if _, err := os.Stat(c3.path("k0")); err != nil {
		t.Fatalf("k0 (hit by the reader) must survive: %v", err)
	}
}

// TestLRUConcurrentUse: stores, hits and evictions from several goroutines
// keep the account and the directory in step (run under -race).
func TestLRUConcurrentUse(t *testing.T) {
	one := entryBytes(t, "k00", lruEntry(10))
	dir := t.TempDir()
	c, err := NewDiskLRU(dir, 4*one)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c.Put(fmt.Sprintf("k%d%d", g, i%10), lruEntry(int64(10+i%10)))
				c.Get(fmt.Sprintf("k%d%d", (g+1)%4, i%10))
			}
		}(g)
	}
	wg.Wait()
	if got := c.DiskBytes(); got > 4*one {
		t.Errorf("account %d bytes over the %d cap", got, 4*one)
	}
	reopened, err := NewDiskLRU(dir, 4*one)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.DiskBytes() != c.DiskBytes() {
		t.Errorf("directory holds %d bytes, account says %d", reopened.DiskBytes(), c.DiskBytes())
	}
}

// setMtime backdates path so a later stamp is unmistakable.
func setMtime(t *testing.T, path string, when time.Time) {
	t.Helper()
	if err := os.Chtimes(path, when, when); err != nil {
		t.Fatal(err)
	}
}

func mtime(t *testing.T, path string) time.Time {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.ModTime()
}

// TestLRUHitSetsMtime: on a capped cache every hit — from disk and from
// memory — moves the spill file's modification time to now.
func TestLRUHitSetsMtime(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskLRU(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k", lruEntry(1))
	c2, err := NewDiskLRU(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour)
	for _, hit := range []*Cache{c, c2} { // a memory hit, then a disk hit
		setMtime(t, c.path("k"), past)
		if _, ok := hit.Get("k"); !ok {
			t.Fatal("k should hit")
		}
		if got := mtime(t, c.path("k")); !got.After(past.Add(time.Minute)) {
			t.Errorf("mtime after a hit = %v, want about now", got)
		}
	}
}

// TestLRUOpensParentDirectory: a directory a binary with lru.index wrote
// opens cleanly whatever that index says — stale or corrupt — and is
// ordered by modification time alone: the file is ignored, and it is not
// a spill file to the scanners either.
func TestLRUOpensParentDirectory(t *testing.T) {
	one := entryBytes(t, "k0", lruEntry(10))
	for name, index := range map[string]string{
		// Claims k0 is the most recently used: the files say otherwise.
		"stale":   `{"schema":"scalesim.simcache-lru/v1","files":[{"name":"x.json","key":"k1","size":1,"seq":1},{"name":"y.json","key":"k0","size":1,"seq":9}]}`,
		"corrupt": "not json",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			un, err := NewDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			now := time.Now()
			for i, k := range []string{"k0", "k1", "k2"} {
				un.Put(k, lruEntry(int64(10+i)))
				setMtime(t, un.path(k), now.Add(time.Duration(i-3)*time.Minute)) // k0 oldest
			}
			if err := os.WriteFile(filepath.Join(dir, "lru.index"), []byte(index), 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := NewDiskLRU(dir, 2*one+one/2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(c.path("k0")); !os.IsNotExist(err) {
				t.Fatalf("k0 (oldest mtime) should be evicted, stat err = %v", err)
			}
			for _, k := range []string{"k1", "k2"} {
				if _, ok := c.Get(k); !ok {
					t.Errorf("%s should survive", k)
				}
			}
			keys, invalid, err := ScanDir(dir)
			if err != nil || len(keys) != 2 || invalid != 0 {
				t.Errorf("ScanDir = %v, %d invalid, %v; want 2 keys, 0 invalid", keys, invalid, err)
			}
		})
	}
}

func TestLRUCorruptEntryIsMissAndInvisible(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskLRU(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("good", lruEntry(1))
	// A corrupt spill file next to the index: a miss on Get, absent from
	// the rebuilt account.
	bad := filepath.Join(dir, strings.Repeat("ab", 32)+".json")
	if err := os.WriteFile(bad, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := NewDiskLRU(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := entryBytes(t, "good", lruEntry(1))
	if got := c2.DiskBytes(); got != want {
		t.Fatalf("account = %d bytes, want %d (corrupt file excluded)", got, want)
	}
}

func TestLRUIndexInvisibleToScanAndMerge(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskLRU(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), lruEntry(int64(i)))
	}
	keys, invalid, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || invalid != 0 {
		t.Fatalf("ScanDir = %d keys, %d invalid; want 3, 0", len(keys), invalid)
	}
	dst := t.TempDir()
	st, err := MergeDirs(dst, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Copied != 3 || st.Invalid != 0 {
		t.Fatalf("MergeDirs = %+v; want 3 copied, 0 invalid", st)
	}
}

func TestLRUIndexAdoptsUntrackedSpills(t *testing.T) {
	one := entryBytes(t, "k0", lruEntry(10)) // same digit count as the entries below
	dir := t.TempDir()
	c, err := NewDiskLRU(dir, 10*one)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k0", lruEntry(10))
	c.Put("k1", lruEntry(11))
	// An uncapped process sharing the directory spills an entry the
	// index never sees — the crash-between-rename-and-index shape.
	un, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	un.Put("k2", lruEntry(12))

	c2, err := NewDiskLRU(dir, 10*one)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c2.DiskBytes(), int64(3)*one; got != want {
		t.Fatalf("account = %d bytes, want %d (untracked spill adopted)", got, want)
	}
	// The adopted file is evictable like any other: tighten the cap and
	// the tier still converges under it.
	c3, err := NewDiskLRU(dir, one+one/2)
	if err != nil {
		t.Fatal(err)
	}
	if got := c3.DiskBytes(); got > one+one/2 {
		t.Fatalf("disk bytes %d over cap %d after recovery eviction", got, one+one/2)
	}
}

func TestUncappedCacheHasNoLRUOverhead(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskLRU(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k", lruEntry(1))
	if evictions(c) != 0 || c.DiskBytes() != 0 {
		t.Fatal("uncapped cache must not account the disk tier")
	}
	// An uncapped cache never touches an mtime, on a memory or a disk hit.
	past := time.Now().Add(-time.Hour).Truncate(time.Second)
	setMtime(t, c.path("k"), past)
	c2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, hit := range []*Cache{c, c2} {
		if _, ok := hit.Get("k"); !ok {
			t.Fatal("k should hit")
		}
	}
	if got := mtime(t, c.path("k")); !got.Equal(past) {
		t.Errorf("uncapped hits moved the mtime to %v", got)
	}
	if des, _ := os.ReadDir(dir); len(des) != 1 {
		t.Errorf("cache directory holds %d files, want the one spill file", len(des))
	}
	var nilCache *Cache
	if evictions(nilCache) != 0 || nilCache.DiskBytes() != 0 {
		t.Fatal("nil cache accessors must be zero")
	}
}
