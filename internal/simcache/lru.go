package simcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"scalesim/internal/disk"
	"scalesim/internal/obsv/log"
)

// The disk tier is normally unbounded: every spill file lives until its
// directory is deleted. A long-running service sharing one cache across
// every job it ever runs needs a ceiling, so NewDiskLRU adds a byte-size
// cap with least-recently-used eviction: stores that push the tier past
// the cap delete the coldest spill files (and their in-memory entries),
// and an evicted key reads as an ordinary miss and re-simulates. Recency
// is tracked across processes through a small index file, maintained
// with the same disk.Replace discipline as the spill files; a
// missing or corrupt index is rebuilt from the directory, never trusted.

// lruIndexName is the on-disk recency index. Deliberately not *.json:
// ScanDir and MergeDirs enumerate spill files by that suffix, and the
// index is bookkeeping, not an entry.
const lruIndexName = "lru.index"

// lruSchema versions the index document; a mismatch triggers a rebuild.
const lruSchema = "scalesim.simcache-lru/v1"

// lruFlushInterval paces recency-only index writes: touches mark the
// index dirty and at most one write per interval persists them, so a
// stream of in-memory hits does not become a stream of disk writes.
// Stores and evictions still persist immediately — they change what is
// on disk, not just its order — and Flush forces the rest out.
const lruFlushInterval = 5 * time.Second

// lruFile is one spill file's accounting record.
type lruFile struct {
	// Name is the spill file's base name (sha256(key) + ".json").
	Name string `json:"name"`
	// Key is the entry's full canonical key, kept so eviction can also
	// drop the in-memory copy and keep "evicted" meaning "miss".
	Key string `json:"key"`
	// Size is the file's byte size.
	Size int64 `json:"size"`
	// Seq orders recency: higher means more recently used.
	Seq int64 `json:"seq"`
}

// lruIndex is the index document.
type lruIndex struct {
	Schema string    `json:"schema"`
	Files  []lruFile `json:"files"`
}

// lruState caps the disk tier. All fields are guarded by mu; the state
// is nil on uncapped caches, and every hook checks that.
type lruState struct {
	mu        sync.Mutex
	maxBytes  int64
	total     int64
	seq       int64
	files     map[string]*lruFile // by file name
	evictions int64
	// dirty marks recency updates not yet persisted; lastFlush paces the
	// batched writes touch triggers.
	dirty     bool
	lastFlush time.Time
}

// NewDiskLRU returns a disk-backed cache whose spill directory is capped
// at maxBytes with least-recently-used eviction. maxBytes <= 0 means
// uncapped (identical to NewDisk). The recency index is recovered from
// dir when present and rebuilt from the spill files otherwise.
func NewDiskLRU(dir string, maxBytes int64) (*Cache, error) {
	c, err := NewDisk(dir)
	if err != nil {
		return nil, err
	}
	if maxBytes <= 0 {
		return c, nil
	}
	c.lru = &lruState{maxBytes: maxBytes, files: make(map[string]*lruFile)}
	if err := c.lru.recover(dir); err != nil {
		return nil, err
	}
	// The cap applies to pre-existing content too: a directory already
	// over budget sheds its coldest files immediately.
	c.evictOver("")
	return c, nil
}

// Evictions returns how many spill files the cap has deleted; zero on
// nil or uncapped caches.
func (c *Cache) Evictions() int64 {
	if c == nil || c.lru == nil {
		return 0
	}
	c.lru.mu.Lock()
	defer c.lru.mu.Unlock()
	return c.lru.evictions
}

// DiskBytes returns the accounted size of the disk tier; zero on nil or
// uncapped caches.
func (c *Cache) DiskBytes() int64 {
	if c == nil || c.lru == nil {
		return 0
	}
	c.lru.mu.Lock()
	defer c.lru.mu.Unlock()
	return c.lru.total
}

// touch marks key's spill file as just used. Called on every hit, memory
// and disk alike, so recency reflects use rather than creation. The
// update is persisted lazily — marked dirty and flushed at most once per
// lruFlushInterval (or by Flush) — so repeated in-memory hits are not
// serialized on index writes.
func (c *Cache) touch(key string) {
	if c == nil || c.lru == nil {
		return
	}
	name := filepath.Base(c.path(key))
	s := c.lru
	s.mu.Lock()
	f, ok := s.files[name]
	var flush bool
	if ok {
		s.seq++
		f.Seq = s.seq
		s.dirty = true
		flush = time.Since(s.lastFlush) >= lruFlushInterval
	}
	s.mu.Unlock()
	if flush {
		c.writeLRUIndex()
	}
}

// Flush persists any recency updates the batching in touch has not yet
// written. Call it before the process exits if cross-process recency
// matters; safe on nil and uncapped caches.
func (c *Cache) Flush() {
	if c == nil || c.lru == nil {
		return
	}
	c.lru.mu.Lock()
	dirty := c.lru.dirty
	c.lru.mu.Unlock()
	if dirty {
		c.writeLRUIndex()
	}
}

// record accounts a just-written spill file and evicts past the cap,
// sparing the newest file (evicting what was just stored would thrash).
// The in-memory entries of evicted keys are dropped too.
func (c *Cache) record(key string, size int64) {
	if c == nil || c.lru == nil {
		return
	}
	name := filepath.Base(c.path(key))
	s := c.lru
	s.mu.Lock()
	if f, ok := s.files[name]; ok {
		s.total += size - f.Size
		f.Size = size
		s.seq++
		f.Seq = s.seq
	} else {
		s.seq++
		s.files[name] = &lruFile{Name: name, Key: key, Size: size, Seq: s.seq}
		s.total += size
	}
	s.mu.Unlock()
	c.evictOver(name)
}

// evictOver deletes coldest-first until the tier fits the cap, never
// touching spare (the file just written). Removal failures still drop
// the file from the account — a file the OS won't delete now is beyond
// this process, and the next recover re-counts whatever survived.
func (c *Cache) evictOver(spare string) {
	s := c.lru
	var dropped []string
	s.mu.Lock()
	for s.total > s.maxBytes && len(s.files) > 1 {
		var oldest *lruFile
		for _, f := range s.files {
			if f.Name == spare {
				continue
			}
			if oldest == nil || f.Seq < oldest.Seq {
				oldest = f
			}
		}
		if oldest == nil {
			break
		}
		delete(s.files, oldest.Name)
		s.total -= oldest.Size
		s.evictions++
		dropped = append(dropped, oldest.Key)
		if err := os.Remove(filepath.Join(c.dir, oldest.Name)); err != nil && !os.IsNotExist(err) {
			c.diskErrs.Add(1)
		}
		if lg := log.Default(); lg.Enabled(log.LevelDebug) {
			lg.Debug("simcache", "evict", "file", oldest.Name,
				"bytes", oldest.Size, "key_sha", keyDigest(oldest.Key))
		}
	}
	s.mu.Unlock()
	if len(dropped) > 0 {
		c.mu.Lock()
		for _, key := range dropped {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	c.writeLRUIndex()
}

// writeLRUIndex persists the recency index atomically. Failures count as
// disk errors; the index is advisory and rebuilt on recovery.
func (c *Cache) writeLRUIndex() {
	s := c.lru
	s.mu.Lock()
	idx := lruIndex{Schema: lruSchema, Files: make([]lruFile, 0, len(s.files))}
	for _, f := range s.files {
		idx.Files = append(idx.Files, *f)
	}
	s.dirty = false
	s.lastFlush = time.Now()
	s.mu.Unlock()
	sort.Slice(idx.Files, func(i, j int) bool { return idx.Files[i].Seq < idx.Files[j].Seq })
	data, err := json.Marshal(idx)
	if err != nil {
		c.diskErrs.Add(1)
		return
	}
	if err := disk.Replace(filepath.Join(c.dir, lruIndexName), disk.Bytes(data)); err != nil {
		c.diskErrs.Add(1)
	}
}

// recover loads the recency index, falling back to a directory scan
// (modification-time order) when the index is missing, corrupt, or
// disagrees with the files actually present.
func (s *lruState) recover(dir string) error {
	if s.loadIndex(dir) {
		return nil
	}
	files, err := scanSpills(dir, nil)
	if err != nil {
		return err
	}
	s.adopt(files)
	return nil
}

// adopt appends freshly scanned spill files to the account, oldest
// first, each newer than everything already tracked.
func (s *lruState) adopt(files []lruFile) {
	for i := range files {
		s.seq++
		files[i].Seq = s.seq
		s.files[files[i].Name] = &files[i]
		s.total += files[i].Size
	}
}

// loadIndex restores state from the index file; false forces a rebuild.
// Disagreement with the directory is healed in both directions: indexed
// files that vanished are dropped, and on-disk spill files the index
// never saw (a crash between a spill rename and the index write, or an
// uncapped process sharing the directory) are adopted as the newest
// entries — otherwise they would escape the cap forever.
func (s *lruState) loadIndex(dir string) bool {
	data, err := os.ReadFile(filepath.Join(dir, lruIndexName))
	if err != nil {
		return false
	}
	var idx lruIndex
	if err := json.Unmarshal(data, &idx); err != nil || idx.Schema != lruSchema {
		return false
	}
	for i := range idx.Files {
		f := idx.Files[i]
		info, err := os.Stat(filepath.Join(dir, f.Name))
		if err != nil || !nameMatchesKey(f.Name, f.Key) {
			continue // vanished or foreign: drop from the account
		}
		f.Size = info.Size() // trust the filesystem over the index
		s.files[f.Name] = &f
		s.total += f.Size
		if f.Seq > s.seq {
			s.seq = f.Seq
		}
	}
	if extras, err := scanSpills(dir, s.files); err == nil {
		s.adopt(extras)
	}
	return true
}

// scanSpills enumerates the valid spill files in dir that are not
// already in skip, ordered oldest-modified first (name-tiebroken).
// Foreign and corrupt files stay invisible to the account, matching the
// degrade-to-miss policy everywhere else.
func scanSpills(dir string, skip map[string]*lruFile) ([]lruFile, error) {
	type rec struct {
		f   lruFile
		mod time.Time
	}
	var recs []rec
	known := func(name string) bool { _, ok := skip[name]; return ok }
	_, err := eachSpill(dir, known, func(de os.DirEntry, doc document, _ []byte) error {
		if info, err := de.Info(); err == nil {
			recs = append(recs, rec{lruFile{Name: de.Name(), Key: doc.Key, Size: info.Size()}, info.ModTime()})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].mod.Equal(recs[j].mod) {
			return recs[i].mod.Before(recs[j].mod)
		}
		return recs[i].f.Name < recs[j].f.Name
	})
	files := make([]lruFile, len(recs))
	for i, r := range recs {
		files[i] = r.f
	}
	return files, nil
}
