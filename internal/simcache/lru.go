package simcache

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"time"

	"scalesim/internal/obsv/log"
)

// The disk tier is normally unbounded: every spill file lives until its
// directory is deleted. A long-running service sharing one cache across
// every job it ever runs needs a ceiling, so NewDiskLRU adds a byte-size
// cap with least-recently-used eviction: stores that push the tier past
// the cap delete the coldest spill files (and their in-memory entries),
// and an evicted key reads as an ordinary miss and re-simulates. Recency
// is each spill file's modification time, which every store and every hit
// sets to now: the directory is the only record of it, so every process
// sharing the directory sees one order and nothing needs flushing or
// rebuilding after a kill.

// lruFile is one spill file's accounting record.
type lruFile struct {
	// Name is the spill file's base name (sha256(key) + ".json").
	Name string
	// Key is the entry's full canonical key, kept so eviction can also
	// drop the in-memory copy and keep "evicted" meaning "miss".
	Key string
	// Size is the file's byte size.
	Size int64
	// Used is the file's modification time: its last store or hit.
	Used time.Time
}

// lruState caps the disk tier. All fields are guarded by mu; the state
// is nil on uncapped caches, and every hook checks that.
type lruState struct {
	mu        sync.Mutex
	maxBytes  int64
	total     int64
	files     map[string]*lruFile // by file name
	evictions int64
}

// NewDiskLRU returns a disk-backed cache whose spill directory is capped
// at maxBytes with least-recently-used eviction. maxBytes <= 0 means
// uncapped (identical to NewDisk). The account is read from dir: every
// valid spill file with its size and modification time. Foreign and
// corrupt files stay invisible to it, matching the degrade-to-miss policy
// everywhere else.
func NewDiskLRU(dir string, maxBytes int64) (*Cache, error) {
	c, err := NewDisk(dir)
	if err != nil {
		return nil, err
	}
	if maxBytes <= 0 {
		return c, nil
	}
	s := &lruState{maxBytes: maxBytes, files: make(map[string]*lruFile)}
	if _, err := eachSpill(dir, func(de os.DirEntry, doc document, _ []byte) error {
		if info, err := de.Info(); err == nil {
			s.files[de.Name()] = &lruFile{Name: de.Name(), Key: doc.Key, Size: info.Size(), Used: info.ModTime()}
			s.total += info.Size()
		}
		return nil
	}); err != nil {
		return nil, err
	}
	c.lru = s
	// The cap applies to pre-existing content too: a directory already
	// over budget sheds its coldest files immediately.
	c.evictOver("")
	return c, nil
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

// stamp sets the spill file at path's modification time — its recency,
// as every process sharing the directory reads it — to now, and returns
// now. A file another process already evicted is not a disk error.
func (c *Cache) stamp(path string) time.Time {
	now := time.Now()
	if err := os.Chtimes(path, now, now); err != nil && !os.IsNotExist(err) {
		c.diskErrs.Add(1)
	}
	return now
}

// touch marks key's spill file as just used. Called on every hit, memory
// and disk alike, so recency reflects use rather than creation — also for
// a file another process wrote after this one read the directory.
func (c *Cache) touch(key string) {
	if c == nil || c.lru == nil {
		return
	}
	path := c.path(key)
	now := c.stamp(path)
	c.lru.mu.Lock()
	if f, ok := c.lru.files[filepath.Base(path)]; ok {
		f.Used = now
	}
	c.lru.mu.Unlock()
}

// record accounts a just-written spill file and evicts past the cap,
// sparing the newest file (evicting what was just stored would thrash).
// The in-memory entries of evicted keys are dropped too.
func (c *Cache) record(key string, size int64) {
	if c == nil || c.lru == nil {
		return
	}
	path := c.path(key)
	now := c.stamp(path)
	name := filepath.Base(path)
	s := c.lru
	s.mu.Lock()
	if f, ok := s.files[name]; ok {
		s.total += size - f.Size
		f.Size, f.Used = size, now
	} else {
		s.files[name] = &lruFile{Name: name, Key: key, Size: size, Used: now}
		s.total += size
	}
	s.mu.Unlock()
	c.evictOver(name)
}

// evictOver deletes coldest-first (oldest modification time, name
// tiebroken) until the tier fits the cap, never touching spare (the file
// just written). Removal failures still drop the file from the account —
// a file the OS won't delete now is beyond this process, and the next
// NewDiskLRU re-counts whatever survived.
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
			if oldest == nil || f.Used.Before(oldest.Used) || (f.Used.Equal(oldest.Used) && f.Name < oldest.Name) {
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
		if lg := log.Default(); lg.Enabled(context.Background(), log.LevelDebug) {
			lg.Debug("evict", "subsystem", "simcache", "file", oldest.Name,
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
}
