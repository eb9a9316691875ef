// Package simcache memoizes the pure compute stage of per-layer
// simulations. A layer's cycle-accurate result is a function of nothing
// but its canonical key — the configuration's canonical parameters, the
// layer's shape key, and the bandwidth/DRAM-model bounds the caller folds
// into the key — so any workflow that revisits a (config, shape) pair can
// replay the recorded outcome instead of regenerating and re-walking the
// trace: ResNet50 repeats identical convolution shapes across its residual
// blocks, a design-space sweep re-runs every network per grid point, and a
// repeated sweep re-runs everything.
//
// The cache is content-addressed: callers build keys from canonical
// identities (config.Config.CanonicalKey, topology.Layer.Key), never from
// user-facing names, so two differently-named layers with equal shapes
// share one entry and near-identical layers (a different stride) never
// collide. Entries carry everything the compute stage produces — the
// systolic result, the memory-system report, optional DRAM timing
// statistics and bounded-link stall cycles; downstream stages (energy
// accounting, report rendering) are recomputed from the entry, which is
// why cached runs are byte-identical to live ones.
//
// A Cache is safe for concurrent use and nil-safe (a nil *Cache never
// hits and drops stores), so callers thread it unconditionally. With a
// directory attached the cache is also persistent: entries are spilled as
// JSON documents named by the SHA-256 of their key, and loaded back on
// miss — including by later processes. Go's JSON float encoding
// round-trips float64 exactly, so disk hits preserve byte-identical
// reports too. Corrupt, mismatched or foreign files degrade to misses,
// never to errors. NewDiskLRU caps the directory's size, evicting by each
// spill file's modification time, so the spill files are the cache's only
// on-disk state.
package simcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"scalesim/internal/disk"
	"scalesim/internal/dram"
	"scalesim/internal/memory"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/cycleacct"
	"scalesim/internal/obsv/log"
	"scalesim/internal/systolic"
	"scalesim/internal/vector"
)

// keyDigest abbreviates a canonical key for log lines: keys are long and
// carry the whole canonical configuration, so events reference them by
// the same SHA-256 that names their spill file, truncated.
func keyDigest(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:6])
}

// diskSchema versions the on-disk document; a mismatch is a miss. v2
// added operator kinds to the key scheme and the vector-unit result to
// the entry. v3 added the cycle-accounting ledger, so v2 spill files
// (whose replays would lack ledgers) read as misses and re-simulate.
const diskSchema = "scalesim.simcache/v3"

// Entry is one compute-stage outcome: everything a layer simulation
// produces that is a pure function of its canonical key.
type Entry struct {
	// Compute is the cycle-accurate systolic result. Its Layer field
	// holds the shape that was simulated; consumers re-label it with
	// their own layer (names are not part of the key).
	Compute systolic.Result `json:"compute"`
	// Vector is the vector-unit result when the entry belongs to a
	// non-matmul operator node; nil for systolic layers.
	Vector *vector.Result `json:"vector,omitempty"`
	// Memory is the SRAM/DRAM traffic summary, including the per-stream
	// average and peak bandwidth profile.
	Memory memory.Report `json:"memory"`
	// DRAMStats holds the DRAM timing-model statistics when the run
	// replayed its traces through one (the model's configuration is part
	// of the key).
	DRAMStats *dram.Stats `json:"dram_stats,omitempty"`
	// StallCycles is the bounded-link stall count when the key includes a
	// DRAM bandwidth bound.
	StallCycles int64 `json:"stall_cycles,omitempty"`
	// Ledger is the layer's cycle-accounting ledger (sum of bins equals
	// the stalled runtime), so warm replays keep their attribution.
	Ledger *cycleacct.Ledger `json:"cycle_ledger,omitempty"`
}

// Stats is a point-in-time summary of cache effectiveness.
type Stats struct {
	// Hits and Misses count Get outcomes (disk loads count as hits).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Entries is the in-memory entry count.
	Entries int64 `json:"entries"`
}

// Cache is a content-addressed store of compute-stage results: an
// in-memory map, optionally backed by a directory of JSON spill files.
// The zero value is not usable; construct with New or NewDisk. All
// methods are safe for concurrent use and safe on a nil receiver.
type Cache struct {
	mu      sync.RWMutex
	entries map[string]Entry
	dir     string

	// lru caps the disk tier when non-nil (see NewDiskLRU).
	lru *lruState

	hits, misses, diskErrs atomic.Int64
}

// New returns an empty in-memory cache.
func New() *Cache {
	return &Cache{entries: make(map[string]Entry)}
}

// NewDisk returns a cache backed by dir: stores spill to disk, misses
// consult it, and entries persist across processes. The directory is
// created if absent.
func NewDisk(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	c := New()
	c.dir = dir
	return c, nil
}

// Get returns the entry stored under key. A nil cache always misses
// without counting.
func (c *Cache) Get(key string) (Entry, bool) {
	if c == nil {
		return Entry{}, false
	}
	c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock()
	if !ok && c.dir != "" {
		e, ok = c.load(key)
		if ok {
			c.mu.Lock()
			c.entries[key] = e
			c.mu.Unlock()
		}
	}
	if ok {
		c.hits.Add(1)
		c.touch(key)
	} else {
		c.misses.Add(1)
	}
	if lg := log.Default(); lg.Enabled(context.Background(), log.LevelDebug) {
		outcome := "miss"
		if ok {
			outcome = "hit"
		}
		lg.Debug(outcome, "subsystem", "simcache", "key_sha", keyDigest(key))
	}
	return e, ok
}

// Put stores the entry under key, spilling to disk when a directory is
// attached. Concurrent puts of one key are idempotent — the compute stage
// is pure, so every writer stores the same value. No-op on nil.
func (c *Cache) Put(key string, e Entry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	_, existed := c.entries[key]
	c.entries[key] = e
	c.mu.Unlock()
	if c.dir != "" && !existed {
		c.store(key, e)
	}
}

// Len returns the number of in-memory entries; zero on nil.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Stats snapshots the cache's effectiveness counters; zero on nil.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: int64(c.Len())}
}

// ManifestStats is Stats as a manifest's cache block; nil (no block) on a
// nil cache.
func (c *Cache) ManifestStats() *obsv.CacheStats {
	if c == nil {
		return nil
	}
	st := c.Stats()
	return &obsv.CacheStats{Hits: st.Hits, Misses: st.Misses, Entries: st.Entries}
}

// document is the on-disk spill format. The full key is stored and
// verified on load, so a SHA-256 filename collision (or a file from a
// different key scheme) reads as a miss rather than a wrong result.
type document struct {
	Schema string `json:"schema"`
	Key    string `json:"key"`
	Entry  Entry  `json:"entry"`
}

// path maps a key to its spill file.
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+".json")
}

// load reads key's spill file; any failure is a miss.
func (c *Cache) load(key string) (Entry, bool) {
	doc, _, err := readDocument(c.path(key))
	if os.IsNotExist(err) {
		return Entry{}, false
	}
	if err == nil && doc.Key != key {
		err = errMismatch
	}
	if err != nil {
		c.diskErrs.Add(1)
		log.Default().Warn("corrupt cache entry", "subsystem", "simcache",
			"path", c.path(key), "key_sha", keyDigest(key), "reason", err.Error())
		return Entry{}, false
	}
	return doc.Entry, true
}

// MergeStats summarizes a cache-directory merge.
type MergeStats struct {
	// Copied counts entries newly brought into the destination; Present
	// counts entries the destination already had; Invalid counts source
	// files skipped for failing validation (corrupt JSON, foreign schema,
	// a name that does not match its key).
	Copied, Present, Invalid int
}

// eachSpill reads the spill files of dir — its *.json entries, so temp
// files from in-flight (or killed) stores are not among them — in name
// order, handing visit each valid one: live schema, named by the digest of
// the key it holds. Files that fail validation are counted and otherwise
// invisible, the degrade-to-miss policy Get applies.
func eachSpill(dir string, visit func(de os.DirEntry, doc document, data []byte) error) (invalid int, err error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("simcache: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		doc, data, err := readDocument(filepath.Join(dir, name))
		if err != nil || !nameMatchesKey(name, doc.Key) {
			invalid++
			continue
		}
		if err := visit(de, doc, data); err != nil {
			return invalid, err
		}
	}
	return invalid, nil
}

// ScanDir enumerates the valid spill files in a cache directory and
// returns their keys. Files that fail validation are counted, not
// returned and not fatal.
func ScanDir(dir string) (keys []string, invalid int, err error) {
	invalid, err = eachSpill(dir, func(_ os.DirEntry, doc document, _ []byte) error {
		keys = append(keys, doc.Key)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	sort.Strings(keys)
	return keys, invalid, nil
}

// MergeDirs merges the spill files of every src directory into dst,
// creating dst if needed. Entries already present in dst are kept (the
// compute stage is pure, so same-named files hold the same result);
// source files that fail validation are skipped and counted. This is the
// coordinator step of a sharded sweep: each shard refines its slice of
// the design space into its own -cache-dir, and one merge folds them
// into a single content-addressed store that replays every shard's work.
func MergeDirs(dst string, srcs ...string) (MergeStats, error) {
	var st MergeStats
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return st, fmt.Errorf("simcache: %w", err)
	}
	for _, src := range srcs {
		invalid, err := eachSpill(src, func(de os.DirEntry, _ document, data []byte) error {
			target := filepath.Join(dst, de.Name())
			if _, err := os.Stat(target); err == nil {
				st.Present++
				return nil
			}
			if err := disk.Replace(target, disk.Bytes(data)); err != nil {
				return fmt.Errorf("simcache: merging %s: %w", de.Name(), err)
			}
			st.Copied++
			return nil
		})
		st.Invalid += invalid
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// errMismatch is a well-formed document of another schema or key.
var errMismatch = errors.New("schema or key mismatch")

// readDocument is the one decoder of a spill file: it loads path and
// checks the schema, returning the raw bytes too so a merge copies what it
// validated. Whether the key is the wanted one (load) or matches the file
// name (the scanners) is the caller's check.
func readDocument(path string) (doc document, data []byte, err error) {
	if data, err = os.ReadFile(path); err != nil {
		return doc, nil, err
	}
	if err = json.Unmarshal(data, &doc); err == nil && doc.Schema != diskSchema {
		err = errMismatch
	}
	return doc, data, err
}

// nameMatchesKey verifies a spill file is named by the SHA-256 of the key
// it claims to hold, so a renamed or cross-copied file never aliases a
// different entry.
func nameMatchesKey(name, key string) bool {
	sum := sha256.Sum256([]byte(key))
	return name == hex.EncodeToString(sum[:])+".json"
}

// store spills the entry by disk.Replace, so concurrent processes sharing
// a directory never observe partial documents. Failures
// are counted, not raised — the in-memory entry already serves this
// process.
func (c *Cache) store(key string, e Entry) {
	data, err := json.Marshal(document{Schema: diskSchema, Key: key, Entry: e})
	if err != nil {
		c.diskErrs.Add(1)
		return
	}
	if err := disk.Replace(c.path(key), disk.Bytes(data)); err != nil {
		c.diskErrs.Add(1)
		return
	}
	c.record(key, int64(len(data)))
}
