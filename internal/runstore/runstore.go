// Package runstore is the durable, queryable index of past runs that the
// paper's comparative methodology needs: every conclusion in Sec. IV
// comes from contrasting configurations, so run manifests must outlive
// the processes that produced them and stay addressable by what they ran,
// not when.
//
// The store is content-addressed. A run's address is
// sha256(config hash x topology key): replays of one configuration land
// in one bucket, different configurations never collide, and nothing
// depends on user-chosen run names. On disk:
//
//	<dir>/index.json              — the query index, atomically replaced
//	<dir>/runs/<key>/<id>.json    — one manifest per observed run
//
// where <key> is the hex address and <id> is a UTC timestamp plus a short
// content hash. Manifests are appended (replays accumulate in their
// bucket), never rewritten; the index is derived data and Rebuild can
// regenerate it from the manifest files at any time, so a lost race
// between two writing processes degrades to a stale index, never to lost
// manifests.
//
// Queries: List (every run, newest first), Get (ID prefix), Diff
// (per-layer cycle/stall/utilization deltas between two runs, regression
// flagging beyond a threshold) and Top (layers ranked by stall fraction
// across the whole store). cmd/scalequery wraps them as a CLI.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"scalesim/internal/disk"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/cycleacct"
)

// IndexSchema identifies the index document format.
const IndexSchema = "scalesim.runstore/v1"

// Entry is one run's index record: enough identity and headline results
// to list and select runs without loading their manifests.
type Entry struct {
	ID          string `json:"id"`
	Key         string `json:"key"`
	Created     string `json:"created"`
	Tool        string `json:"tool,omitempty"`
	Run         string `json:"run,omitempty"`
	ConfigHash  string `json:"config_hash,omitempty"`
	Topology    string `json:"topology,omitempty"`
	Layers      int    `json:"layers"`
	TotalCycles int64  `json:"total_cycles"`
	StallCycles int64  `json:"stall_cycles,omitempty"`
	// LedgerCycles and CycleBins summarize the manifest's cycle-accounting
	// block: total attributed cycles and the per-category
	// rollup, so category queries can rank runs without reloading every
	// manifest body.
	LedgerCycles int64            `json:"ledger_cycles,omitempty"`
	CycleBins    map[string]int64 `json:"cycle_bins,omitempty"`
	WallSeconds  float64          `json:"wall_seconds,omitempty"`
	Host         string           `json:"host,omitempty"`
	// Path locates the manifest file, relative to the store root.
	Path string `json:"path"`
}

// index is the on-disk index document.
type index struct {
	Schema string  `json:"schema"`
	Runs   []Entry `json:"runs"`
}

// Store is a run registry rooted at one directory. Safe for concurrent
// use within a process; across processes, manifest files never conflict
// (content-addressed names) and the index converges via Rebuild.
type Store struct {
	mu  sync.Mutex
	dir string
}

// Open returns the store rooted at dir, creating the layout if absent.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Key returns a run's content address: sha256 over the config hash and
// the topology key, hex encoded. Manifests without a topology block key
// on tool and run name instead, so sweep manifests still bucket sensibly.
func Key(m *obsv.Manifest) string {
	topo := "tool:" + m.Tool + "/" + m.Run
	if m.Topology != nil && m.Topology.Name != "" {
		topo = fmt.Sprintf("%s/%d", m.Topology.Name, m.Topology.Layers)
	}
	sum := sha256.Sum256([]byte(m.ConfigHash + "\x00" + topo))
	return hex.EncodeToString(sum[:])
}

// Add appends the manifest to the registry — a new run file under the
// manifest's content address plus an index update — and returns the index
// entry. The manifest file is written via temp-file rename, and the
// index is replaced atomically.
func (s *Store) Add(m *obsv.Manifest) (Entry, error) {
	if err := m.Validate(); err != nil {
		return Entry{}, err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return Entry{}, fmt.Errorf("runstore: encoding manifest: %w", err)
	}
	key := Key(m)
	sum := sha256.Sum256(data)
	id := time.Now().UTC().Format("20060102T150405.000000000Z") + "-" + hex.EncodeToString(sum[:4])

	bucket := filepath.Join(s.dir, "runs", key)
	if err := os.MkdirAll(bucket, 0o755); err != nil {
		return Entry{}, fmt.Errorf("runstore: %w", err)
	}
	path := filepath.Join(bucket, id+".json")
	if err := disk.Replace(path, disk.Bytes(append(data, '\n'))); err != nil {
		return Entry{}, fmt.Errorf("runstore: %w", err)
	}

	e := entryOf(m, key, id, filepath.ToSlash(filepath.Join("runs", key, id+".json")))
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, err := s.readIndex()
	if err != nil {
		return Entry{}, err
	}
	idx.Runs = append(idx.Runs, e)
	if err := s.writeIndex(idx); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// entryOf summarizes a manifest into its index record.
func entryOf(m *obsv.Manifest, key, id, relPath string) Entry {
	e := Entry{
		ID:          id,
		Key:         key,
		Created:     m.Created,
		Tool:        m.Tool,
		Run:         m.Run,
		ConfigHash:  m.ConfigHash,
		Layers:      len(m.Layers),
		WallSeconds: m.WallSeconds,
		Path:        relPath,
	}
	if m.Topology != nil {
		e.Topology = m.Topology.Name
	}
	if m.Provenance != nil {
		e.Host = m.Provenance.Hostname
	}
	for _, l := range m.Layers {
		e.TotalCycles += l.Cycles
		e.StallCycles += l.StallCycles
	}
	if ca := m.CycleAccounting; ca != nil {
		e.LedgerCycles = ca.TotalCycles
		if len(ca.Categories) > 0 {
			e.CycleBins = make(map[string]int64, len(ca.Categories))
			for k, v := range ca.Categories {
				e.CycleBins[k] = v
			}
		}
	}
	return e
}

// List returns every indexed run, newest first (ties broken by ID so the
// order is total).
func (s *Store) List() ([]Entry, error) {
	s.mu.Lock()
	idx, err := s.readIndex()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	sort.Slice(idx.Runs, func(i, j int) bool {
		if idx.Runs[i].Created != idx.Runs[j].Created {
			return idx.Runs[i].Created > idx.Runs[j].Created
		}
		return idx.Runs[i].ID > idx.Runs[j].ID
	})
	return idx.Runs, nil
}

// Get resolves an ID (or unique ID prefix) to its entry and manifest.
func (s *Store) Get(idPrefix string) (Entry, *obsv.Manifest, error) {
	runs, err := s.List()
	if err != nil {
		return Entry{}, nil, err
	}
	var matches []Entry
	for _, e := range runs {
		if e.ID == idPrefix {
			matches = []Entry{e}
			break
		}
		if strings.HasPrefix(e.ID, idPrefix) {
			matches = append(matches, e)
		}
	}
	switch len(matches) {
	case 0:
		return Entry{}, nil, fmt.Errorf("runstore: no run matches %q", idPrefix)
	case 1:
	default:
		return Entry{}, nil, fmt.Errorf("runstore: %q is ambiguous (%d matches)", idPrefix, len(matches))
	}
	e := matches[0]
	data, err := os.ReadFile(filepath.Join(s.dir, filepath.FromSlash(e.Path)))
	if err != nil {
		return Entry{}, nil, fmt.Errorf("runstore: %w", err)
	}
	m, err := obsv.ParseManifest(data)
	if err != nil {
		return Entry{}, nil, err
	}
	return e, m, nil
}

// Rebuild regenerates the index from the manifest files on disk — the
// recovery path after a lost index race or a hand-merged store — and
// returns the rebuilt entries.
func (s *Store) Rebuild() ([]Entry, error) {
	pattern := filepath.Join(s.dir, "runs", "*", "*.json")
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	var idx index
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		m, err := obsv.ParseManifest(data)
		if err != nil {
			continue // foreign or corrupt file: not indexable
		}
		key := filepath.Base(filepath.Dir(path))
		id := strings.TrimSuffix(filepath.Base(path), ".json")
		rel, _ := filepath.Rel(s.dir, path)
		idx.Runs = append(idx.Runs, entryOf(m, key, id, filepath.ToSlash(rel)))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeIndex(&idx); err != nil {
		return nil, err
	}
	return idx.Runs, nil
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.json") }

// readIndex loads the index; a missing file is an empty store.
func (s *Store) readIndex() (*index, error) {
	data, err := os.ReadFile(s.indexPath())
	if os.IsNotExist(err) {
		return &index{Schema: IndexSchema}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	var idx index
	if err := json.Unmarshal(data, &idx); err != nil {
		return nil, fmt.Errorf("runstore: corrupt index %s (run rebuild): %w", s.indexPath(), err)
	}
	if idx.Schema != IndexSchema {
		return nil, fmt.Errorf("runstore: index schema %q, want %q", idx.Schema, IndexSchema)
	}
	return &idx, nil
}

// writeIndex atomically replaces the index document.
func (s *Store) writeIndex(idx *index) error {
	idx.Schema = IndexSchema
	data, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return fmt.Errorf("runstore: encoding index: %w", err)
	}
	if err := disk.Replace(s.indexPath(), disk.Bytes(append(data, '\n'))); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return nil
}

// LayerDelta is one layer's change between two runs, matched by
// execution index.
type LayerDelta struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	// NameB is set when the two runs disagree on the layer's name.
	NameB       string  `json:"name_b,omitempty"`
	CyclesA     int64   `json:"cycles_a"`
	CyclesB     int64   `json:"cycles_b"`
	StallA      int64   `json:"stall_a,omitempty"`
	StallB      int64   `json:"stall_b,omitempty"`
	UtilA       float64 `json:"util_a,omitempty"`
	UtilB       float64 `json:"util_b,omitempty"`
	CycleDelta  float64 `json:"cycle_delta"` // fractional, B relative to A
	Regression  bool    `json:"regression,omitempty"`
	Improvement bool    `json:"improvement,omitempty"`
}

// DiffResult compares run B against baseline run A.
type DiffResult struct {
	SameConfig bool         `json:"same_config"`
	Layers     []LayerDelta `json:"layers"`
	// OnlyA/OnlyB name layers present in exactly one run.
	OnlyA []string `json:"only_a,omitempty"`
	OnlyB []string `json:"only_b,omitempty"`
	// Regressions counts layers where B exceeds A's cycles or stalls by
	// more than the threshold.
	Regressions int `json:"regressions"`
}

// Identical reports whether the runs are the same simulation outcome:
// same configuration, same layer set, zero result deltas. Wall-clock
// costs are explicitly not compared — a cache-warm replay of a config is
// identical to its cold run.
func (d DiffResult) Identical() bool {
	if !d.SameConfig || len(d.OnlyA) > 0 || len(d.OnlyB) > 0 {
		return false
	}
	for _, l := range d.Layers {
		if l.CyclesA != l.CyclesB || l.StallA != l.StallB || l.UtilA != l.UtilB || l.NameB != "" {
			return false
		}
	}
	return true
}

// Diff compares two manifests layer by layer. threshold is the fractional
// cycle/stall growth beyond which a layer counts as a regression (0.05 =
// 5%); shrinkage beyond the threshold is marked an improvement.
func Diff(a, b *obsv.Manifest, threshold float64) DiffResult {
	d := DiffResult{SameConfig: a.ConfigHash == b.ConfigHash && a.ConfigHash != ""}
	n := len(a.Layers)
	if len(b.Layers) < n {
		n = len(b.Layers)
	}
	for i := 0; i < n; i++ {
		la, lb := a.Layers[i], b.Layers[i]
		ld := LayerDelta{
			Index: i, Name: la.Name,
			CyclesA: la.Cycles, CyclesB: lb.Cycles,
			StallA: la.StallCycles, StallB: lb.StallCycles,
			UtilA: la.Utilization, UtilB: lb.Utilization,
		}
		if lb.Name != la.Name {
			ld.NameB = lb.Name
		}
		ld.CycleDelta = frac(la.Cycles, lb.Cycles)
		stallDelta := frac(la.StallCycles, lb.StallCycles)
		worst := math.Max(ld.CycleDelta, stallDelta)
		best := math.Min(ld.CycleDelta, stallDelta)
		if worst > threshold {
			ld.Regression = true
			d.Regressions++
		} else if best < -threshold && (ld.CyclesA != ld.CyclesB || ld.StallA != ld.StallB) {
			ld.Improvement = true
		}
		d.Layers = append(d.Layers, ld)
	}
	for _, l := range a.Layers[n:] {
		d.OnlyA = append(d.OnlyA, l.Name)
	}
	for _, l := range b.Layers[n:] {
		d.OnlyB = append(d.OnlyB, l.Name)
	}
	return d
}

// frac returns (b-a)/a; a zero baseline with a non-zero b reads as +Inf
// growth, and zero-to-zero is no change.
func frac(a, b int64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(b-a) / float64(a)
}

// TopLayer is one layer's stall ranking across the store.
type TopLayer struct {
	RunID         string  `json:"run_id"`
	Run           string  `json:"run,omitempty"`
	Topology      string  `json:"topology,omitempty"`
	Index         int     `json:"index"`
	Name          string  `json:"name"`
	Cycles        int64   `json:"cycles"`
	StallCycles   int64   `json:"stall_cycles"`
	StallFraction float64 `json:"stall_fraction"`
}

// Top ranks every stored layer by stall fraction — stall cycles over
// stalled runtime (compute + stall) — and returns the worst n (n <= 0
// returns all). This is the "where is the fleet losing cycles" query:
// it reads every manifest in the store, not one run.
func (s *Store) Top(n int) ([]TopLayer, error) {
	runs, err := s.List()
	if err != nil {
		return nil, err
	}
	var out []TopLayer
	for _, e := range runs {
		_, m, err := s.Get(e.ID)
		if err != nil {
			continue // indexed but unreadable: skip, don't fail the query
		}
		for _, l := range m.Layers {
			if l.StallCycles <= 0 {
				continue
			}
			out = append(out, TopLayer{
				RunID: e.ID, Run: e.Run, Topology: e.Topology,
				Index: l.Index, Name: l.Name,
				Cycles: l.Cycles, StallCycles: l.StallCycles,
				StallFraction: float64(l.StallCycles) / float64(l.Cycles+l.StallCycles),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StallFraction != out[j].StallFraction {
			return out[i].StallFraction > out[j].StallFraction
		}
		if out[i].RunID != out[j].RunID {
			return out[i].RunID < out[j].RunID
		}
		return out[i].Index < out[j].Index
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out, nil
}

// TopCategoryRow is one node's ranking by a cycle-accounting category:
// what fraction of the node's attributed cycles landed in that bin.
type TopCategoryRow struct {
	RunID    string  `json:"run_id"`
	Run      string  `json:"run,omitempty"`
	Topology string  `json:"topology,omitempty"`
	Index    int     `json:"index"`
	Name     string  `json:"name"`
	Category string  `json:"category"`
	Cycles   int64   `json:"cycles"`
	Total    int64   `json:"total_cycles"`
	Fraction float64 `json:"fraction"`
}

// TopBy ranks every stored node by the fraction of its cycles attributed
// to the given cycle-accounting category and returns the worst n (n <= 0
// returns all). Runs without a ledger are silently skipped. An unknown
// category is an error, not an empty result, so a typo never reads as
// "nothing stalls".
func (s *Store) TopBy(category string, n int) ([]TopCategoryRow, error) {
	if !cycleacct.KnownCategory(category) {
		return nil, fmt.Errorf("runstore: unknown cycle category %q (known: %s)",
			category, strings.Join(cycleacct.Categories(), ", "))
	}
	runs, err := s.List()
	if err != nil {
		return nil, err
	}
	var out []TopCategoryRow
	for _, e := range runs {
		if e.CycleBins[category] <= 0 {
			continue // index rollup says the run has no such cycles
		}
		_, m, err := s.Get(e.ID)
		if err != nil || m.CycleAccounting == nil {
			continue // indexed but unreadable: skip, don't fail the query
		}
		for i, nd := range m.CycleAccounting.Nodes {
			c := nd.Category(category)
			if c <= 0 || nd.Total <= 0 {
				continue
			}
			out = append(out, TopCategoryRow{
				RunID: e.ID, Run: e.Run, Topology: e.Topology,
				Index: i, Name: nd.Name, Category: category,
				Cycles: c, Total: nd.Total,
				Fraction: float64(c) / float64(nd.Total),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fraction != out[j].Fraction {
			return out[i].Fraction > out[j].Fraction
		}
		if out[i].RunID != out[j].RunID {
			return out[i].RunID < out[j].RunID
		}
		return out[i].Index < out[j].Index
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out, nil
}
