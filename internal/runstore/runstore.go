// Package runstore is the durable, queryable record of past runs that the
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
//	<dir>/runs/<key>/<id>.json    — one manifest per observed run
//
// where <key> is the hex address and <id> is a UTC timestamp plus a short
// content hash. Manifests are appended (replays accumulate in their
// bucket), never rewritten, and the directory is the store's only state:
// List parses every manifest and Get the one whose file name matches, so
// concurrent writers never lose each other's runs and a kill at any
// instant leaves nothing to repair.
//
// Queries: List (every run, newest first), Get (ID prefix), Diff
// (per-layer cycle/stall/utilization deltas between two runs, regression
// flagging beyond a threshold) and Top/TopBy (layers ranked by stall
// fraction or a cycle category across the whole store). cmd/scalequery
// wraps them as a CLI.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"scalesim/internal/disk"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/cycleacct"
)

// Entry is one run's listing record: its identity and headline results.
type Entry struct {
	ID          string
	Key         string
	Created     string
	Tool        string
	Run         string
	Topology    string
	Layers      int
	TotalCycles int64
}

// Store is a run registry rooted at one directory. Run files never
// conflict (content-addressed names, written by disk.Replace), so any
// number of goroutines and processes may share one.
type Store struct {
	dir string
}

// Open returns the store rooted at dir, creating the layout if absent.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

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
// manifest's content address, written via temp-file rename — and returns
// its entry.
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
	if err := disk.Replace(filepath.Join(bucket, id+".json"), disk.Bytes(append(data, '\n'))); err != nil {
		return Entry{}, fmt.Errorf("runstore: %w", err)
	}
	return entryOf(m, key, id), nil
}

// entryOf summarizes a manifest into its listing record.
func entryOf(m *obsv.Manifest, key, id string) Entry {
	e := Entry{ID: id, Key: key, Created: m.Created, Tool: m.Tool, Run: m.Run, Layers: len(m.Layers)}
	if m.Topology != nil {
		e.Topology = m.Topology.Name
	}
	for _, l := range m.Layers {
		e.TotalCycles += l.Cycles
	}
	return e
}

// files returns the registry's run files, slash-separated and relative to
// its root: the directory is the index. The temp file of an add in flight
// (or killed mid-write) is named .tmp-*, never *.json.
func (s *Store) files() ([]string, error) {
	files, err := fs.Glob(os.DirFS(s.dir), "runs/*/*.json")
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return files, nil
}

// read parses the run file at rel into its entry and manifest. A document
// of any schema but the live one is an error that names it.
func (s *Store) read(rel string) (Entry, *obsv.Manifest, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, filepath.FromSlash(rel)))
	if err != nil {
		return Entry{}, nil, fmt.Errorf("runstore: %w", err)
	}
	m, err := obsv.ParseManifest(data)
	if err != nil {
		return Entry{}, nil, err
	}
	return entryOf(m, path.Base(path.Dir(rel)), strings.TrimSuffix(path.Base(rel), ".json")), m, nil
}

// each parses every run file once and hands visit its entry and manifest.
// Files that are not a live-schema manifest (foreign, corrupt, or an older
// schema) are not runs and are skipped.
func (s *Store) each(visit func(Entry, *obsv.Manifest)) error {
	files, err := s.files()
	if err != nil {
		return err
	}
	for _, rel := range files {
		if e, m, err := s.read(rel); err == nil {
			visit(e, m)
		}
	}
	return nil
}

// List returns every stored run, newest first (ties broken by ID so the
// order is total).
func (s *Store) List() ([]Entry, error) {
	var runs []Entry
	if err := s.each(func(e Entry, _ *obsv.Manifest) { runs = append(runs, e) }); err != nil {
		return nil, err
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].Created != runs[j].Created {
			return runs[i].Created > runs[j].Created
		}
		return runs[i].ID > runs[j].ID
	})
	return runs, nil
}

// Get resolves an ID (or unique ID prefix) to its entry and manifest. IDs
// are file names, so only the matching run file is parsed.
func (s *Store) Get(idPrefix string) (Entry, *obsv.Manifest, error) {
	files, err := s.files()
	if err != nil {
		return Entry{}, nil, err
	}
	var matches []string
	for _, rel := range files {
		id := strings.TrimSuffix(path.Base(rel), ".json")
		if id == idPrefix {
			matches = []string{rel}
			break
		}
		if strings.HasPrefix(id, idPrefix) {
			matches = append(matches, rel)
		}
	}
	switch len(matches) {
	case 0:
		return Entry{}, nil, fmt.Errorf("runstore: no run matches %q", idPrefix)
	case 1:
		return s.read(matches[0])
	}
	return Entry{}, nil, fmt.Errorf("runstore: %q is ambiguous (%d matches)", idPrefix, len(matches))
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
		ld.CycleDelta = Frac(la.Cycles, lb.Cycles)
		stallDelta := Frac(la.StallCycles, lb.StallCycles)
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

// Frac returns the fractional change (b-a)/a; a zero baseline with a
// non-zero b reads as +Inf growth, and zero-to-zero is no change.
func Frac(a, b int64) float64 {
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
// one walk over every manifest in the store, not one run.
func (s *Store) Top(n int) ([]TopLayer, error) {
	var out []TopLayer
	err := s.each(func(e Entry, m *obsv.Manifest) {
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
	})
	if err != nil {
		return nil, err
	}
	return rank(out, n, func(l TopLayer) (float64, string, int) { return l.StallFraction, l.RunID, l.Index }), nil
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
	var out []TopCategoryRow
	err := s.each(func(e Entry, m *obsv.Manifest) {
		if m.CycleAccounting == nil {
			return
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
	})
	if err != nil {
		return nil, err
	}
	return rank(out, n, func(r TopCategoryRow) (float64, string, int) { return r.Fraction, r.RunID, r.Index }), nil
}

// rank orders rows worst first — by fraction descending, then run ID and
// index, a total order — and keeps the first n (n <= 0 keeps all).
func rank[T any](rows []T, n int, key func(T) (float64, string, int)) []T {
	sort.Slice(rows, func(i, j int) bool {
		fi, ri, ii := key(rows[i])
		fj, rj, ij := key(rows[j])
		if fi != fj {
			return fi > fj
		}
		if ri != rj {
			return ri < rj
		}
		return ii < ij
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}
