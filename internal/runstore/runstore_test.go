package runstore

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"scalesim/internal/obsv"
)

// manifest builds a valid manifest with the given identity and layers.
func manifest(t *testing.T, run, configHash, topo string, layers ...obsv.LayerMetrics) *obsv.Manifest {
	t.Helper()
	m := (*obsv.Recorder)(nil).Manifest()
	m.Tool = "scalesim"
	m.Run = run
	m.ConfigHash = configHash
	if topo != "" {
		m.Topology = &obsv.TopologyInfo{Name: topo, Layers: len(layers)}
	}
	m.Layers = layers
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func layer(i int, name string, cycles, stall int64, util float64) obsv.LayerMetrics {
	return obsv.LayerMetrics{Index: i, Name: name, Cycles: cycles, StallCycles: stall, Utilization: util}
}

func TestStoreAddListGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m1 := manifest(t, "a", "sha256:aaaa", "resnet", layer(0, "conv1", 100, 10, 0.8))
	m2 := manifest(t, "b", "sha256:bbbb", "resnet", layer(0, "conv1", 120, 30, 0.7))
	e1, err := s.Add(m1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Add(m2)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Key == e2.Key {
		t.Errorf("different config hashes produced one key %q", e1.Key)
	}
	if e1.TotalCycles != 100 || e1.Layers != 1 || e1.Topology != "resnet" || e1.Run != "a" {
		t.Errorf("entry summary = %+v", e1)
	}

	runs, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("List = %d runs, want 2", len(runs))
	}

	// Full ID, then unique prefix, then ambiguous and missing prefixes.
	got, gm, err := s.Get(e1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != e1.ID || gm.ConfigHash != "sha256:aaaa" || len(gm.Layers) != 1 {
		t.Errorf("Get(%q) = %+v / %+v", e1.ID, got, gm)
	}
	if _, _, err := s.Get(e1.ID[:len(e1.ID)-2]); err != nil {
		// The shared timestamp prefix can collide; only a full-length
		// lookup is guaranteed unique. Accept ambiguity but not absence.
		if !strings.Contains(err.Error(), "ambiguous") {
			t.Errorf("prefix Get: %v", err)
		}
	}
	if _, _, err := s.Get("nope"); err == nil || !strings.Contains(err.Error(), "no run") {
		t.Errorf("missing ID error = %v", err)
	}

	// Replays of one config share a bucket on disk.
	e3, err := s.Add(manifest(t, "a", "sha256:aaaa", "resnet", layer(0, "conv1", 100, 10, 0.8)))
	if err != nil {
		t.Fatal(err)
	}
	if e3.Key != e1.Key {
		t.Errorf("replay key %q != original %q", e3.Key, e1.Key)
	}
	files, _ := filepath.Glob(filepath.Join(s.dir, "runs", e1.Key, "*.json"))
	if len(files) != 2 {
		t.Errorf("replay bucket holds %d files, want 2", len(files))
	}
}

func TestKeySweepWithoutTopology(t *testing.T) {
	a := manifest(t, "sweep1", "sha256:cccc", "")
	b := manifest(t, "sweep2", "sha256:cccc", "")
	if Key(a) == Key(b) {
		t.Error("different sweep runs with no topology share a key")
	}
	if Key(a) != Key(manifest(t, "sweep1", "sha256:cccc", "")) {
		t.Error("key not deterministic")
	}
}

func TestStoreConcurrentAdd(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := manifest(t, "r", "sha256:dddd", "net", layer(0, "l", int64(100+i), 0, 0.5))
			if _, err := s.Add(m); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	runs, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 8 {
		t.Errorf("concurrent adds indexed %d runs, want 8", len(runs))
	}
}

// TestRebuildSkipsOldSchema: one manifest schema is live. A v3 document
// left in a store is named by Get and is not a run to List.
func TestRebuildSkipsOldSchema(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cur, err := s.Add(manifest(t, "a", "sha256:aaaa", "net", layer(0, "l", 10, 0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	old, err := s.Add(manifest(t, "b", "sha256:bbbb", "net", layer(0, "l", 20, 0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.dir, "runs", old.Key, old.ID+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const v3 = "scalesim.manifest/v3"
	data = []byte(strings.Replace(string(data), obsv.Schema, v3, 1))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(old.ID); err == nil || !strings.Contains(err.Error(), v3) {
		t.Errorf("Get on a v3 manifest: err = %v, want the schema named", err)
	}
	runs, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0] != cur {
		t.Errorf("List = %+v, want only %+v", runs, cur)
	}
	if e, _, err := s.Get(cur.ID); err != nil || e != cur {
		t.Errorf("Get on the v4 run = %+v, %v; want %+v", e, err, cur)
	}
}

// TestIndexFileIsIgnored: a registry written by a binary that kept
// index.json lists exactly its run files, whatever that index says —
// stale, naming a run that does not exist, or corrupt.
func TestIndexFileIsIgnored(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Add(manifest(t, "a", "sha256:aaaa", "net", layer(0, "l", 10, 5, 1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Add(manifest(t, "b", "sha256:bbbb", "net", layer(0, "l", 20, 5, 1)))
	if err != nil {
		t.Fatal(err)
	}
	index := filepath.Join(s.dir, "index.json")
	for _, doc := range []string{
		`{"schema":"scalesim.runstore/v1","runs":[{"id":"20990101T000000.000000000Z-deadbeef","key":"k","created":"2099","layers":1,"total_cycles":1,"path":"runs/k/20990101T000000.000000000Z-deadbeef.json"}]}`,
		"{broken",
	} {
		if err := os.WriteFile(index, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		runs, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 2 || runs[0] != b || runs[1] != a {
			t.Errorf("List = %+v, want [%+v %+v]", runs, b, a)
		}
		if _, _, err := s.Get("2099"); err == nil {
			t.Error("Get resolved a run only the index names")
		}
		if top, err := s.Top(0); err != nil || len(top) != 2 {
			t.Errorf("Top = %+v (err %v), want both runs' layers", top, err)
		}
	}
}

func TestDiffIdenticalRuns(t *testing.T) {
	a := manifest(t, "a", "sha256:same", "net",
		layer(0, "conv1", 100, 10, 0.8), layer(1, "fc", 50, 0, 0.9))
	b := manifest(t, "a", "sha256:same", "net",
		layer(0, "conv1", 100, 10, 0.8), layer(1, "fc", 50, 0, 0.9))
	d := Diff(a, b, 0.05)
	if !d.Identical() {
		t.Errorf("identical runs not identical: %+v", d)
	}
	if d.Regressions != 0 {
		t.Errorf("identical runs report %d regressions", d.Regressions)
	}
	for _, l := range d.Layers {
		if l.CycleDelta != 0 {
			t.Errorf("layer %d delta = %v", l.Index, l.CycleDelta)
		}
	}
}

func TestDiffFlagsRegressions(t *testing.T) {
	a := manifest(t, "a", "sha256:one", "net",
		layer(0, "conv1", 100, 10, 0.8),
		layer(1, "conv2", 200, 0, 0.9),
		layer(2, "fc", 50, 0, 0.9))
	b := manifest(t, "b", "sha256:two", "net",
		layer(0, "conv1", 150, 40, 0.6), // 50% slower: regression
		layer(1, "conv2", 202, 0, 0.9),  // 1% slower: under threshold
		layer(2, "fc", 40, 0, 0.95))     // 20% faster: improvement
	d := Diff(a, b, 0.05)
	if d.SameConfig {
		t.Error("different config hashes reported as same config")
	}
	if d.Identical() {
		t.Error("regressed run reported identical")
	}
	if d.Regressions != 1 || !d.Layers[0].Regression {
		t.Errorf("regressions = %d, layers = %+v", d.Regressions, d.Layers)
	}
	if d.Layers[1].Regression || d.Layers[1].Improvement {
		t.Errorf("1%% drift flagged: %+v", d.Layers[1])
	}
	if !d.Layers[2].Improvement {
		t.Errorf("20%% speedup not an improvement: %+v", d.Layers[2])
	}
	if got := d.Layers[0].CycleDelta; got < 0.49 || got > 0.51 {
		t.Errorf("cycle delta = %v, want 0.5", got)
	}

	// Stall growth alone is a regression even with flat cycles.
	c := manifest(t, "c", "sha256:three", "net",
		layer(0, "conv1", 100, 30, 0.8),
		layer(1, "conv2", 200, 0, 0.9),
		layer(2, "fc", 50, 0, 0.9))
	if ds := Diff(a, c, 0.05); ds.Regressions != 1 || !ds.Layers[0].Regression {
		t.Errorf("stall-only regression missed: %+v", ds.Layers[0])
	}

	// Zero baseline growing is +Inf — always beyond any threshold.
	z := manifest(t, "z", "sha256:four", "net",
		layer(0, "conv1", 100, 10, 0.8),
		layer(1, "conv2", 200, 5, 0.9),
		layer(2, "fc", 50, 0, 0.9))
	if dz := Diff(a, z, 0.05); !dz.Layers[1].Regression {
		t.Errorf("zero-baseline stall growth not flagged: %+v", dz.Layers[1])
	}
}

func TestDiffLayerSetMismatch(t *testing.T) {
	a := manifest(t, "a", "sha256:same", "net",
		layer(0, "conv1", 100, 0, 0.8), layer(1, "fc", 50, 0, 0.9))
	b := manifest(t, "b", "sha256:same", "net",
		layer(0, "conv1", 100, 0, 0.8))
	d := Diff(a, b, 0.05)
	if d.Identical() {
		t.Error("shrunk layer set reported identical")
	}
	if len(d.OnlyA) != 1 || d.OnlyA[0] != "fc" {
		t.Errorf("OnlyA = %v", d.OnlyA)
	}

	// Same shape, renamed layer: compared positionally but not identical.
	c := manifest(t, "c", "sha256:same", "net",
		layer(0, "conv1x1", 100, 0, 0.8), layer(1, "fc", 50, 0, 0.9))
	if dc := Diff(a, c, 0.05); dc.Identical() || dc.Layers[0].NameB != "conv1x1" {
		t.Errorf("renamed layer not surfaced: %+v", dc.Layers[0])
	}
}

func TestTopRanksStallFraction(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(manifest(t, "a", "sha256:aaaa", "net1",
		layer(0, "mild", 90, 10, 0.8),    // 10% stall
		layer(1, "clean", 100, 0, 0.9))); // filtered out
	err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(manifest(t, "b", "sha256:bbbb", "net2",
		layer(0, "bad", 50, 50, 0.4))); // 50% stall
	err != nil {
		t.Fatal(err)
	}
	top, err := s.Top(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("Top = %d layers, want 2 (stall-free filtered)", len(top))
	}
	if top[0].Name != "bad" || top[0].StallFraction != 0.5 {
		t.Errorf("top[0] = %+v", top[0])
	}
	if top[1].Name != "mild" || top[1].StallFraction != 0.1 {
		t.Errorf("top[1] = %+v", top[1])
	}
	if limited, _ := s.Top(1); len(limited) != 1 || limited[0].Name != "bad" {
		t.Errorf("Top(1) = %+v", limited)
	}
}
