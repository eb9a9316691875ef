package dse

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"scalesim/internal/batch"
	"scalesim/internal/config"
	"scalesim/internal/job"
	"scalesim/internal/obsv"
	"scalesim/internal/simcache"
	"scalesim/internal/topology"
)

// testRunner is the one-worker Runner a CLI would hand Explore, closed
// with the test.
func testRunner(t testing.TB, cache *simcache.Cache) *job.Runner {
	t.Helper()
	r := job.NewRunner(job.Options{Workers: 1, QueueDepth: 1, Cache: cache})
	t.Cleanup(func() { _ = r.Close(context.Background()) })
	return r
}

// tinyGrid is a grid small enough to exhaust cycle-accurately, rich
// enough to exercise every axis; tinyEps is the band width it is searched
// with.
func tinyGrid() batch.Spec {
	return batch.Spec{
		Base:   config.New(),
		Arrays: [][2]int{{4, 4}, {8, 8}, {16, 16}, {32, 8}},
		Dataflows: []config.Dataflow{
			config.OutputStationary, config.WeightStationary,
		},
		SRAMs:      [][3]int{{2, 2, 1}, {4, 4, 2}},
		Topologies: []topology.Topology{topology.TinyNet()},
	}
}

const tinyEps = 0.1

// exhaustive simulates the full grid as a plain sweep job.
func exhaustive(t *testing.T, s batch.Spec) []batch.Row {
	t.Helper()
	res, err := testRunner(t, nil).RunSweep("sweep", s, job.Live{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// TestTieredMatchesExhaustive: the refined band must contain every
// workload's true cycle-accurate optimum — the band cut loses breadth,
// never the winner.
func TestTieredMatchesExhaustive(t *testing.T) {
	s := tinyGrid()
	res, err := Explore(s, Options{Epsilon: tinyEps}, testRunner(t, nil), job.Live{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RefinedPoints == 0 {
		t.Fatal("no points refined")
	}
	if res.Stats.RefinedPoints > res.Stats.GridPoints {
		t.Fatalf("refined %d > grid %d", res.Stats.RefinedPoints, res.Stats.GridPoints)
	}
	fastest := func(rows []batch.Row) map[string]int64 {
		byNet := make(map[string]int64)
		for _, r := range rows {
			if cur, ok := byNet[r.Net]; !ok || r.TotalCycles < cur {
				byNet[r.Net] = r.TotalCycles
			}
		}
		return byNet
	}
	refined := make([]batch.Row, len(res.Rows))
	for i, r := range res.Rows {
		refined[i] = r.Batch
	}
	best := fastest(refined)
	for net, want := range fastest(exhaustive(t, s)) {
		got, ok := best[net]
		if !ok {
			t.Fatalf("net %s missing from tiered result", net)
		}
		if got != want {
			t.Errorf("net %s: tiered best %d cycles, exhaustive best %d", net, got, want)
		}
	}
}

// TestRelErrZeroStallFree: with the default configuration (EdgeTrim off,
// unconstrained DRAM) the simulator is stall-free, so the analytical
// model is exact and the measured band error must be zero.
func TestRelErrZeroStallFree(t *testing.T) {
	res, err := Explore(tinyGrid(), Options{Epsilon: tinyEps}, testRunner(t, nil), job.Live{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxRelErr != 0 {
		t.Errorf("max rel err = %g, want 0 (stall-free default config)", res.Stats.MaxRelErr)
	}
	for _, r := range res.Rows {
		if r.AnalyticalCycles != r.Batch.TotalCycles {
			t.Errorf("point %d: analytical %d != measured %d",
				r.Index, r.AnalyticalCycles, r.Batch.TotalCycles)
		}
	}
}

// TestEpsilonWidensBand: a wider ε keeps at least as many candidates,
// and ε large enough keeps everything.
func TestEpsilonWidensBand(t *testing.T) {
	s := tinyGrid()
	var prev int64 = -1
	for _, eps := range []float64{0, 0.1, 1e9, math.Inf(1)} {
		res, err := Explore(s, Options{Epsilon: eps, Tier1Only: true}, testRunner(t, nil), job.Live{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.BandCandidates < prev {
			t.Errorf("eps=%g band %d < previous %d", eps, res.Stats.BandCandidates, prev)
		}
		prev = res.Stats.BandCandidates
	}
	if prev != int64(len(s.Arrays)*len(s.Dataflows)) {
		t.Errorf("+Inf eps kept %d candidates, want all %d", prev, len(s.Arrays)*len(s.Dataflows))
	}
}

// TestShardMergeByteIdentical: two shards, each with its own cache dir,
// merged via part files, must produce a CSV byte-identical to the
// unsharded run.
func TestShardMergeByteIdentical(t *testing.T) {
	s := tinyGrid()
	dir := t.TempDir()

	whole, err := Explore(s, Options{Epsilon: tinyEps}, testRunner(t, nil), job.Live{})
	if err != nil {
		t.Fatal(err)
	}
	var wholeCSV bytes.Buffer
	if err := WriteCSV(&wholeCSV, whole.Rows); err != nil {
		t.Fatal(err)
	}

	paths := make([]string, 2)
	for shard := 0; shard < 2; shard++ {
		res, err := Explore(s, Options{Epsilon: tinyEps, Shard: shard, Shards: 2}, testRunner(t, nil), job.Live{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Fingerprint != whole.Fingerprint {
			t.Fatalf("shard %d fingerprint %s != %s", shard, res.Fingerprint, whole.Fingerprint)
		}
		paths[shard] = filepath.Join(dir, "part-"+string(rune('0'+shard))+".jsonl")
		if err := WritePart(paths[shard], res); err != nil {
			t.Fatal(err)
		}
	}

	merged, err := MergeFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Stats.RefinedPoints != whole.Stats.RefinedPoints {
		t.Fatalf("merged %d points, unsharded %d", merged.Stats.RefinedPoints, whole.Stats.RefinedPoints)
	}
	var mergedCSV bytes.Buffer
	if err := WriteCSV(&mergedCSV, merged.Rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedCSV.Bytes(), wholeCSV.Bytes()) {
		t.Errorf("merged CSV differs from unsharded CSV:\nmerged:\n%s\nunsharded:\n%s",
			mergedCSV.String(), wholeCSV.String())
	}
}

// TestMergeRejects: merging refuses foreign or incomplete parts.
func TestMergeRejects(t *testing.T) {
	s := tinyGrid()
	dir := t.TempDir()
	shard0, err := Explore(s, Options{Epsilon: tinyEps, Shard: 0, Shards: 2}, testRunner(t, nil), job.Live{})
	if err != nil {
		t.Fatal(err)
	}
	p0 := filepath.Join(dir, "p0.jsonl")
	if err := WritePart(p0, shard0); err != nil {
		t.Fatal(err)
	}

	// Incomplete: one shard alone cannot cover the band.
	if _, err := MergeFiles([]string{p0}); err == nil {
		t.Error("merge of an incomplete shard set succeeded")
	}

	// Foreign: a different search's part must be refused.
	o, err := Explore(s, Options{Epsilon: 0.5, Shard: 1, Shards: 2}, testRunner(t, nil), job.Live{})
	if err != nil {
		t.Fatal(err)
	}
	po := filepath.Join(dir, "po.jsonl")
	if err := WritePart(po, o); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeFiles([]string{p0, po}); err == nil {
		t.Error("merge across fingerprints succeeded")
	}
}

// TestMergeRefusesOpenBooks: a part row whose ledger is missing, or whose
// bins fall short of its total, fails the merge by the row's name — a
// merged manifest is never published without its cycle account.
func TestMergeRefusesOpenBooks(t *testing.T) {
	whole, err := Explore(tinyGrid(), Options{Epsilon: tinyEps}, testRunner(t, nil), job.Live{})
	if err != nil {
		t.Fatal(err)
	}
	for name, breakIt := range map[string]func(*Row){
		"null ledger": func(r *Row) { r.Batch.Ledger = nil },
		"7 unbinned":  func(r *Row) { r.Batch.Ledger.Total += 7 },
	} {
		rows := make([]Row, len(whole.Rows))
		for i, r := range whole.Rows {
			led := r.Batch.Ledger.Clone()
			r.Batch.Ledger = &led
			rows[i] = r
		}
		bad := &rows[1]
		breakIt(bad)
		_, err := Merge([]*Part{{Header: partHeader{Fingerprint: whole.Fingerprint,
			BandPoints: whole.Stats.BandPoints, Search: whole.Stats}, Rows: rows}})
		if err == nil || !strings.Contains(err.Error(), bad.Batch.Label()) {
			t.Errorf("%s: merge error %v, want one naming %s", name, err, bad.Batch.Label())
		}
	}
}

// TestPartRoundTrip: WritePart/ReadPart preserve header and rows.
func TestPartRoundTrip(t *testing.T) {
	s := tinyGrid()
	res, err := Explore(s, Options{Epsilon: tinyEps}, testRunner(t, nil), job.Live{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "part.jsonl")
	if err := WritePart(path, res); err != nil {
		t.Fatal(err)
	}
	p, err := ReadPart(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Header.Fingerprint != res.Fingerprint || p.Header.BandPoints != res.Stats.BandPoints {
		t.Errorf("header = %+v, want fingerprint %s band %d",
			p.Header, res.Fingerprint, res.Stats.BandPoints)
	}
	if len(p.Rows) != len(res.Rows) {
		t.Fatalf("rows = %d, want %d", len(p.Rows), len(res.Rows))
	}
	for i := range p.Rows {
		if p.Rows[i].Index != res.Rows[i].Index || p.Rows[i].Hash != res.Rows[i].Hash ||
			p.Rows[i].Batch.TotalCycles != res.Rows[i].Batch.TotalCycles {
			t.Errorf("row %d = %+v, want %+v", i, p.Rows[i], res.Rows[i])
		}
	}
}

// TestSpaceValidation: a search the tiers cannot run is refused by name
// before anything is scored — an empty or malformed grid, a band width
// that is not one (NaN makes every band comparison false and so cut even
// the fronts), and a shard outside its shard count.
func TestSpaceValidation(t *testing.T) {
	bert, err := topology.BuiltInGraph("BERTTiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		edit func(*batch.Spec, *Options)
		want string
	}{
		{"empty grid", func(s *batch.Spec, _ *Options) { *s = batch.Spec{Base: s.Base} }, "no workloads"},
		{"no workloads", func(s *batch.Spec, _ *Options) { s.Topologies = nil }, "no workloads"},
		{"no layers", func(s *batch.Spec, _ *Options) {
			s.Topologies = append(s.Topologies, topology.Topology{Name: "Hollow"})
		}, `"Hollow" has no layers`},
		{"graph", func(s *batch.Spec, _ *Options) { s.Graphs = []topology.Graph{bert} }, `"BERTTiny" is an operator graph`},
		{"point list", func(s *batch.Spec, _ *Options) { s.PointList = s.Points() }, "point list"},
		{"no arrays", func(s *batch.Spec, _ *Options) { s.Arrays = nil }, "no array shapes"},
		{"zero array", func(s *batch.Spec, _ *Options) { s.Arrays = append(s.Arrays, [2]int{0, 4}) }, "0x4"},
		{"NaN eps", func(_ *batch.Spec, o *Options) { o.Epsilon = math.NaN() }, "eps NaN"},
		{"negative eps", func(_ *batch.Spec, o *Options) { o.Epsilon = -1 }, "eps -1"},
		{"shard past n", func(_ *batch.Spec, o *Options) { o.Shard, o.Shards = 3, 2 }, "shard 3/2"},
		{"shard of none", func(_ *batch.Spec, o *Options) { o.Shard, o.Shards = 1, 0 }, "shard 1/0"},
		{"negative shard", func(_ *batch.Spec, o *Options) { o.Shard, o.Shards = -1, 2 }, "shard -1/2"},
		{"negative shards", func(_ *batch.Spec, o *Options) { o.Shards = -2 }, "shard 0/-2"},
	} {
		s, opt := tinyGrid(), Options{Epsilon: tinyEps}
		c.edit(&s, &opt)
		res, err := Explore(s, opt, testRunner(t, nil), job.Live{})
		if err == nil || res != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Explore = %v, %v; want an error naming %q", c.name, res, err, c.want)
		}
	}
}

// TestEmptyShard: a shard that owns no band point is a valid shard. On a
// one-point band one of two shards is necessarily empty; both must
// succeed, round-trip their part files and merge into the unsharded
// result.
func TestEmptyShard(t *testing.T) {
	s := batch.Spec{Base: config.New(), Arrays: [][2]int{{8, 8}},
		Topologies: []topology.Topology{topology.TinyNet()}}
	whole, err := Explore(s, Options{}, testRunner(t, nil), job.Live{})
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Band) != 1 {
		t.Fatalf("band = %d points, want 1", len(whole.Band))
	}
	dir := t.TempDir()
	var paths []string
	var refined int64
	for shard := 0; shard < 2; shard++ {
		res, err := Explore(s, Options{Shard: shard, Shards: 2}, testRunner(t, nil), job.Live{})
		if err != nil {
			t.Fatalf("shard %d/2: %v", shard, err)
		}
		if len(res.Band) != 1 || res.Stats.BandCandidates != whole.Stats.BandCandidates ||
			res.Stats.CutCandidates != whole.Stats.CutCandidates {
			t.Errorf("shard %d/2: band %d, stats %+v", shard, len(res.Band), res.Stats)
		}
		if int64(len(res.Rows)) != res.Stats.RefinedPoints {
			t.Errorf("shard %d/2: %d rows, RefinedPoints %d", shard, len(res.Rows), res.Stats.RefinedPoints)
		}
		refined += res.Stats.RefinedPoints
		path := filepath.Join(dir, "part-"+string(rune('0'+shard))+".jsonl")
		if err := WritePart(path, res); err != nil {
			t.Fatal(err)
		}
		p, err := ReadPart(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Rows) != len(res.Rows) || p.Header.Fingerprint != whole.Fingerprint || p.Header.BandPoints != 1 {
			t.Errorf("shard %d/2: part round trip: %d rows, header %+v", shard, len(p.Rows), p.Header)
		}
		paths = append(paths, path)
	}
	if refined != 1 {
		t.Errorf("shards refined %d points in total, want 1", refined)
	}
	merged, err := MergeFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Rows, whole.Rows) {
		t.Errorf("merged rows %+v\nunsharded   %+v", merged.Rows, whole.Rows)
	}
}

// TestSearchManifest: the search's manifest is the sweep job's under the
// search's identity — run "dse", entries and cycle nodes numbered by band
// index, a cycle account that closes over the rows — and the merged
// manifest's cycle account equals the unsharded run's.
func TestSearchManifest(t *testing.T) {
	s := tinyGrid()
	whole, err := Explore(s, Options{Epsilon: tinyEps}, testRunner(t, nil), job.Live{Obs: obsv.NewRecorder()})
	if err != nil {
		t.Fatal(err)
	}
	var parts []*Part
	for shard := 0; shard < 2; shard++ {
		res, err := Explore(s, Options{Epsilon: tinyEps, Shard: shard, Shards: 2}, testRunner(t, nil), job.Live{})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, &Part{Header: partHeader{Fingerprint: res.Fingerprint,
			BandPoints: res.Stats.BandPoints, Search: res.Stats}, Rows: res.Rows})
		checkManifest(t, res)
	}
	merged, err := Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	checkManifest(t, whole)
	checkManifest(t, merged)
	if !reflect.DeepEqual(merged.Manifest.CycleAccounting, whole.Manifest.CycleAccounting) {
		t.Errorf("merged cycle account differs from the unsharded run's")
	}
	if err := whole.Manifest.Validate(); err != nil {
		t.Error(err)
	}
}

func checkManifest(t *testing.T, res *Result) {
	t.Helper()
	m := res.Manifest
	if m.Tool != "scaledse" || m.Run != "dse" || m.ConfigHash != res.BaseHash ||
		m.Search == nil || m.Search.RefinedPoints != int64(len(res.Rows)) {
		t.Fatalf("identity: tool %q run %q hash %q search %+v", m.Tool, m.Run, m.ConfigHash, m.Search)
	}
	ca := m.CycleAccounting
	if ca == nil || len(ca.Nodes) != len(res.Rows) || len(m.Layers) != len(res.Rows) {
		t.Fatalf("manifest carries %d entries, cycle account %+v, want %d of each", len(m.Layers), ca, len(res.Rows))
	}
	var total int64
	for i, r := range res.Rows {
		total += r.Batch.TotalCycles
		if m.Layers[i].Index != r.Index || ca.Nodes[i].Index != r.Index || m.Layers[i].Name != r.Batch.Label() {
			t.Errorf("entry %d: index %d/%d name %q, want band index %d of %s",
				i, m.Layers[i].Index, ca.Nodes[i].Index, m.Layers[i].Name, r.Index, r.Batch.Label())
		}
	}
	if ca.TotalCycles != total {
		t.Errorf("cycle account totals %d, rows sum to %d", ca.TotalCycles, total)
	}
}

// TestSharedCache: two identical searches on one Runner share its cache —
// the second replays (cache.hits > 0 in its manifest) into identical rows.
func TestSharedCache(t *testing.T) {
	r := testRunner(t, simcache.New())
	cold, err := Explore(tinyGrid(), Options{Epsilon: tinyEps}, r, job.Live{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Explore(tinyGrid(), Options{Epsilon: tinyEps}, r, job.Live{})
	if err != nil {
		t.Fatal(err)
	}
	if c := warm.Manifest.Cache; c == nil || c.Hits == 0 {
		t.Errorf("second search cache stats = %+v, want hits > 0", c)
	}
	if !reflect.DeepEqual(warm.Rows, cold.Rows) {
		t.Error("replayed rows differ from simulated rows")
	}
}

// TestClosedRunner: a search whose Runner refuses the refinement returns
// the Runner's error, not a partial result.
func TestClosedRunner(t *testing.T) {
	r := testRunner(t, nil)
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := Explore(tinyGrid(), Options{Epsilon: tinyEps}, r, job.Live{})
	if !errors.Is(err, job.ErrClosed) || res != nil {
		t.Errorf("Explore on a closed runner = %v, %v; want nil, job.ErrClosed", res, err)
	}
}

// holdFirstWrite signals its first Write and blocks it until released:
// a progress writer that parks the sweep job after its first point.
type holdFirstWrite struct {
	once             sync.Once
	written, release chan struct{}
}

func (w *holdFirstWrite) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.written)
		<-w.release
	})
	return len(p), nil
}

// TestCancelRefinement: tier 2 is a job like any other — Runner.Cancel on
// the id Jobs() lists stops the search with context.Canceled.
func TestCancelRefinement(t *testing.T) {
	r := testRunner(t, nil)
	w := &holdFirstWrite{written: make(chan struct{}), release: make(chan struct{})}
	grid := tinyGrid()
	grid.Parallel = 1
	done := make(chan error, 1)
	go func() {
		_, err := Explore(grid, Options{Epsilon: tinyEps}, r,
			job.Live{Progress: obsv.NewProgress(w, "test")})
		done <- err
	}()
	select {
	case <-w.written: // the first point is done, the rest of the band is not
	case err := <-done:
		t.Fatalf("search ended before its first point: %v", err)
	}
	jobs := r.Jobs()
	if len(jobs) != 1 || jobs[0].Status() != job.StatusRunning {
		t.Errorf("runner lists %d jobs, want the one running sweep", len(jobs))
	}
	for _, j := range jobs {
		if err := r.Cancel(j.ID()); err != nil {
			t.Error(err)
		}
	}
	close(w.release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled search returned %v, want context.Canceled", err)
	}
}
