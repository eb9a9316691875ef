package obsv

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"scalesim/internal/obsv/cycleacct"
)

func TestRecorderManifestRoundTrip(t *testing.T) {
	rec := NewRecorder()
	stop := rec.Phase("simulate")
	rec.Metrics().Counter("layers").Add(2)
	rec.Metrics().Histogram("compute_seconds").Observe(0.25)
	rec.ObserveLayer(1, 20*time.Millisecond)
	rec.ObserveLayer(0, 10*time.Millisecond)
	rec.SpanSink().Emit(Span{Index: 0, Worker: 0, Exec: time.Millisecond})
	rec.SpanSink().Emit(Span{Index: 1, Worker: 1, Exec: 2 * time.Millisecond})
	stop()

	m := rec.Manifest()
	m.Tool = "test"
	m.Run = "unit"
	m.ConfigHash = Hash(struct{ A int }{1})
	m.Layers = []LayerMetrics{
		{Index: 0, Name: "conv1", Cycles: 10, WallSeconds: rec.LayerSeconds(0)},
		{Index: 1, Name: "conv2", Cycles: 20, WallSeconds: rec.LayerSeconds(1)},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Phases) != 1 || m.Phases[0].Name != "simulate" || m.Phases[0].Seconds <= 0 {
		t.Errorf("phases = %+v", m.Phases)
	}
	if m.Spans == nil || m.Spans.Jobs != 2 || len(m.Spans.PerWorker) != 2 {
		t.Errorf("spans = %+v", m.Spans)
	}
	if m.Metrics == nil || m.Metrics.Counters["layers"] != 2 {
		t.Errorf("metrics = %+v", m.Metrics)
	}
	if m.Runtime.GoroutineHighWater < 1 || m.Runtime.GOMAXPROCS < 1 {
		t.Errorf("runtime = %+v", m.Runtime)
	}
	if m.Layers[0].WallSeconds <= 0 {
		t.Errorf("layer wall seconds = %v", m.Layers[0].WallSeconds)
	}
	if !strings.HasPrefix(m.ConfigHash, "sha256:") {
		t.Errorf("config hash = %q", m.ConfigHash)
	}

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseManifest(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Tool != "test" || back.Run != "unit" || len(back.Layers) != 2 ||
		back.Spans.Jobs != 2 || back.Layers[1].Cycles != 20 {
		t.Errorf("round trip = %+v", back)
	}
}

// TestRecordRollsUnits pins the one roll-up every job kind publishes
// through: units are numbered in order, entries take the recorder's wall
// times, nodes and entries share index, name and op, roofline rows ride
// along, no units means no account, and open books are an error naming
// the unit.
func TestRecordRollsUnits(t *testing.T) {
	rec := NewRecorder()
	rec.ObserveLayer(1, 5*time.Millisecond)
	closed := func(cycles int64) *cycleacct.Ledger {
		l := &cycleacct.Ledger{Total: cycles}
		l.Add(cycleacct.PhaseArray, cycleacct.MACActive, cycles)
		return l
	}
	row := cycleacct.NewRooflineRow("fc", "conv", 10, 4, 7, 16, 0, 1)
	m, err := rec.Record([]Unit{
		{Entry: LayerMetrics{Index: 9, Name: "softmax", Op: "softmax", Cycles: 3}, Ledger: closed(3)},
		{Entry: LayerMetrics{Name: "fc", Op: "conv", Cycles: 7}, Ledger: closed(7), Roofline: &row},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	ca := m.CycleAccounting
	if ca == nil || len(ca.Nodes) != 2 || len(m.Layers) != 2 || ca.TotalCycles != 10 {
		t.Fatalf("entries %+v, account %+v", m.Layers, ca)
	}
	for i, e := range m.Layers {
		if n := ca.Nodes[i]; e.Index != i || n.Index != i || n.Name != e.Name || n.Op != e.Op {
			t.Errorf("unit %d: entry %+v, node %d %q %q", i, e, n.Index, n.Name, n.Op)
		}
	}
	if m.Layers[0].WallSeconds != 0 || m.Layers[1].WallSeconds <= 0 {
		t.Errorf("wall seconds %v, %v: want the recorder's", m.Layers[0].WallSeconds, m.Layers[1].WallSeconds)
	}
	if len(ca.Roofline) != 1 || ca.Roofline[0].Name != "fc" {
		t.Errorf("roofline %+v", ca.Roofline)
	}

	if m, err := (*Recorder)(nil).Record(nil); err != nil || m.CycleAccounting != nil || m.Layers != nil {
		t.Errorf("no units: %v, account %+v", err, m)
	}
	open := closed(7)
	open.Total += 7
	for name, l := range map[string]*cycleacct.Ledger{"missing": nil, "unattributed": open} {
		_, err := rec.Record([]Unit{{Entry: LayerMetrics{Name: "conv1"}, Ledger: closed(1)},
			{Entry: LayerMetrics{Name: "conv2"}, Ledger: l}})
		if err == nil || !strings.Contains(err.Error(), `1 "conv2"`) {
			t.Errorf("%s ledger: error %v, want one naming unit 1 \"conv2\"", name, err)
		}
	}
}

func TestManifestValidateRejects(t *testing.T) {
	for name, breakIt := range map[string]func(*Manifest){
		"schema":    func(m *Manifest) { m.Schema = "nope" },
		"created":   func(m *Manifest) { m.Created = "" },
		"runtime":   func(m *Manifest) { m.Runtime.GoVersion = "" },
		"layername": func(m *Manifest) { m.Layers = []LayerMetrics{{Index: 0}} },
	} {
		m := (*Recorder)(nil).Manifest()
		breakIt(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: invalid manifest accepted", name)
		}
	}
	if _, err := ParseManifest([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestManifestSchemaVersions pins the one-live-schema contract: the
// current schema validates, every earlier or unknown one is rejected.
func TestManifestSchemaVersions(t *testing.T) {
	m := (*Recorder)(nil).Manifest()
	if err := m.Validate(); err != nil || m.Schema != "scalesim.manifest/v4" {
		t.Errorf("schema %q rejected: %v", m.Schema, err)
	}
	for _, schema := range []string{"", "scalesim.manifest/v0", "scalesim.manifest/v1", "scalesim.manifest/v2",
		"scalesim.manifest/v3", "scalesim.manifest/v5", "other/v2"} {
		m := (*Recorder)(nil).Manifest()
		m.Schema = schema
		if err := m.Validate(); err == nil {
			t.Errorf("unknown schema %q accepted", schema)
		}
	}
}

// TestManifestProvenance pins the attribution contract: every manifest —
// with or without a recorder — carries the invoking command line, and
// hostname/build info when the platform provides them.
func TestManifestProvenance(t *testing.T) {
	for name, m := range map[string]*Manifest{
		"nil-recorder": (*Recorder)(nil).Manifest(),
		"recorder":     NewRecorder().Manifest(),
	} {
		if m.Provenance == nil {
			t.Fatalf("%s: manifest missing provenance", name)
		}
		if len(m.Provenance.CommandLine) == 0 {
			t.Errorf("%s: provenance missing command line", name)
		}
	}

	p := CollectProvenance()
	if host, err := os.Hostname(); err == nil && p.Hostname != host {
		t.Errorf("hostname = %q, want %q", p.Hostname, host)
	}
	// Provenance must survive the JSON round trip and stay optional: a
	// document without the field still parses.
	m := NewRecorder().Manifest()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseManifest(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Provenance == nil || len(back.Provenance.CommandLine) == 0 {
		t.Errorf("provenance lost in round trip: %+v", back.Provenance)
	}
	bare := []byte(`{"schema":"scalesim.manifest/v4","created":"2026-01-01T00:00:00Z",
		"runtime":{"go_version":"go1.22","num_cpu":1,"gomaxprocs":1}}`)
	if _, err := ParseManifest(bare); err != nil {
		t.Errorf("manifest without provenance rejected: %v", err)
	}
}

// TestLayerTimingsOrdered: wall times are kept by unit index whatever
// the order they complete in, and an unobserved index reads zero.
func TestLayerTimingsOrdered(t *testing.T) {
	rec := NewRecorder()
	rec.ObserveLayer(2, 3*time.Millisecond)
	rec.ObserveLayer(0, time.Millisecond)
	rec.ObserveLayer(1, 2*time.Millisecond)
	for i, want := range []float64{0.001, 0.002, 0.003, 0} {
		if got := rec.LayerSeconds(i); got != want {
			t.Errorf("LayerSeconds(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestHashStable(t *testing.T) {
	type cfg struct{ A, B int }
	if Hash(cfg{1, 2}) != Hash(cfg{1, 2}) {
		t.Error("hash not stable")
	}
	if Hash(cfg{1, 2}) == Hash(cfg{2, 1}) {
		t.Error("hash ignores field values")
	}
}

func TestManifestSearchStatsRoundTrip(t *testing.T) {
	m := (*Recorder)(nil).Manifest()
	m.Search = &SearchStats{
		GridPoints: 1200, Candidates: 600, Scored: 1200,
		BandCandidates: 40, CutCandidates: 560,
		BandPoints: 80, RefinedPoints: 40,
		Epsilon: 0.1, Shard: 1, Shards: 2,
		Tier1Seconds: 0.004, Tier1PointsPerSec: 3e5,
		MaxRelErr: 0, MeanRelErr: 0,
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"cut_candidates": 560`) {
		t.Errorf("search block not serialized: %s", buf.String())
	}
	back, err := ParseManifest(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Search == nil || back.Search.CutCandidates != 560 ||
		back.Search.Shards != 2 || back.Search.Epsilon != 0.1 {
		t.Errorf("round trip search = %+v", back.Search)
	}
	// Manifests without the block still validate (older documents).
	m.Search = nil
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
