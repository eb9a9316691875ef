package batch_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	. "scalesim/internal/batch"
	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/job"
	"scalesim/internal/obsv"
	"scalesim/internal/simcache"
	"scalesim/internal/topology"
)

// run executes the grid the way scalesweep does — one sweep job on a
// one-worker job.Runner over cache (nil = uncached), recorded by rec (nil
// = unrecorded) — and returns its rows.
func run(spec Spec, cache *simcache.Cache, rec *obsv.Recorder) ([]Row, error) {
	r := job.NewRunner(job.Options{Workers: 1, QueueDepth: 1, Cache: cache})
	defer func() { _ = r.Close(context.Background()) }()
	res, err := r.RunSweep("sweep", spec, job.Live{Obs: rec})
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func tinySpec() Spec {
	return Spec{
		Base:       config.New(),
		Arrays:     [][2]int{{8, 8}, {16, 16}},
		Dataflows:  []config.Dataflow{config.OutputStationary, config.WeightStationary},
		SRAMs:      [][3]int{{2, 2, 1}},
		Topologies: []topology.Topology{topology.TinyNet()},
	}
}

func TestPointsExpansion(t *testing.T) {
	spec := tinySpec()
	points := spec.Points()
	if len(points) != 4 { // 2 arrays x 2 dataflows x 1 sram x 1 net
		t.Fatalf("points = %d, want 4", len(points))
	}
	// Defaults: empty axes fall back to the base config.
	minimal := Spec{Base: config.New(), Topologies: spec.Topologies}
	p := minimal.Points()
	if len(p) != 1 {
		t.Fatalf("minimal points = %d", len(p))
	}
	if p[0].Array != [2]int{config.DefaultArrayHeight, config.DefaultArrayWidth} {
		t.Errorf("default array = %v", p[0].Array)
	}
	// WithDefaults is that fallback, axis by axis: it fills only the empty
	// axes, and expanding the defaulted grid changes nothing.
	full := minimal.WithDefaults()
	base := minimal.Base
	if len(full.Arrays) != 1 || len(full.Dataflows) != 1 || full.Dataflows[0] != base.Dataflow ||
		full.SRAMs[0] != [3]int{base.IfmapSRAMKB, base.FilterSRAMKB, base.OfmapSRAMKB} {
		t.Errorf("defaulted axes %v %v %v", full.Arrays, full.Dataflows, full.SRAMs)
	}
	if !reflect.DeepEqual(full.Points(), p) || !reflect.DeepEqual(spec.WithDefaults(), spec) {
		t.Error("WithDefaults changed an expansion or a set axis")
	}
}

func TestRunGrid(t *testing.T) {
	rows, err := run(tinySpec(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Each row matches an independent direct simulation.
	for _, r := range rows {
		cfg := config.New().
			WithArray(r.Array[0], r.Array[1]).
			WithDataflow(r.Dataflow).
			WithSRAM(r.SRAM[0], r.SRAM[1], r.SRAM[2])
		sim, err := core.New(cfg, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sim.Simulate(topology.TinyNet())
		if err != nil {
			t.Fatal(err)
		}
		if r.TotalCycles != direct.TotalCycles {
			t.Errorf("%v %v: cycles %d != direct %d", r.Array, r.Dataflow, r.TotalCycles, direct.TotalCycles)
		}
		if r.EnergyTotal <= 0 || r.AvgBW <= 0 || r.ComputeUtil <= 0 {
			t.Errorf("empty aggregates: %+v", r)
		}
	}
	// Parallel execution returns identical rows.
	spec := tinySpec()
	spec.Parallel = 4
	parallel, err := run(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if !reflect.DeepEqual(rows[i], parallel[i]) {
			t.Errorf("row %d differs under parallelism", i)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := run(Spec{Base: config.New()}, nil, nil); err == nil {
		t.Error("empty spec accepted")
	}
	bad := tinySpec()
	bad.Arrays = [][2]int{{0, 8}}
	if _, err := run(bad, nil, nil); err == nil {
		t.Error("invalid array accepted")
	}
}

// axesCase is one grid spelled both ways: as the exported axis parser
// takes it and as the equivalent [sweep] document (plus any extra INI
// lines only the document can carry).
type axesCase struct {
	axes  Axes
	extra string
}

func (c axesCase) ini() string {
	var b strings.Builder
	b.WriteString("[sweep]\n")
	for _, kv := range [][2]string{{"arrays", c.axes.Arrays}, {"dataflows", c.axes.Dataflows},
		{"srams", c.axes.SRAMs}, {"nets", c.axes.Nets}} {
		if kv[1] != "" {
			b.WriteString(kv[0] + " = " + kv[1] + "\n")
		}
	}
	return b.String() + c.extra
}

// both parses the case through ParseSpec and through Axes.Spec.
func (c axesCase) both() (fromINI, fromAxes Spec, iniErr, axesErr error) {
	fromINI, iniErr = ParseSpec(strings.NewReader(c.ini()), config.New())
	fromAxes, axesErr = c.axes.Spec(config.New())
	return
}

func TestParseSpec(t *testing.T) {
	c := axesCase{axes: Axes{Arrays: "8x8, 16X16", Dataflows: "os, ws", SRAMs: "2/2/1", Nets: "TinyNet"},
		extra: "parallel  = 2\n"}
	spec, direct, err, derr := c.both()
	if err != nil || derr != nil {
		t.Fatal(err, derr)
	}
	if len(spec.Arrays) != 2 || spec.Arrays[1] != [2]int{16, 16} {
		t.Errorf("arrays = %v", spec.Arrays)
	}
	if len(spec.Dataflows) != 2 || spec.Dataflows[1] != config.WeightStationary {
		t.Errorf("dataflows = %v", spec.Dataflows)
	}
	if len(spec.SRAMs) != 1 || spec.SRAMs[0] != [3]int{2, 2, 1} {
		t.Errorf("srams = %v", spec.SRAMs)
	}
	if spec.Parallel != 2 || len(spec.Topologies) != 1 {
		t.Errorf("parallel/nets = %d/%d", spec.Parallel, len(spec.Topologies))
	}
	// parallel is the document's only key the axes do not carry.
	spec.Parallel = 0
	if !reflect.DeepEqual(spec, direct) {
		t.Errorf("ParseSpec and Axes.Spec disagree:\n%+v\n%+v", spec, direct)
	}
}

// TestParseSpecGraphNets: graph workloads mix with flat nets on the
// nets axis and expand into runnable grid points.
func TestParseSpecGraphNets(t *testing.T) {
	c := axesCase{axes: Axes{Arrays: "8x8, 16x16", Nets: "TinyNet, BERTTiny"}}
	spec, direct, err, derr := c.both()
	if err != nil || derr != nil {
		t.Fatal(err, derr)
	}
	if !reflect.DeepEqual(spec, direct) {
		t.Fatalf("ParseSpec and Axes.Spec disagree:\n%+v\n%+v", spec, direct)
	}
	if len(spec.Topologies) != 1 || len(spec.Graphs) != 1 || spec.Graphs[0].Name != "BERTTiny" {
		t.Fatalf("topologies=%d graphs=%d", len(spec.Topologies), len(spec.Graphs))
	}
	points := spec.Points()
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	nets := map[string]int{}
	for _, p := range points {
		nets[p.Net()]++
	}
	if nets["TinyNet"] != 2 || nets["BERTTiny"] != 2 {
		t.Fatalf("net expansion: %v", nets)
	}
	rows, err := run(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TotalCycles <= 0 {
			t.Errorf("%s %v: zero cycles", r.Net, r.Array)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	// Bad axes are refused by both entry points, with the same error.
	for _, axes := range []Axes{
		{Nets: "NoSuchNet"},
		{Arrays: "8by8", Nets: "TinyNet"},
		{Dataflows: "zz", Nets: "TinyNet"},
		{SRAMs: "1-2-3", Nets: "TinyNet"},
		// A shape is exactly its integers: no trailing field is dropped.
		{Arrays: "8x8x9", Nets: "TinyNet"},
		{Arrays: "8x8,16x", Nets: "TinyNet"},
		{SRAMs: "2/2/1/7", Nets: "TinyNet"},
		{SRAMs: "2/2", Nets: "TinyNet"},
		{Arrays: "8x8"}, // no nets
	} {
		_, _, err, derr := axesCase{axes: axes}.both()
		if err == nil || derr == nil || err.Error() != derr.Error() {
			t.Errorf("%+v: ParseSpec error %v, Axes.Spec error %v", axes, err, derr)
		}
	}
	// What only a document can get wrong.
	for _, in := range []string{
		"[sweep]\nparallel = many\nnets = TinyNet\n",
		"[sweep]\nparallel = 2x\nnets = TinyNet\n", // a number is exactly its digits
		"nets = TinyNet\n",                         // key before section
	} {
		if _, err := ParseSpec(strings.NewReader(in), config.New()); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	rows, err := run(tinySpec(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(rows) {
		t.Errorf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[1], "TinyNet,8x8,os,2/2/1,") {
		t.Errorf("row format: %s", lines[1])
	}
}
