package job

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"scalesim/internal/analytical"
	"scalesim/internal/batch"
	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/engine"
	"scalesim/internal/obsv"
	"scalesim/internal/partition"
	"scalesim/internal/report"
	"scalesim/internal/runstore"
	"scalesim/internal/simcache"
	"scalesim/internal/topology"
)

func tinySpec() Spec {
	return Spec{
		Config:   config.New().WithArray(8, 8),
		Topology: topology.TinyNet(),
		Workers:  1,
	}
}

// blockGate returns a sink factory that parks the first layer of the
// first job that reaches it until release is closed, plus the channels
// to observe and release it. Later layers pass through freely.
func blockGate() (engine.Factory, chan struct{}, chan struct{}) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	f := func(engine.Job, *engine.SinkSet) error {
		once.Do(func() { close(started) })
		<-release
		return nil
	}
	return f, started, release
}

func TestRunMatchesDirectSimulate(t *testing.T) {
	spec := tinySpec()
	r := NewRunner(Options{Workers: 1})
	defer r.Close(context.Background())
	res, err := r.Run(spec, Live{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	sim, err := core.New(spec.Config, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.Simulate(spec.Topology)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.TotalCycles != direct.TotalCycles {
		t.Fatalf("runner cycles %d != direct %d", res.Run.TotalCycles, direct.TotalCycles)
	}
	var got, want bytes.Buffer
	if err := res.WriteReport(&got, "cycles"); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteCycles(&want, direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("cycles report differs:\n%s\n--\n%s", got.String(), want.String())
	}
	if res.Manifest == nil || res.Manifest.CycleAccounting == nil {
		t.Fatalf("result manifest incomplete: %+v", res.Manifest)
	}
}

func TestSubmitStatusLifecycle(t *testing.T) {
	dir := t.TempDir()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := simcache.New()
	r := NewRunner(Options{Workers: 1, Cache: cache, Store: store, Tool: "scalesimd"})
	defer r.Close(context.Background())

	j, err := r.Submit(tinySpec(), Live{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := j.Status(); got != StatusDone {
		t.Fatalf("status = %v, want done", got)
	}
	in := j.Info()
	if in.ID != j.ID() || in.Status != StatusDone || in.Units != len(topology.TinyNet().Layers) {
		t.Fatalf("bad info: %+v", in)
	}
	if len(in.Progress) == 0 || !strings.Contains(in.Progress[len(in.Progress)-1], "done") {
		t.Fatalf("missing buffered progress tail: %v", in.Progress)
	}
	if j.Result().Manifest.Tool != "scalesimd" {
		t.Fatalf("manifest tool = %q, want scalesimd", j.Result().Manifest.Tool)
	}
	entries, err := store.List()
	if err != nil || len(entries) != 1 {
		t.Fatalf("store entries = %v (err %v), want 1", entries, err)
	}

	// A warm resubmission replays every layer from the shared cache.
	j2, err := r.Submit(tinySpec(), Live{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := j2.Result().Manifest
	if m.Cache == nil || m.Cache.Hits == 0 {
		t.Fatalf("warm resubmission recorded no cache hits: %+v", m.Cache)
	}
	if j2.Result().Run.TotalCycles != j.Result().Run.TotalCycles {
		t.Fatalf("warm cycles %d != cold %d", j2.Result().Run.TotalCycles, j.Result().Run.TotalCycles)
	}
	if r.Metrics().Counter("jobs.completed").Value() != 2 {
		t.Fatalf("completed counter = %d, want 2", r.Metrics().Counter("jobs.completed").Value())
	}
}

func TestSubmitShedsWhenQueueFull(t *testing.T) {
	gate, started, release := blockGate()
	r := NewRunner(Options{Workers: 1, QueueDepth: 1})
	j1, err := r.Submit(tinySpec(), Live{Sinks: engine.Registry{gate}})
	if err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	<-started
	if _, err := r.Submit(tinySpec(), Live{}); err != nil {
		t.Fatalf("Submit 2 (queued): %v", err)
	}
	if _, err := r.Submit(tinySpec(), Live{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit 3 = %v, want ErrQueueFull", err)
	}
	if got := r.Metrics().Counter("jobs.rejected").Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	close(release)
	if err := j1.Wait(context.Background()); err != nil {
		t.Fatalf("job 1: %v", err)
	}
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(tinySpec(), Live{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestRejectedSubmitSplicesOrder pins the load-shedding bookkeeping: a
// rejection must remove the job's id from the listing order even when a
// concurrent submission registered behind it — the interleaving is
// reproduced here by registering two jobs before submitting the first.
// A stale id used to leave a nil job in Jobs(), panicking every list.
func TestRejectedSubmitSplicesOrder(t *testing.T) {
	gate, started, release := blockGate()
	r := NewRunner(Options{Workers: 1, QueueDepth: 1})
	j1, err := r.Submit(tinySpec(), Live{Sinks: engine.Registry{gate}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := r.Submit(tinySpec(), Live{}); err != nil { // fills the queue
		t.Fatal(err)
	}

	noop := func(context.Context, *Job) (*Result, error) { return &Result{}, nil }
	a, err := r.newJob("sim", "a", "a", "a", 1, Live{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.newJob("sim", "b", "b", "b", 1, Live{})
	if err != nil {
		t.Fatal(err)
	}
	// a is rejected while b sits behind it in the order.
	if _, err := r.submit(a, noop, true); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit a = %v, want ErrQueueFull", err)
	}
	jobs := r.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("Jobs() = %d entries, want 3 (running, queued, b)", len(jobs))
	}
	for _, j := range jobs {
		if j == nil {
			t.Fatal("Jobs() returned a nil job after a mid-order rejection")
		}
		_ = j.Info() // must not panic
		if j.ID() == a.id {
			t.Fatalf("rejected job %s still listed", a.id)
		}
	}
	if _, err := r.submit(b, noop, true); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit b = %v, want ErrQueueFull", err)
	}
	if got := len(r.Jobs()); got != 2 {
		t.Fatalf("Jobs() = %d entries after both rejections, want 2", got)
	}

	close(release)
	if err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	gate, started, release := blockGate()
	r := NewRunner(Options{Workers: 1, QueueDepth: 2})
	j1, err := r.Submit(tinySpec(), Live{Sinks: engine.Registry{gate}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, err := r.Submit(tinySpec(), Live{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Cancel(j2.ID()); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	if err := j2.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued-cancel Wait = %v, want context.Canceled", err)
	}
	if got := j2.Status(); got != StatusCancelled {
		t.Fatalf("status = %v, want cancelled", got)
	}
	close(release)
	if err := j1.Wait(context.Background()); err != nil {
		t.Fatalf("job 1 should complete: %v", err)
	}
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := r.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel unknown = %v, want ErrNotFound", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	gate, started, release := blockGate()
	r := NewRunner(Options{Workers: 1})
	j, err := r.Submit(tinySpec(), Live{Sinks: engine.Registry{gate}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is mid-layer-0
	if err := r.Cancel(j.ID()); err != nil {
		t.Fatalf("Cancel running: %v", err)
	}
	close(release) // layer 0 finishes; the next layer sees the dead context
	if err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("running-cancel Wait = %v, want context.Canceled", err)
	}
	if got := j.Status(); got != StatusCancelled {
		t.Fatalf("status = %v, want cancelled", got)
	}
	if got := r.Metrics().Counter("jobs.cancelled").Value(); got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// scaleOutSpec is TinyNet on a 1x2 grid of 8x8 arrays sharing 4/4/2 KiB.
func scaleOutSpec() Spec {
	s := tinySpec()
	s.Config = s.Config.WithSRAM(4, 4, 2)
	s.Parts = analytical.Partitioning{Pr: 1, Pc: 2}
	return s
}

// TestScaleOutMatchesPartitionRun: a Parts job is the run of every layer
// partition.Run states, nothing more — same joined results in its
// RunResult, and the scaleout report is the table the scalesim CLI prints
// for -parts.
func TestScaleOutMatchesPartitionRun(t *testing.T) {
	spec := scaleOutSpec()
	r := NewRunner(Options{Workers: 1})
	defer r.Close(context.Background())
	res, err := r.Run(spec, Live{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Run.Layers) != len(spec.Topology.Layers) || res.Run.Parts == nil || *res.Run.Parts != spec.Parts {
		t.Fatalf("%d layer results for %d layers, grid %v", len(res.Run.Layers), len(spec.Topology.Layers), res.Run.Parts)
	}
	system := partition.Spec{Parts: spec.Parts, Shape: analytical.Shape{R: 8, C: 8}}
	for i, l := range spec.Topology.Layers {
		want, err := partition.Run(l, spec.Config, system, partition.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Run.Layers[i]
		got.StartCycle = 0 // the layer's place in the run, not its result
		if !reflect.DeepEqual(got, want.Node) {
			t.Errorf("layer %s: runner\n%+v\ndirect\n%+v", l.Name, got, want.Node)
		}
	}

	if got := res.Reports(); len(got) != 1 || got[0] != "scaleout" {
		t.Fatalf("Reports() = %v, want [scaleout]", got)
	}
	const table = "Layer,Cycles,AvgBW,PeakBW,DRAMReads,DRAMWrites,EnergyTotal\n" +
		"conv1,245,3.6245,10.5000,600,288,228832\n" +
		"conv2,188,10.5532,24.6562,1728,256,450048\n" +
		"fc1,278,11.0863,12.1562,3072,10,670476\n" +
		"TOTAL,711,,,,,\n"
	var got bytes.Buffer
	if err := res.WriteReport(&got, "scaleout"); err != nil {
		t.Fatal(err)
	}
	if got.String() != table {
		t.Errorf("scaleout report:\n%s\nwant:\n%s", got.String(), table)
	}
	if err := res.WriteReport(&got, "cycles"); err == nil || !strings.Contains(err.Error(), `"cycles"`) {
		t.Errorf("WriteReport(cycles) on a scale-out result = %v, want an error naming it", err)
	}

	m := res.Manifest
	if m == nil || m.Workers != 1 || len(m.Layers) != 3 || m.CycleAccounting == nil {
		t.Fatalf("scale-out manifest incomplete: %+v", m)
	}
	if err := m.CycleAccounting.Check(); err != nil {
		t.Error(err)
	}

	// Sibling partitions would share trace file names, so the consumers
	// that write per-layer files are refused before the job is queued.
	for field, live := range map[string]Live{"TraceDir": {TraceDir: t.TempDir()},
		"Sinks": {Sinks: engine.Registry{engine.CSVTrace(t.TempDir())}}} {
		if _, err := r.Submit(spec, live); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("Submit(%+v) = %v, want a refusal naming %s", live, err, field)
		}
	}
	if n := len(r.Jobs()); n != 1 {
		t.Errorf("%d jobs registered, want only the one that ran", n)
	}
}

// gateWriter parks the first write that reaches it until release closes —
// as a scale-out job's progress writer, that is the end of its first layer.
type gateWriter struct {
	once             sync.Once
	started, release chan struct{}
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.started) })
	<-g.release
	return len(p), nil
}

// TestCancelScaleOutJob: cancellation covers a Parts job like any other —
// a running one stops at the next layer boundary, a queued one never
// starts.
func TestCancelScaleOutJob(t *testing.T) {
	gate := &gateWriter{started: make(chan struct{}), release: make(chan struct{})}
	r := NewRunner(Options{Workers: 1, QueueDepth: 2})
	running, err := r.Submit(scaleOutSpec(), Live{Progress: obsv.NewProgress(gate, "so")})
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started // layer 0 is done and reporting
	queued, err := r.Submit(scaleOutSpec(), Live{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{queued, running} {
		if err := r.Cancel(j.ID()); err != nil {
			t.Fatalf("Cancel %s: %v", j.ID(), err)
		}
	}
	close(gate.release) // the loop reaches layer 1 and sees the dead context
	for _, j := range []*Job{queued, running} {
		if err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Wait = %v, want context.Canceled", j.ID(), err)
		}
		if j.Status() != StatusCancelled || j.Result() != nil {
			t.Fatalf("%s: status %v, result %v", j.ID(), j.Status(), j.Result())
		}
	}
	if lines := queued.Info().Progress; len(lines) != 0 {
		t.Errorf("a job cancelled while queued reported progress: %v", lines)
	}
	if got := r.Metrics().Counter("jobs.cancelled").Value(); got != 2 {
		t.Errorf("cancelled counter = %d, want 2", got)
	}
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCloseDrainsAndPersists(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate, started, release := blockGate()
	r := NewRunner(Options{Workers: 1, QueueDepth: 2, Store: store})
	j1, err := r.Submit(tinySpec(), Live{Sinks: engine.Registry{gate}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	spec2 := tinySpec()
	spec2.Config = spec2.Config.WithArray(4, 4) // distinct registry key
	j2, err := r.Submit(spec2, Live{})
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() { closed <- r.Close(context.Background()) }()
	// Close must not return while a job is still in flight.
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v before drain", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, j := range []*Job{j1, j2} {
		if got := j.Status(); got != StatusDone {
			t.Fatalf("job %s after drain = %v, want done", j.ID(), got)
		}
	}
	entries, err := store.List()
	if err != nil || len(entries) != 2 {
		t.Fatalf("store entries after drain = %d (err %v), want 2", len(entries), err)
	}
}

func TestSweepThroughRunner(t *testing.T) {
	spec := sweepSpec()
	r := NewRunner(Options{Workers: 1})
	defer r.Close(context.Background())
	res, err := r.RunSweep("grid", spec, Live{})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if !res.IsSweep() || len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Manifest == nil || len(res.Manifest.Layers) != 2 {
		t.Fatalf("sweep manifest incomplete: %+v", res.Manifest)
	}
	if res.Manifest.Run != "grid" {
		t.Fatalf("manifest run = %q, want grid", res.Manifest.Run)
	}
	if err := res.WriteReport(nil, "cycles"); err == nil {
		t.Fatal("sweep results must not expose per-layer reports")
	}
}

func TestCancelQueuedSweep(t *testing.T) {
	gate, started, release := blockGate()
	spec := sweepSpec()
	r := NewRunner(Options{Workers: 1})
	// Park the single worker with a blocked sim job so the sweep sits in
	// the queue, then cancel it there.
	j1, err := r.Submit(tinySpec(), Live{Sinks: engine.Registry{gate}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	js, err := r.EnqueueSweep("grid", spec, Live{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Cancel(js.ID()); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := js.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep Wait = %v, want context.Canceled", err)
	}
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSweepPointIsASpecJob is the seam the sweep body stands on: a grid
// point is a Spec. For every point of a mixed flat+graph grid the sweep's
// Row is batch.RowOf of Runner.Run of that point's Spec, the point's
// content address is that Spec's Key, and a cached sweep returns the same
// rows as an uncached one.
func TestSweepPointIsASpecJob(t *testing.T) {
	g, err := topology.BuiltInGraph("BERTTiny")
	if err != nil {
		t.Fatal(err)
	}
	grid := batch.Spec{
		Base:      config.New(),
		Arrays:    [][2]int{{8, 8}, {16, 4}},
		Dataflows: []config.Dataflow{config.OutputStationary, config.WeightStationary},
		SRAMs:     [][3]int{{2, 2, 1}, {8, 8, 4}},
		Workloads: []topology.Graph{topology.TinyNet().Graph(), g},
		Parallel:  2,
	}
	plain := NewRunner(Options{Workers: 1})
	defer plain.Close(context.Background())
	cache := simcache.New()
	cached := NewRunner(Options{Workers: 1, Cache: cache})
	defer cached.Close(context.Background())
	sweep, err := plain.RunSweep("grid", grid, Live{})
	if err != nil {
		t.Fatal(err)
	}
	points := grid.Points()
	if len(sweep.Rows) != len(points) || len(points) != 16 {
		t.Fatalf("rows = %d, points = %d, want 16 each", len(sweep.Rows), len(points))
	}
	for i, p := range points {
		spec := Spec{Config: p.Config(grid.Base), Graph: &p.Workload, Workers: 1}
		if got, want := batch.PointHash(grid.Base, p), spec.Key(); got != want {
			t.Errorf("%s: PointHash %q != Spec.Key %q", batch.PointLabel(p), got, want)
		}
		res, err := plain.Run(spec, Live{})
		if err != nil {
			t.Fatalf("%s: %v", batch.PointLabel(p), err)
		}
		if want := batch.RowOf(p, res.Run); !reflect.DeepEqual(sweep.Rows[i], want) {
			t.Errorf("%s: sweep row %+v != RowOf(Run(spec)) %+v", batch.PointLabel(p), sweep.Rows[i], want)
		}
	}
	for _, pass := range []string{"cold", "warm"} {
		got, err := cached.RunSweep("grid", grid, Live{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, sweep.Rows) {
			t.Errorf("%s cached sweep rows differ from the uncached sweep's", pass)
		}
	}
	if cache.Stats().Hits == 0 {
		t.Error("the warm sweep replayed nothing from the runner's cache")
	}
}

// TestSweepRefusesInvalidPoint: every point is validated as a Spec before
// a job exists, so one bad point (or an empty grid) refuses the whole
// sweep — naming the point, with no progress line and nothing queued —
// instead of simulating the valid points first.
func TestSweepRefusesInvalidPoint(t *testing.T) {
	r := NewRunner(Options{Workers: 1})
	defer r.Close(context.Background())
	var progress bytes.Buffer
	live := Live{Progress: obsv.NewProgress(&progress, "sweep")}
	grid := sweepSpec()
	grid.Arrays = [][2]int{{8, 8}, {0, 4}}
	_, err := r.EnqueueSweep("grid", grid, live)
	if err == nil || !strings.Contains(err.Error(), "batch: TinyNet on 0x4 os: ") {
		t.Errorf("EnqueueSweep(8x8,0x4) = %v, want a refusal naming TinyNet on 0x4 os", err)
	}
	if _, err := r.EnqueueSweep("grid", batch.Spec{Base: config.New()}, live); err == nil || err.Error() != "batch: no topologies" {
		t.Errorf("EnqueueSweep(empty grid) = %v, want batch: no topologies", err)
	}
	if n := len(r.Jobs()); n != 0 {
		t.Errorf("%d jobs exist after refused sweeps, want 0", n)
	}
	if got := r.Metrics().Counter("jobs.submitted").Value(); got != 0 {
		t.Errorf("jobs.submitted = %d after refused sweeps, want 0", got)
	}
	if progress.Len() != 0 {
		t.Errorf("a refused sweep reported progress:\n%s", progress.String())
	}
}

// TestLineBufferLinesSince pins the cursor semantics the daemon's SSE
// stream depends on: the cursor counts lines ever written, so a reader
// keeps receiving new lines after the sliding tail trims — indexing the
// snapshot would first skip lines, then stall for the rest of the job.
func TestLineBufferLinesSince(t *testing.T) {
	b := newLineBuffer(4)
	write := func(lines ...string) {
		for _, l := range lines {
			if _, err := b.Write([]byte(l + "\n")); err != nil {
				t.Fatal(err)
			}
		}
	}

	write("l0", "l1")
	got, cur := b.LinesSince(0)
	if len(got) != 2 || got[0] != "l0" || cur != 2 {
		t.Fatalf("LinesSince(0) = %v cur %d, want [l0 l1] 2", got, cur)
	}
	// Nothing new: empty batch, cursor stays.
	if got, cur = b.LinesSince(cur); len(got) != 0 || cur != 2 {
		t.Fatalf("LinesSince(2) = %v cur %d, want [] 2", got, cur)
	}

	// Overflow the 4-line tail: l0..l3 are trimmed away.
	write("l2", "l3", "l4", "l5", "l6", "l7")
	got, cur = b.LinesSince(cur)
	if cur != 8 {
		t.Fatalf("cursor = %d, want 8", cur)
	}
	// The reader at 2 gets the retained tail (l4..l7); l2/l3 are gone
	// but must not wedge the stream.
	if len(got) != 4 || got[0] != "l4" || got[3] != "l7" {
		t.Fatalf("post-trim batch = %v, want [l4 l5 l6 l7]", got)
	}
	write("l8")
	if got, cur = b.LinesSince(cur); len(got) != 1 || got[0] != "l8" || cur != 9 {
		t.Fatalf("after trim, LinesSince = %v cur %d, want [l8] 9", got, cur)
	}
	// A cursor beyond total clamps rather than slicing out of range.
	if got, cur = b.LinesSince(100); len(got) != 0 || cur != 9 {
		t.Fatalf("clamped LinesSince = %v cur %d, want [] 9", got, cur)
	}
}

func sweepSpec() batch.Spec {
	return batch.Spec{
		Base:      config.New(),
		Arrays:    [][2]int{{8, 8}, {16, 16}},
		Workloads: []topology.Graph{topology.TinyNet().Graph()},
		Parallel:  1,
	}
}
