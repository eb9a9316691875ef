package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/engine"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/log"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
)

// perNodeReference rebuilds run the way no plan ever takes part in: one
// SimulateNode call per node, in order, on a fresh simulator (a one-node
// plan replays nothing), joined exactly as runNodes joins.
func perNodeReference(t *testing.T, cfg config.Config, opt Options, run RunResult, nodes []topology.Node) RunResult {
	t.Helper()
	sim := newSim(t, cfg, opt)
	ref := RunResult{Config: run.Config, Topology: run.Topology, Graph: run.Graph}
	for _, n := range nodes {
		lr, err := sim.SimulateNode(n)
		if err != nil {
			t.Fatal(err)
		}
		lr.StartCycle = ref.TotalCycles
		ref.TotalCycles += lr.Compute.Cycles
		ref.TotalMACs += lr.Compute.MACs
		ref.TotalEnergy = ref.TotalEnergy.Add(lr.Energy)
		ref.Layers = append(ref.Layers, lr)
	}
	return ref
}

// requirePlanExact runs g planned at workers 1, 2 and 4 and requires the
// RunResult JSON to equal the per-node reference byte for byte, with one
// engine span per executed job and every other node accounted a replay.
func requirePlanExact(t *testing.T, cfg config.Config, opt Options, g topology.Graph) {
	t.Helper()
	nodes, _, err := g.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, n := range nodes {
		distinct[n.Key()] = true
	}
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		o := opt
		o.Workers, o.Obs = workers, obsv.NewRecorder()
		res, err := newSim(t, cfg, o).SimulateGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = resultJSON(t, perNodeReference(t, cfg, opt, res, nodes))
		}
		if got := resultJSON(t, res); !bytes.Equal(got, want) {
			t.Fatalf("%s workers=%d: planned run differs from the per-node loop", g.Name, workers)
		}
		if got := len(o.Obs.Spans()); got != len(distinct) {
			t.Errorf("%s workers=%d: %d engine spans, want one per distinct node (%d)", g.Name, workers, got, len(distinct))
		}
		m := o.Obs.Metrics()
		sim, rep := m.Counter("core.nodes_simulated").Value(), m.Counter("core.nodes_replayed").Value()
		if int(sim) != len(distinct) || int(sim+rep) != len(nodes) {
			t.Errorf("%s workers=%d: simulated %d replayed %d, want %d and %d",
				g.Name, workers, sim, rep, len(distinct), len(nodes)-len(distinct))
		}
	}
}

func TestPlanMatchesPerNodeLoop(t *testing.T) {
	ddr := dram.DDR3()
	bertTiny, err := topology.BuiltInGraph("BERTTiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, df := range config.Dataflows {
		requirePlanExact(t, config.New().WithArray(8, 8).WithDataflow(df),
			Options{DRAM: &ddr, DRAMBandwidth: 2}, bertTiny)
	}
	if testing.Short() {
		t.Skip("full ResNet50 and BERTBase; skipped in -short")
	}
	requirePlanExact(t, config.New().WithArray(16, 16), Options{}, topology.ChainGraph(topology.ResNet50()))
	bertBase, err := topology.BuiltInGraph("BERTBase")
	if err != nil {
		t.Fatal(err)
	}
	requirePlanExact(t, config.New(), Options{DRAM: &ddr, DRAMBandwidth: 4}, bertBase)
}

// TestPlanRandomGraphs repeats a few shapes under fresh names and every
// operator kind: only nodes equal in kind *and* shape may share a
// simulation — a GEMM and a same-shaped attention score must not merge.
func TestPlanRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ddr := dram.DDR3()
	for trial := 0; trial < 12; trial++ {
		gemms := []topology.Layer{
			topology.FromGEMM("", 1+rng.Intn(24), 1+rng.Intn(24), 1+rng.Intn(24)),
			topology.FromGEMM("", 1+rng.Intn(24), 1+rng.Intn(24), 1+rng.Intn(24)),
			{IfmapH: 6 + rng.Intn(6), IfmapW: 6 + rng.Intn(6), FilterH: 3, FilterW: 3,
				Channels: 1 + rng.Intn(6), NumFilters: 1 + rng.Intn(12), Stride: 1 + rng.Intn(2)},
		}
		tensors := []topology.Layer{
			topology.FromTensor("", 1+rng.Intn(16), 1+rng.Intn(16)),
			topology.FromTensor("", 1+rng.Intn(16), 1+rng.Intn(16)),
		}
		g := topology.Graph{Name: fmt.Sprintf("rand%d", trial)}
		mixed := map[string]map[topology.OpKind]bool{}
		for i := 0; i < 24; i++ {
			n := topology.Node{Name: fmt.Sprintf("n%d", i), Kind: topology.OpKinds[rng.Intn(len(topology.OpKinds))]}
			if n.Kind.Matmul() {
				n.Layer = gemms[rng.Intn(len(gemms))]
			} else {
				n.Layer = tensors[rng.Intn(len(tensors))]
			}
			if i > 0 {
				n.Inputs = []string{fmt.Sprintf("n%d", rng.Intn(i))}
				if n.Kind == topology.OpElementwise && rng.Intn(2) == 0 {
					n.Operands = 2
				}
			}
			if mixed[n.Layer.Key()] == nil {
				mixed[n.Layer.Key()] = map[topology.OpKind]bool{}
			}
			mixed[n.Layer.Key()][n.Kind] = true
			g.Nodes = append(g.Nodes, n)
		}
		var shared bool
		for _, kinds := range mixed {
			shared = shared || len(kinds) > 1
		}
		if !shared {
			t.Fatalf("%s: no shape occurs under two kinds; the test is vacuous", g.Name)
		}
		cfg := config.New().WithArray(1+rng.Intn(8), 1+rng.Intn(8)).
			WithDataflow(config.Dataflows[rng.Intn(len(config.Dataflows))]).WithSRAM(1, 1, 1)
		opt := Options{}
		if trial%2 == 1 {
			opt = Options{DRAM: &ddr, DRAMBandwidth: 1.5}
		}
		requirePlanExact(t, cfg, opt, g)
	}
}

// miniResNet50 is ResNet50 with every extent shrunk: the same 54 names and
// the same repeated bottleneck blocks, small enough to trace.
func miniResNet50() topology.Topology {
	topo := topology.ResNet50()
	layers := make([]topology.Layer, len(topo.Layers))
	for i, l := range topo.Layers {
		l.IfmapH = l.FilterH + (l.IfmapH-l.FilterH)/8
		l.IfmapW = l.FilterW + (l.IfmapW-l.FilterW)/8
		l.Channels = max(1, l.Channels/32)
		l.NumFilters = max(1, l.NumFilters/32)
		layers[i] = l
	}
	topo.Layers = layers
	return topo
}

// TestPlanIdentityWithLiveConsumers: a consumer that watches the streams
// must see every layer. A TraceDir run simulates all 54 layers and writes
// every trace set; a shared DRAM consumer sees the layers in index order.
func TestPlanIdentityWithLiveConsumers(t *testing.T) {
	topo := miniResNet50()
	cfg := config.New().WithArray(8, 8).WithSRAM(1, 1, 1)

	rec := obsv.NewRecorder()
	planned := runWith(t, cfg, Options{Obs: rec}, topo)
	if got := rec.Metrics().Counter("core.nodes_replayed").Value(); got == 0 {
		t.Fatal("no repeats in the shrunk ResNet50; the test is vacuous")
	}

	dir := t.TempDir()
	rec = obsv.NewRecorder()
	traced := runWith(t, cfg, Options{TraceDir: dir, Workers: 2, Obs: rec}, topo)
	m := rec.Metrics()
	if sim, rep := m.Counter("core.nodes_simulated").Value(), m.Counter("core.nodes_replayed").Value(); sim != 54 || rep != 0 {
		t.Errorf("traced run simulated %d and replayed %d layers, want 54 and 0", sim, rep)
	}
	if got := len(rec.Spans()); got != 54 {
		t.Errorf("traced run emitted %d engine spans, want 54", got)
	}
	perLayer := map[string]int{}
	for name := range traceFiles(t, dir) {
		for _, l := range topo.Layers {
			if strings.HasPrefix(name, cfg.RunName+"_"+l.Name+"_") {
				perLayer[l.Name]++
			}
		}
	}
	for _, l := range topo.Layers {
		if perLayer[l.Name] != perLayer[topo.Layers[0].Name] || perLayer[l.Name] == 0 {
			t.Errorf("layer %s has %d trace files, %s has %d", l.Name, perLayer[l.Name],
				topo.Layers[0].Name, perLayer[topo.Layers[0].Name])
		}
	}
	if !bytes.Equal(resultJSON(t, traced), resultJSON(t, planned)) {
		t.Error("traced run differs from the planned run")
	}

	// attach wires one recorder to every layer's DRAM reads.
	attach := func(rec *trace.Recorder) engine.Registry {
		return engine.Registry{func(_ engine.Job, set *engine.SinkSet) error {
			set.Attach(engine.DRAMRead, rec)
			return nil
		}}
	}
	shared := &trace.Recorder{}
	runWith(t, cfg, Options{Sinks: attach(shared), Workers: 1}, topo)
	var want []int64
	for _, l := range topo.Layers {
		one := &trace.Recorder{}
		if _, err := newSim(t, cfg, Options{Sinks: attach(one)}).SimulateLayer(l); err != nil {
			t.Fatal(err)
		}
		want = append(want, one.Addresses()...)
	}
	if !reflect.DeepEqual(shared.Addresses(), want) {
		t.Error("shared DRAM consumer did not see every layer's reads in index order")
	}
}

// stepHook is a progress writer that calls hook with each completed
// layer's line: the one place a results-only run calls out to the caller.
type stepHook struct {
	mu   sync.Mutex
	hook func(line string)
}

func (h *stepHook) Write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.hook(string(p))
	return len(p), nil
}

// TestPlanCancelAndFailure: a context cancelled while leaders are still
// being dispatched, or once only replays are left, aborts the run with the
// context's error; a failing node fails the run with the same error at
// every worker count.
func TestPlanCancelAndFailure(t *testing.T) {
	topo := miniResNet50()
	cfg := config.New().WithArray(8, 8).WithSRAM(1, 1, 1)
	for _, workers := range []int{1, 2, 4} {
		for _, after := range []int{3, 30} { // 30 > the distinct shapes: mid-replay
			ctx, cancel := context.WithCancel(context.Background())
			steps := 0
			hook := &stepHook{hook: func(string) {
				if steps++; steps == after {
					cancel()
				}
			}}
			sim := newSim(t, cfg, Options{Workers: workers, Context: ctx, Progress: obsv.NewProgress(hook, "t")})
			_, err := sim.Simulate(topo)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d cancel after %d steps: err = %v, want context.Canceled", workers, after, err)
			}
			if steps < after || steps > after+workers {
				t.Errorf("workers=%d cancel after %d steps: run went on to %d", workers, after, steps)
			}
		}
	}

	var want string
	for _, workers := range []int{1, 2, 4} {
		hook := &stepHook{hook: func(line string) {
			if strings.Contains(line, " Conv1 ") || strings.Contains(line, " FC1000 ") {
				panic("boom")
			}
		}}
		_, err := newSim(t, cfg, Options{Workers: workers, Progress: obsv.NewProgress(hook, "t")}).Simulate(topo)
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("workers=%d: err = %v, want the node's failure", workers, err)
		}
		if want == "" {
			want = err.Error()
		}
		if err.Error() != want {
			t.Errorf("workers=%d: err = %q, workers=1 returned %q", workers, err, want)
		}
	}
}

// TestPlanLogged: the plan is legible from the debug log — one line with
// total, distinct and dispatch order, and replayed=true on replayed nodes.
func TestPlanLogged(t *testing.T) {
	var events bytes.Buffer
	log.SetDefault(log.New(&events, log.LevelDebug))
	defer log.SetDefault(nil)
	runWith(t, config.New().WithArray(8, 8).WithSRAM(1, 1, 1), Options{Workers: 2}, miniResNet50())
	for _, want := range []string{`"msg":"run plan","subsystem":"core","nodes":54,"distinct":`, `"order":[`, `"replayed":true`} {
		if !bytes.Contains(events.Bytes(), []byte(want)) {
			t.Errorf("log missing %s", want)
		}
	}
	if got := bytes.Count(events.Bytes(), []byte(`"msg":"run plan"`)); got != 1 {
		t.Errorf("%d run plan lines, want 1", got)
	}
}
