// Package core is the top of the simulator stack: it wires the
// cycle-accurate systolic engine, the SRAM/DRAM memory system, the optional
// DRAM timing model and the energy model into a single Simulator that
// executes whole network topologies and collects per-layer and
// whole-network results.
//
// Layers model hardware that executes them serially (the original tool's
// behaviour: one CSV row at a time, in file order), but their simulations
// are independent, so Simulate and SimulateGraph fan them out over
// engine.RunObserved's bounded worker pool (runNodes) and join the results —
// including the serialized cycle offsets — in layer order. Output is
// bit-identical for every worker count. Every layer gets fresh consumers
// (stageSinks): trace files and caller-supplied sinks from engine.Registry
// factories, the DRAM timing model, the stall analyzer and the timeline
// recorder as typed fields of its LayerContext, so nothing is shared across
// worker goroutines and the Simulator holds nothing that belongs to one call.
//
// There is one way to execute a layer. A scale-out partition is a spatial
// window of a layer and runs through the same pipeline on the same fan-out
// (SimulateWindows); package partition only enumerates the windows and
// joins their results.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/energy"
	"scalesim/internal/engine"
	"scalesim/internal/memory"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/cycleacct"
	"scalesim/internal/obsv/log"
	"scalesim/internal/obsv/timeline"
	"scalesim/internal/simcache"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
	"scalesim/internal/vector"
)

// Options tunes a Simulator beyond the architecture configuration.
type Options struct {
	// Energy is the energy model; the zero value selects energy.Eyeriss().
	Energy energy.Model
	// TraceDir, when non-empty, receives per-layer SRAM and DRAM trace CSVs
	// named <run>_<layer>_<stream>.csv.
	TraceDir string
	// DRAM, when non-nil, replays each layer's DRAM traces through the
	// timing model and records its statistics per layer.
	DRAM *dram.Config
	// DRAMBandwidth bounds the memory link in words per cycle; when
	// positive, each layer's stall cycles under that link are computed
	// from the demand traces (LayerResult.StallCycles). Zero means an
	// unbounded link, the paper's stall-free operating point.
	DRAMBandwidth float64
	// Cache, when non-nil, memoizes the pure compute stage of each layer
	// under its canonical key (config hash x layer shape x memory and DRAM
	// bounds) across runs: known shapes replay their recorded cycles,
	// traffic and stall results instead of re-simulating, with
	// byte-identical reports. Repeats inside one run are shared with or
	// without it (see plan.go), so a run looks each distinct key up once
	// and stores each one it computed once. The cache is consulted only
	// when no option demands a live per-layer consumer — trace files,
	// timelines or caller sinks disable it for the run. One cache may be
	// shared by many simulators and goroutines.
	Cache *simcache.Cache
	// Workers bounds how many layers Simulate executes concurrently. Zero
	// picks GOMAXPROCS. Results are identical for every value; set 1 to
	// force the fully sequential original behaviour.
	Workers int
	// Sinks appends caller-supplied per-layer sink factories to the
	// built-in ones (trace files, DRAM timing, stall analysis). Each
	// factory runs once per layer, possibly from concurrent worker
	// goroutines, and must wire fresh consumers each time.
	Sinks engine.Registry
	// Timeline, when non-nil, receives the run as a Chrome Trace Event
	// timeline: per-layer and per-fold spans, stall intervals and windowed
	// bandwidth counters on the simulated-cycle axis, plus the engine's
	// scheduler spans on the host wall-clock axis. Purely additive — all
	// simulation output is byte-identical with or without it. One Writer
	// serves one Simulate call.
	Timeline *timeline.Writer
	// Obs, when non-nil, records run instrumentation: phase wall-clock
	// timings, per-layer wall times and stage histograms, and the
	// engine's scheduler spans. Purely additive — simulation results and
	// traces are byte-identical with or without it; see
	// Simulator.Manifest for the snapshot.
	Obs *obsv.Recorder
	// Progress, when non-nil, receives one step per completed layer
	// (display only; completion order may differ from layer order when
	// Workers > 1).
	Progress *obsv.Progress
	// Context, when non-nil, cancels the run at layer granularity: each
	// layer checks it before starting and a cancelled context aborts the
	// run with the context's error (layers already in flight complete).
	// This is how a job runner stops a running simulation without killing
	// the process; results produced before the abort are discarded.
	Context context.Context
}

// LayerResult is everything the simulator learns about one layer (or
// operator-graph node).
type LayerResult struct {
	// Kind is the node's operator kind; flat-topology layers are conv.
	Kind topology.OpKind
	// Compute is the cycle-accurate systolic result. For vector-shaped
	// nodes it is synthesized — the layer, the serialized cycle count and
	// zero MACs (the array sits idle) — so cycle accounting, reports and
	// manifests treat every node uniformly.
	Compute systolic.Result
	// Vector is the vector-unit result for non-matmul nodes, nil for
	// systolic layers.
	Vector *vector.Result
	// Memory is the SRAM/DRAM traffic summary.
	Memory memory.Report
	// Energy is the layer's energy breakdown.
	Energy energy.Breakdown
	// DRAMStats holds the timing-model statistics when Options.DRAM is set.
	DRAMStats *dram.Stats
	// StallCycles is the extra runtime a bounded DRAM link inflicts; only
	// computed when Options.DRAMBandwidth is positive.
	StallCycles int64
	// StartCycle is the layer's cumulative cycle offset in the serialized
	// execution order; Simulate fills it in after joining the per-layer
	// results (zero for a lone SimulateLayer call).
	StartCycle int64
	// Ledger is the layer's cycle-accounting ledger: every cycle of
	// StalledCycles() binned into the cycleacct taxonomy, with
	// sum(bins) == Total enforced by the analyze stage. Cache hits
	// replay the ledger recorded with the entry.
	Ledger *cycleacct.Ledger
}

// StalledCycles returns the runtime including memory stalls.
func (lr LayerResult) StalledCycles() int64 { return lr.Compute.Cycles + lr.StallCycles }

// RunResult aggregates a whole topology.
type RunResult struct {
	// Config used for the run.
	Config config.Config
	// Topology that was executed. For graph runs it is synthesized from
	// the deterministic execution order (one entry per node), so every
	// report renders uniformly.
	Topology topology.Topology
	// Graph is the operator graph a SimulateGraph run executed; nil for
	// flat-topology runs.
	Graph *topology.Graph
	// Layers holds one result per layer, in execution order.
	Layers []LayerResult
	// TotalCycles is the summed runtime (layers execute serially).
	TotalCycles int64
	// TotalMACs is the summed useful work.
	TotalMACs int64
	// TotalEnergy sums the per-layer breakdowns.
	TotalEnergy energy.Breakdown
}

// DRAMReads returns the network's total DRAM read words.
func (r RunResult) DRAMReads() int64 {
	var n int64
	for _, l := range r.Layers {
		n += l.Memory.DRAMReads()
	}
	return n
}

// DRAMWrites returns the network's total DRAM write words.
func (r RunResult) DRAMWrites() int64 {
	var n int64
	for _, l := range r.Layers {
		n += l.Memory.OfmapDRAMWrites
	}
	return n
}

// AvgBandwidth returns the whole-run average interface bandwidth in bytes
// per cycle.
func (r RunResult) AvgBandwidth() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64((r.DRAMReads()+r.DRAMWrites())*int64(r.Config.WordBytes)) / float64(r.TotalCycles)
}

// Simulator executes layers under one architecture configuration.
type Simulator struct {
	cfg config.Config
	opt Options
	em  energy.Model
	// traces is the trace-file factory when Options.TraceDir is set, empty
	// otherwise.
	traces engine.Registry
	// planned marks that the run is observable through its results alone
	// (see resultsOnly in pipeline.go), so a node's recorded entry may
	// stand in for simulating it: runs are planned (plan.go) and, when
	// cache is set as well, opt.Cache is consulted. Decided once at New,
	// as is the node-independent part of every compute key.
	planned, cache       bool
	keyPrefix, keySuffix string
	// spare holds the memory.Tables of finished nodes for the next node's
	// memory system to adopt, within a run and from run to run, so a
	// Simulator allocates (and zeroes) one set of residency tables per
	// node it runs at once, not one per node. It is a list, not a
	// sync.Pool: a pool keeps what a goroutine put on the processor it ran
	// on, and a worker that migrated missed its own set and allocated
	// another.
	spareMu sync.Mutex
	spare   []*memory.Tables
}

// New validates the configuration and builds a Simulator.
func New(cfg config.Config, opt Options) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch bw := opt.DRAMBandwidth; {
	case bw < 0:
		return nil, fmt.Errorf("core: negative DRAM bandwidth %v", bw)
	case math.IsNaN(bw) || math.IsInf(bw, 0):
		return nil, fmt.Errorf("core: non-finite DRAM bandwidth %v", bw)
	}
	em := opt.Energy
	if em == (energy.Model{}) {
		em = energy.Eyeriss()
	}
	if err := em.Validate(); err != nil {
		return nil, err
	}
	if opt.DRAM != nil {
		if err := opt.DRAM.Validate(); err != nil {
			return nil, err
		}
	}

	s := &Simulator{cfg: cfg, opt: opt, em: em, planned: resultsOnly(opt)}
	if opt.TraceDir != "" {
		s.traces = engine.Registry{engine.CSVTrace(opt.TraceDir)}
	}
	s.cache = s.planned && opt.Cache != nil
	s.keyPrefix, s.keySuffix = keyAffixes(cfg, opt)
	return s, nil
}

// SimulateLayer runs one layer through the map/sinks/compute/analyze
// pipeline (see pipeline.go): mapping and cache lookup, live trace
// consumers, the systolic and memory simulation, DRAM timing, stall and
// energy accounting.
func (s *Simulator) SimulateLayer(l topology.Layer) (LayerResult, error) {
	return s.SimulateNode(topology.NodeOf(l))
}

// SimulateNode runs one operator-graph node through the same pipeline;
// vector-shaped nodes take the vector-unit compute path.
func (s *Simulator) SimulateNode(n topology.Node) (LayerResult, error) {
	ctx := newLayerContext(0, n)
	err := s.runNode(ctx)
	return ctx.Result, err
}

// runNode threads one prepared context through the pipeline stages.
func (s *Simulator) runNode(ctx *LayerContext) error {
	if c := s.opt.Context; c != nil {
		select {
		case <-c.Done():
			return c.Err()
		default:
		}
	}
	defer ctx.close()
	for _, st := range pipeline {
		if st.liveOnly && !ctx.live() {
			continue
		}
		stop := s.opt.Obs.Time(st.timer)
		err := st.fn(s, ctx)
		stop()
		if err != nil {
			log.Default().Error("stage failed", "subsystem", "core",
				"layer", ctx.Layer.Name, "index", ctx.Index, "stage", st.name, "error", err)
			return err
		}
		if lg := log.Default(); lg.Enabled(context.Background(), log.LevelDebug) {
			lg.Debug("stage done", "subsystem", "core", "layer", ctx.Layer.Name, "index", ctx.Index,
				"stage", st.name, "cache_hit", ctx.CacheHit, "replayed", ctx.Replayed)
		}
	}
	return nil
}

// spanSink is where a fan-out's engine spans go: the recorder's sink,
// teed into a collector the timeline's host-engine process is drawn from
// when a timeline is attached (nil otherwise).
func (s *Simulator) spanSink() (obsv.SpanSink, *obsv.SpanRecorder) {
	sink := s.opt.Obs.SpanSink()
	if s.opt.Timeline == nil {
		return sink, nil
	}
	tl := &obsv.SpanRecorder{}
	return obsv.TeeSpans(sink, tl), tl
}

// guarded runs one pipeline job under the name its failures carry. A panic
// in it — a caller's sink, a progress hook — fails the run under that name;
// the engine's own recovery would only know the job index.
func guarded(what string, job func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: %s panicked: %v", what, r)
		}
	}()
	if err := job(); err != nil {
		return fmt.Errorf("core: %s: %w", what, err)
	}
	return nil
}

// WindowRun is what SimulateWindows joins.
type WindowRun struct {
	// Windows holds one result per window, in input order: the window's
	// own cycles, traffic and closed ledger, knowing nothing of its
	// siblings.
	Windows []LayerResult
	// Recorders (aligned with Windows) and Spans carry the run's timeline
	// events when Options.Timeline is set; only the caller knows where its
	// windows go in time (partitions run side by side, layers do not).
	Recorders []*timeline.LayerRecorder
	Spans     []obsv.Span
}

// SimulateWindows runs spatial slices of one layer — the partitions of a
// scale-out system, Eq. 5 — each through the pipeline a whole layer takes
// (a window is a LayerContext with Window set), fanned out over the engine
// like the layers of a topology. Windows are not layers: they report no
// per-layer observation or progress step, and nothing is serialized or
// summed across them; the join (Eq. 6) belongs to the caller.
//
// Per-window consumers are labeled with the layer's name alone, so trace
// files of sibling windows would overwrite one another: TraceDir is
// rejected.
func (s *Simulator) SimulateWindows(l topology.Layer, wins []systolic.Window) (WindowRun, error) {
	if s.opt.TraceDir != "" {
		return WindowRun{}, fmt.Errorf("core: layer %q: per-window trace files are not supported", l.Name)
	}
	spanSink, tlSpans := s.spanSink()
	n := topology.NodeOf(l)
	var run WindowRun
	if s.opt.Timeline != nil {
		run.Recorders = make([]*timeline.LayerRecorder, len(wins))
	}
	var err error
	run.Windows, err = engine.RunObserved(s.opt.Workers, len(wins), spanSink,
		func(i int) (LayerResult, error) {
			ctx := newLayerContext(i, n)
			ctx.Window, ctx.reserve = wins[i], regions(l)
			err := guarded(fmt.Sprintf("layer %q window %+v", l.Name, wins[i]),
				func() error { return s.runNode(ctx) })
			if run.Recorders != nil {
				run.Recorders[i] = ctx.rec
			}
			return ctx.Result, err
		})
	if err != nil {
		return WindowRun{}, err
	}
	run.Spans = tlSpans.Spans()
	return run, nil
}

// Simulate runs every layer of the topology — concurrently up to
// Options.Workers, with results joined in layer order — and aggregates the
// serialized execution totals.
func (s *Simulator) Simulate(topo topology.Topology) (RunResult, error) {
	stop := s.opt.Obs.Phase("core.validate")
	err := topo.Validate()
	stop()
	if err != nil {
		return RunResult{}, err
	}
	nodes := make([]topology.Node, len(topo.Layers))
	for i, l := range topo.Layers {
		nodes[i] = topology.NodeOf(l)
	}
	return s.runNodes(RunResult{Config: s.cfg, Topology: topo}, nodes)
}

// runNodes is the orchestration body behind Simulate and SimulateGraph:
// it executes nodes — the run's execution order, which run.Topology
// already names — and fills in run's results and totals.
//
// The nodes the plan selects (all of them, in order, unless the run is
// planned; see plan.go) fan out over the engine as independent jobs: the
// modeled hardware runs one node at a time whatever the graph's edges say,
// and no node's result depends on another's, so nothing is gained by
// making the host wait on them. The remaining nodes replay their leader's
// entry after the join.
func (s *Simulator) runNodes(run RunResult, nodes []topology.Node) (RunResult, error) {
	noun := "layer"
	if run.Graph != nil {
		noun = "node"
	}
	s.opt.Progress.Start(len(nodes))
	obs := s.opt.Obs
	spanSink, tlSpans := s.spanSink()
	// exec runs one node with the per-node bookkeeping: wall time, progress,
	// and failures that carry the node's name.
	exec := func(ctx *LayerContext) error {
		return guarded(fmt.Sprintf("%s %q", noun, ctx.Layer.Name), func() error {
			var t0 time.Time
			if obs.Enabled() {
				t0 = time.Now()
			}
			if err := s.runNode(ctx); err != nil {
				return err
			}
			if obs.Enabled() {
				obs.ObserveLayer(ctx.Index, time.Since(t0))
			}
			s.opt.Progress.Step(ctx.Layer.Name)
			return nil
		})
	}

	stop := obs.Phase("core.simulate")
	p := s.plan(nodes)
	done := make([]*LayerContext, len(nodes))
	_, err := engine.RunObserved(s.opt.Workers, len(p.order), spanSink,
		func(j int) (struct{}, error) {
			i := p.order[j]
			done[i] = newLayerContext(i, nodes[i])
			done[i].reserve = p.reserve
			return struct{}{}, exec(done[i])
		})
	for i := 0; i < len(nodes) && err == nil; i++ {
		if p.lead[i] != i {
			done[i] = newLayerContext(i, nodes[i])
			done[i].Replayed = true
			done[i].adopt(done[p.lead[i]].Entry)
			err = exec(done[i])
		}
	}
	stop()
	if err != nil {
		return RunResult{}, err
	}

	defer obs.Phase("core.aggregate")()
	// The modeled hardware executes layers serially: cumulative cycle
	// offsets and totals are computed after the parallel join, in layer
	// order, so they match a sequential run exactly.
	run.Layers = make([]LayerResult, len(nodes))
	var simulated int64
	for i, ctx := range done {
		if ctx.live() {
			simulated++
		}
		lr := &run.Layers[i]
		*lr = ctx.Result
		lr.StartCycle = run.TotalCycles
		run.TotalCycles += lr.Compute.Cycles
		run.TotalMACs += lr.Compute.MACs
		run.TotalEnergy = run.TotalEnergy.Add(lr.Energy)
	}
	obs.Metrics().Counter("core.nodes_simulated").Add(simulated)
	obs.Metrics().Counter("core.nodes_replayed").Add(int64(len(nodes) - len(p.order)))
	if s.opt.Timeline != nil {
		s.emitTimeline(run, done, tlSpans.Spans())
	}
	return run, nil
}
