// Package core is the top of the simulator stack: it wires the
// cycle-accurate systolic engine, the SRAM/DRAM memory system, the optional
// DRAM timing model and the energy model into a single Simulator that
// executes whole network topologies and collects per-layer and
// whole-network results.
//
// Layers model hardware that executes them serially (the original tool's
// behaviour: one CSV row at a time, in file order), but their simulations
// are independent, so they fan out over engine.RunObserved's bounded worker
// pool and the results — including the serialized cycle offsets — are
// joined in layer order. Output is bit-identical for every worker count.
// Every layer gets fresh consumers (stageSinks): trace files and
// caller-supplied sinks from engine.Registry factories, the DRAM timing
// model, the stall analyzer and the timeline recorder as typed fields of
// its LayerContext, so nothing is shared across worker goroutines and the
// Simulator holds nothing that belongs to one call.
//
// There is one way to execute a layer: execute plans a list of contexts,
// fans their leaders out on the one engine.RunObserved, each under one
// panic guard, and replays the rest. Simulate and SimulateGraph run a
// topology's nodes through it, SimulateLayer and SimulateNode a single
// node. With Options.Parts set the system is a grid of arrays, and a
// layer is its Eq. 5 spatial windows, one context per partition that
// receives work (parts.go): every window of every layer goes through the
// one execute, and a per-node Eq. 6 join builds the layer's result.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"scalesim/internal/analytical"
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
	// Parts, when set, simulates a scale-out system: a Pr x Pc grid of
	// arrays shaped like the configuration's, each with an even share of
	// its SRAM (at least 1 KiB each). Every layer runs as one spatial
	// window per partition (Eq. 5) and finishes with its slowest partition
	// (Eq. 6). The zero value is one array. Parts takes no DRAM model, link
	// bound, trace files, caller sinks or graph workload (Validate).
	Parts analytical.Partitioning
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
	// replay the ledger recorded with the entry. A partitioned layer's
	// ledger aggregates its Partitions, so its Total counts provisioned
	// array-cycles: partitions x runtime.
	Ledger *cycleacct.Ledger
	// Partitions holds one closed ledger per partition that received work
	// under Options.Parts, each stretched to the layer's runtime by a
	// partition_skew_wait bin; nil for a layer run on one array.
	Partitions []cycleacct.PartitionLedger `json:",omitempty"`
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
	// Parts is the partition grid the run was simulated on (Options.Parts);
	// nil for one array.
	Parts *analytical.Partitioning `json:",omitempty"`
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
	// base is the configuration New was given, the run's; cfg is what one
	// array simulates: base itself, or with Options.Parts one partition's
	// share of its SRAM. arrays counts the system's arrays.
	base, cfg config.Config
	arrays    int64
	opt       Options
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

// New validates the configuration and the options and builds a
// Simulator.
func New(cfg config.Config, opt Options) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{base: cfg, cfg: cfg, arrays: 1, opt: opt, planned: resultsOnly(opt)}
	if s.partitioned() {
		s.arrays = opt.Parts.Count()
		s.cfg = partitionConfig(cfg, s.arrays)
	}
	if opt.TraceDir != "" {
		s.traces = engine.Registry{engine.CSVTrace(opt.TraceDir)}
	}
	s.cache = s.planned && opt.Cache != nil
	s.keyPrefix, s.keySuffix = keyAffixes(s.cfg, opt)
	return s, nil
}

// Validate reports the first option New refuses: a link bound that is
// negative or not finite, an invalid DRAM model, a Parts grid with a
// dimension below 1 and, beside Parts, a DRAM model or link bound (a memory
// shared by the partitions is not modelled), trace files or caller sinks
// (sibling partitions of a layer would share them). SimulateGraph refuses a
// graph beside Parts (ErrPartsGraph).
func (o Options) Validate() error {
	switch bw := o.DRAMBandwidth; {
	case bw < 0:
		return fmt.Errorf("core: negative DRAM bandwidth %v", bw)
	case math.IsNaN(bw) || math.IsInf(bw, 0):
		return fmt.Errorf("core: non-finite DRAM bandwidth %v", bw)
	}
	if o.DRAM != nil {
		if err := o.DRAM.Validate(); err != nil {
			return err
		}
	}
	if o.Parts == (analytical.Partitioning{}) {
		return nil
	}
	switch {
	case o.Parts.Pr < 1 || o.Parts.Pc < 1:
		return fmt.Errorf("core: invalid Parts %s (want PrxPc, both at least 1)", o.Parts)
	case o.DRAM != nil:
		return fmt.Errorf("core: Parts does not support DRAM: a memory shared by the partitions is not modelled")
	case o.DRAMBandwidth != 0:
		return fmt.Errorf("core: Parts does not support DRAMBandwidth: a link shared by the partitions is not modelled")
	case o.TraceDir != "":
		return fmt.Errorf("core: Parts does not support TraceDir: sibling partitions of a layer would share trace files")
	case len(o.Sinks) > 0:
		return fmt.Errorf("core: Parts does not support Sinks: sibling partitions of a layer would share their consumers")
	}
	return nil
}

// ErrPartsGraph refuses an operator-graph workload beside Options.Parts.
var ErrPartsGraph = errors.New("core: Parts runs layers on a partitioned system and does not support a Graph workload")

// SimulateLayer runs one layer through the map/sinks/compute/analyze
// pipeline (see pipeline.go): mapping and cache lookup, live trace
// consumers, the systolic and memory simulation, DRAM timing, stall and
// energy accounting.
func (s *Simulator) SimulateLayer(l topology.Layer) (LayerResult, error) {
	return s.SimulateNode(topology.NodeOf(l))
}

// SimulateNode runs one operator-graph node through the same pipeline;
// vector-shaped nodes take the vector-unit compute path. Under
// Options.Parts the node runs as its partitions' windows, joined.
func (s *Simulator) SimulateNode(n topology.Node) (LayerResult, error) {
	if s.partitioned() && n.Kind.Vector() {
		return LayerResult{}, fmt.Errorf("core: node %q: Parts runs matmul layers only", n.Name)
	}
	ctxs := s.contexts(nil, 0, n)
	if _, err := s.execute(ctxs, "layer", nil); err != nil {
		return LayerResult{}, err
	}
	return s.result(ctxs)
}

// execute is the one way core runs contexts — a topology's nodes, one
// node, the windows of a layer: it plans them (plan.go), fans the leaders
// out on the engine and replays the rest after the join, in index order,
// each under a guard naming noun, name and window. done sees each context
// that ran, with its start time (zero with no recorder attached). The
// engine spans come back, teed off, when a timeline is attached.
func (s *Simulator) execute(ctxs []*LayerContext, noun string, done func(*LayerContext, time.Time)) ([]obsv.Span, error) {
	run := func(ctx *LayerContext) error {
		what := fmt.Sprintf("%s %q", noun, ctx.Layer.Name)
		if ctx.Window != (systolic.Window{}) {
			what += fmt.Sprintf(" window %+v", ctx.Window)
		}
		return guarded(what, func() error {
			var start time.Time
			if s.opt.Obs.Enabled() {
				start = time.Now()
			}
			if err := s.runNode(ctx); err != nil {
				return err
			}
			if done != nil {
				done(ctx, start)
			}
			return nil
		})
	}
	spanSink, tlSpans := s.opt.Obs.SpanSink(), (*obsv.SpanRecorder)(nil)
	if s.opt.Timeline != nil {
		tlSpans = &obsv.SpanRecorder{}
		spanSink = obsv.TeeSpans(spanSink, tlSpans)
	}
	p := s.plan(ctxs)
	_, err := engine.RunObserved(s.opt.Workers, len(p.order), spanSink,
		func(j int) (struct{}, error) {
			ctx := ctxs[p.order[j]]
			ctx.reserve = p.reserve
			return struct{}{}, run(ctx)
		})
	for i := 0; i < len(ctxs) && err == nil; i++ {
		if p.lead[i] != i {
			ctxs[i].Replayed = true
			ctxs[i].adopt(ctxs[p.lead[i]].Entry)
			err = run(ctxs[i])
		}
	}
	return tlSpans.Spans(), err
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
	return s.runNodes(RunResult{Config: s.base, Topology: topo}, nodes)
}

// runNodes is the orchestration body behind Simulate and SimulateGraph:
// it executes nodes — the run's execution order, which run.Topology
// already names — and fills in run's results and totals.
//
// The modeled hardware runs one node at a time whatever the graph's edges
// say, and no node's result depends on another's, so the nodes' contexts
// (the node itself, or under Parts its partitions' windows) go through
// execute as independent jobs; what is a layer's alone — its wall time,
// its progress step, its Eq. 6 join, its serialized cycle offset — is
// added here.
func (s *Simulator) runNodes(run RunResult, nodes []topology.Node) (RunResult, error) {
	noun := "layer"
	if run.Graph != nil {
		noun = "node"
	}
	s.opt.Progress.Start(len(nodes))
	obs := s.opt.Obs
	// Node i's contexts are ctxs[first[i]:first[i+1]]. A node is done when
	// the last of them is (left), and its wall time is theirs summed (busy).
	ctxs := make([]*LayerContext, 0, len(nodes))
	first := make([]int, len(nodes)+1)
	for i, n := range nodes {
		first[i] = len(ctxs)
		ctxs = s.contexts(ctxs, i, n)
	}
	first[len(nodes)] = len(ctxs)
	left, busy := make([]atomic.Int64, len(nodes)), make([]atomic.Int64, len(nodes))
	for i := range nodes {
		left[i].Store(int64(first[i+1] - first[i]))
	}
	stop := obs.Phase("core.simulate")
	spans, err := s.execute(ctxs, noun, func(ctx *LayerContext, start time.Time) {
		i := ctx.Index
		if obs.Enabled() {
			busy[i].Add(int64(time.Since(start)))
		}
		if left[i].Add(-1) > 0 {
			return
		}
		if obs.Enabled() {
			obs.ObserveLayer(i, time.Duration(busy[i].Load()))
		}
		s.opt.Progress.Step(ctx.Layer.Name)
	})
	stop()
	if err != nil {
		return RunResult{}, err
	}

	defer obs.Phase("core.aggregate")()
	var simulated, replayed int64
	for _, ctx := range ctxs {
		if ctx.live() {
			simulated++
		}
		if ctx.Replayed {
			replayed++
		}
	}
	// The modeled hardware executes layers serially: cumulative cycle
	// offsets and totals are computed after the parallel join, in layer
	// order, so they match a sequential run exactly.
	run.Layers = make([]LayerResult, len(nodes))
	if s.partitioned() {
		parts := s.opt.Parts
		run.Parts = &parts
	}
	for i := range nodes {
		lr := &run.Layers[i]
		if *lr, err = s.result(ctxs[first[i]:first[i+1]]); err != nil {
			return RunResult{}, err
		}
		lr.StartCycle = run.TotalCycles
		run.TotalCycles += lr.Compute.Cycles
		run.TotalMACs += lr.Compute.MACs
		run.TotalEnergy = run.TotalEnergy.Add(lr.Energy)
	}
	obs.Metrics().Counter("core.nodes_simulated").Add(simulated)
	obs.Metrics().Counter("core.nodes_replayed").Add(replayed)
	if s.opt.Timeline != nil {
		s.emitTimeline(run, ctxs, spans)
	}
	return run, nil
}
