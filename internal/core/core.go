// Package core is the top of the simulator stack: it wires the
// cycle-accurate systolic engine, the SRAM/DRAM memory system, the optional
// DRAM timing model and the energy model into a single Simulator that
// executes whole network topologies and collects per-layer and
// whole-network results.
//
// Layers model hardware that executes them serially (the original tool's
// behaviour), but their simulations are independent, so they fan out over
// a bounded worker pool and the results — including the serialized cycle
// offsets — are joined in layer order, bit-identical for every worker
// count. Every layer gets fresh consumers (stageSinks) in its LayerContext,
// so nothing is shared across worker goroutines.
//
// There is one way to execute a layer: execute plans a list of contexts,
// fans their leaders out on the one engine.RunObserved, each under one
// panic guard, and replays the rest. SimulateRuns runs several
// simulators' workloads through it as one plan, Simulate and SimulateGraph
// one, SimulateLayer and SimulateNode one node. Under Options.Parts a layer
// is its Eq. 5 spatial windows, one context per partition that receives
// work (parts.go), joined per node by Eq. 6.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
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

// Options tunes a Simulator beyond the architecture configuration. Workers,
// Cache, Timeline, Obs, Progress and Context are run-wide: the runs of one
// plan (SimulateRuns) share them.
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
	// under its canonical key (configuration, layer shape, memory and DRAM
	// bounds) across plans, with byte-identical reports. A plan looks each
	// distinct key up once (see plan.go), and only when no option demands
	// a live per-layer consumer — trace files, timelines or caller sinks.
	// One cache may be shared by many simulators and goroutines.
	Cache *simcache.Cache
	// Workers bounds how many contexts — layers, or partition windows —
	// a plan executes at once. Zero picks GOMAXPROCS. Results are
	// identical for every value; 1 is the fully sequential original.
	Workers int
	// Sinks appends caller-supplied per-layer sink factories to the
	// built-in ones (trace files, DRAM timing, stall analysis). Each
	// factory runs once per layer, possibly from concurrent worker
	// goroutines, and must wire fresh consumers each time.
	Sinks engine.Registry
	// Timeline, when non-nil, receives the plan as a Chrome Trace Event
	// timeline: per-layer and per-fold spans, stall intervals and windowed
	// bandwidth counters on the simulated-cycle axis, plus the engine's
	// scheduler spans on the host wall-clock axis. Purely additive; one
	// Writer serves one plan.
	Timeline *timeline.Writer
	// Obs, when non-nil, records phase timings, per-unit wall times, stage
	// histograms and the engine's scheduler spans. Purely additive; see
	// Simulator.Manifest for the snapshot.
	Obs *obsv.Recorder
	// Progress, when non-nil, receives one step per completed unit: a
	// layer, or under SimulateRuns a run (display only; completion order
	// may differ from unit order when Workers > 1).
	Progress *obsv.Progress
	// Context, when non-nil, cancels the plan at context granularity:
	// each context checks it before starting, and a cancelled context
	// aborts the plan with its error (contexts in flight complete). This
	// is how a job runner stops a running simulation without killing the
	// process; results produced before the abort are discarded.
	Context context.Context
	// Parts, when set, simulates a scale-out system: a Pr x Pc grid of
	// arrays shaped like the configuration's, each with an even share of
	// its SRAM (at least 1 KiB each). Every layer runs as one spatial
	// window per partition (Eq. 5) and finishes with its slowest partition
	// (Eq. 6). The zero value is one array. Parts takes no DRAM model, link
	// bound, trace files or caller sinks (Validate), and no vector node
	// (ValidateWorkload).
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
	// Graph is the operator graph the run executed; nil for a flat
	// network (topology.Graph.Flat).
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
	// (resultsOnly), so a recorded entry may stand in for simulating a node
	// (plan.go), and cache that opt.Cache is consulted too. Both are
	// decided at New, as is the node-independent part of every key.
	planned, cache       bool
	keyPrefix, keySuffix string
	// spare holds the memory.Tables of finished nodes for the next node of
	// a plan (its first run's list) to adopt, so a plan allocates one set
	// per node it runs at once. Not a sync.Pool: a pool keeps what a
	// goroutine put on its processor, so a migrated worker missed its set.
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
// (sibling partitions of a layer would share them).
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

// ValidateWorkload reports the first problem with running g under o: g's
// own (topology.Graph.Validate), or under Parts a vector node, which the
// partitioned system has no unit for.
func (o Options) ValidateWorkload(g topology.Graph) error {
	if err := g.Validate(); err != nil {
		return err
	}
	for _, n := range g.Nodes {
		if err := o.admit(n); err != nil {
			return err
		}
	}
	return nil
}

// admit refuses a vector node under Parts.
func (o Options) admit(n topology.Node) error {
	if o.Parts != (analytical.Partitioning{}) && n.Kind.Vector() {
		return fmt.Errorf("core: node %q: Parts runs matmul layers only", n.Name)
	}
	return nil
}

// SimulateLayer runs one layer through the map/sinks/compute/analyze
// pipeline (see pipeline.go).
func (s *Simulator) SimulateLayer(l topology.Layer) (LayerResult, error) {
	return s.SimulateNode(topology.NodeOf(l))
}

// SimulateNode runs one operator-graph node through the same pipeline;
// vector-shaped nodes take the vector-unit compute path. Under
// Options.Parts the node runs as its partitions' windows, joined.
func (s *Simulator) SimulateNode(n topology.Node) (LayerResult, error) {
	if err := s.opt.admit(n); err != nil {
		return LayerResult{}, err
	}
	ctxs := s.contexts(nil, 0, 0, n)
	if _, err := s.execute(nil, ctxs, nil); err != nil {
		return LayerResult{}, err
	}
	return s.result(ctxs)
}

// execute is the one way core runs contexts: it plans them (plan.go), fans
// the leaders out on the engine and replays the rest after the join, in
// index order, each under a guard naming its node, window and run (runs,
// nil for a lone node). s, the plan's lead, supplies the run-wide options
// and the spare tables. done sees each context that ran, with its start
// time (zero with no recorder). The engine spans come back, teed off, when
// a timeline is attached.
func (s *Simulator) execute(runs []Run, ctxs []*LayerContext, done func(*LayerContext, time.Time)) ([]obsv.Span, error) {
	run := func(ctx *LayerContext) error {
		noun := "layer"
		if runs != nil && !runs[ctx.run].Workload.Flat {
			noun = "node"
		}
		what := fmt.Sprintf("%s %q", noun, ctx.Layer.Name)
		if ctx.Window != (systolic.Window{}) {
			what += fmt.Sprintf(" window %+v", ctx.Window)
		}
		err := guarded(what, func() error {
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
		if err != nil && runs != nil {
			err = runs[ctx.run].named(err)
		}
		return err
	}
	spanSink, tlSpans := s.opt.Obs.SpanSink(), (*obsv.SpanRecorder)(nil)
	if s.opt.Timeline != nil {
		tlSpans = &obsv.SpanRecorder{}
		spanSink = obsv.TeeSpans(spanSink, tlSpans)
	}
	p := plan(ctxs)
	_, err := engine.RunObserved(s.opt.Workers, len(p.order), spanSink,
		func(j int) (struct{}, error) {
			ctx := ctxs[p.order[j]]
			ctx.reserve, ctx.lead = p.reserve, s
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

// runNode threads one prepared context through its Simulator's pipeline
// stages, under the plan's context and recorder.
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
		err := st.fn(ctx.sim, ctx)
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

// Simulate runs every layer of a flat network, as its chain graph
// (topology.Topology.Graph) — concurrently up to Options.Workers, with
// results joined in layer order — and aggregates the serialized execution
// totals.
func (s *Simulator) Simulate(topo topology.Topology) (RunResult, error) {
	return Run{Sim: s, Workload: topo.Graph()}.Simulate()
}

// SimulateGraph runs a workload graph in its deterministic topological
// order (Graph.Schedule): cycle offsets accumulate over it, so results are
// identical for every worker count. Matmul-shaped nodes take the systolic
// path, vector-shaped nodes the vector unit.
func (s *Simulator) SimulateGraph(g topology.Graph) (RunResult, error) {
	return Run{Sim: s, Workload: g}.Simulate()
}

// Simulate runs r alone, its layers the units: Simulate and SimulateGraph.
func (r Run) Simulate() (RunResult, error) {
	res, err := simulate([]Run{r}, false)
	if err != nil {
		return RunResult{}, err
	}
	return res[0], nil
}

// Run is one simulator's workload in a plan of several (SimulateRuns): an
// operator graph, or a flat network as its chain (topology.Graph.Flat).
// Its Name, which Simulate and SimulateGraph leave empty, names its
// progress step and recorded unit, prefixes its errors and titles its
// timeline process.
type Run struct {
	Sim      *Simulator
	Name     string
	Workload topology.Graph
}

// SimulateRuns runs several simulators' workloads as one plan, under the
// first run's run-wide Options, so a node repeated across runs under an
// equal configuration, DRAM bound and model is simulated once. Each run is
// one unit: one progress step and one recorded wall time, its contexts'
// busy time summed. Each result is what Simulate would return.
func SimulateRuns(runs []Run) ([]RunResult, error) {
	if len(runs) == 0 {
		return nil, nil
	}
	return simulate(runs, true)
}

// workload validates the run's workload and returns its execution order
// with the result it starts from: an execution-order topology, so that
// every report renders it, and the graph unless it is a flat network.
func (r Run) workload() (RunResult, []topology.Node, error) {
	g := r.Workload
	res := RunResult{Config: r.Sim.base}
	if r.Sim.partitioned() {
		parts := r.Sim.opt.Parts
		res.Parts = &parts
	}
	if err := r.Sim.opt.ValidateWorkload(g); err != nil {
		return res, nil, err
	}
	nodes, _, err := g.Schedule()
	res.Topology = topology.Graph{Name: g.Name, Nodes: nodes}.Topology()
	if !g.Flat {
		res.Graph = &g
	}
	return res, nodes, err
}

// named prefixes err with the run's Name, when it has one.
func (r Run) named(err error) error {
	if r.Name == "" {
		return err
	}
	return fmt.Errorf("%s: %w", r.Name, err)
}

// simulate is the body behind SimulateRuns, Simulate and SimulateGraph. No
// node's result depends on another's, so every node's contexts go through
// execute as independent jobs; what is a unit's (a run, perRun, or else
// the one run's layer) — its wall time, its progress step — and a node's
// — its Eq. 6 join, its serialized cycle offset — is added here.
func simulate(runs []Run, perRun bool) ([]RunResult, error) {
	s := runs[0].Sim
	obs := s.opt.Obs
	out := make([]RunResult, len(runs))
	var ctxs []*LayerContext
	stop := obs.Phase("core.validate")
	for k, r := range runs {
		res, nodes, err := r.workload()
		if err != nil {
			stop()
			return nil, r.named(err)
		}
		res.Layers = make([]LayerResult, len(nodes))
		out[k], ctxs = res, slices.Grow(ctxs, len(nodes))
		for i, n := range nodes {
			ctxs = r.Sim.contexts(ctxs, k, i, n)
		}
	}
	stop()
	// A unit is done when its last context is (left); its wall time is
	// theirs summed (busy).
	units, unit := len(out[0].Layers), func(ctx *LayerContext) int { return ctx.Index }
	name := func(ctx *LayerContext) string { return ctx.Layer.Name }
	if perRun {
		units, unit = len(runs), func(ctx *LayerContext) int { return ctx.run }
		name = func(ctx *LayerContext) string { return runs[ctx.run].Name }
	}
	left, busy := make([]atomic.Int64, units), make([]atomic.Int64, units)
	for _, ctx := range ctxs {
		left[unit(ctx)].Add(1)
	}
	s.opt.Progress.Start(units)
	stop = obs.Phase("core.simulate")
	spans, err := s.execute(runs, ctxs, func(ctx *LayerContext, start time.Time) {
		u := unit(ctx)
		if obs.Enabled() {
			busy[u].Add(int64(time.Since(start)))
		}
		if left[u].Add(-1) > 0 {
			return
		}
		if obs.Enabled() {
			obs.ObserveLayer(u, time.Duration(busy[u].Load()))
		}
		s.opt.Progress.Step(name(ctx))
	})
	stop()
	if err != nil {
		return nil, err
	}

	defer obs.Phase("core.aggregate")()
	// The modeled hardware executes layers serially: cycle offsets and
	// totals are summed after the join, in layer order, over each node's
	// adjacent contexts.
	var simulated, replayed int64
	for lo := 0; lo < len(ctxs); {
		c, hi := ctxs[lo], lo
		for ; hi < len(ctxs) && ctxs[hi].run == c.run && ctxs[hi].Index == c.Index; hi++ {
			if ctxs[hi].live() {
				simulated++
			}
			if ctxs[hi].Replayed {
				replayed++
			}
		}
		res, lr := &out[c.run], &out[c.run].Layers[c.Index]
		if *lr, err = c.sim.result(ctxs[lo:hi]); err != nil {
			return nil, runs[c.run].named(err)
		}
		lr.StartCycle = res.TotalCycles
		res.TotalCycles += lr.Compute.Cycles
		res.TotalMACs += lr.Compute.MACs
		res.TotalEnergy = res.TotalEnergy.Add(lr.Energy)
		lo = hi
	}
	obs.Metrics().Counter("core.nodes_simulated").Add(simulated)
	obs.Metrics().Counter("core.nodes_replayed").Add(replayed)
	if s.opt.Timeline != nil {
		s.emitTimeline(runs, out, ctxs, spans)
	}
	return out, nil
}
