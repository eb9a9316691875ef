package core

import (
	"fmt"

	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/engine"
	"scalesim/internal/memory"
	"scalesim/internal/obsv/cycleacct"
	"scalesim/internal/obsv/timeline"
	"scalesim/internal/simcache"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
	"scalesim/internal/vector"
)

// The per-layer simulation is an explicit pipeline of stages over a shared
// LayerContext:
//
//	map -> sinks -> compute -> analyze
//
// The map stage resolves the layer's canonical identity and consults the
// result cache; sinks builds the per-layer trace consumers; compute runs
// the systolic array, streaming its traces through the memory system into
// those sinks; analyze collects probe results, stores the cache entry and
// derives the final LayerResult (energy is computed here, outside the
// cached portion, so changing the energy model never invalidates entries).
//
// The compute stage is a pure function of the canonical key (nodeKey): the
// configuration's canonical parameters, the layer's shape key, the spatial
// window when the context is one partition's slice of the layer, the
// memory-system options and the DRAM bound/model. Everything it produces
// lands in LayerContext.Entry — exactly the simcache.Entry payload — so a
// node whose entry is already known, from the cache or from an identical
// node of the same run (see plan.go), skips the sinks and compute stages
// wholesale and replays the entry. Stages that exist only to feed live
// consumers are marked liveOnly and never run on a replay; conversely, any
// option that demands a live consumer (trace files, timelines, caller
// sinks) disables both kinds of replay for the whole run at New time, so a
// replay can never starve a sink.

// LayerContext is the state one layer threads through the pipeline
// stages. Exported fields are the stage contract; unexported fields carry
// live-run plumbing between consecutive stages.
type LayerContext struct {
	// Index is the layer's position in the execution order.
	Index int
	// Node is the operator being simulated. Flat-topology layers arrive as
	// conv nodes (topology.NodeOf); its Layer field is the shape the
	// matmul path runs.
	Node topology.Node
	// Layer is Node.Layer, relabeled with the node's name — the shape the
	// systolic path simulates and reports print.
	Layer topology.Layer
	// Window is the slice of the layer's spatial space this context
	// simulates: one partition of a scale-out system (SimulateWindows). The
	// zero value is the whole layer.
	Window systolic.Window
	// Key is the canonical compute key, empty when the run is uncacheable.
	Key string
	// CacheHit reports that Entry was replayed from the cache, Replayed
	// that it came from an identical node simulated earlier in the same
	// run; either way the liveOnly stages are skipped.
	CacheHit, Replayed bool
	// Entry is the pure compute-stage outcome: filled by the compute and
	// analyze stages on a live run, adopted on a replay.
	Entry simcache.Entry
	// Result is the layer's final outcome, assembled by the analyze stage.
	Result LayerResult

	// set wires every consumer of the layer to its streams and owns the
	// trace files' and caller sinks' hooks; dram, stall and rec are the
	// consumers core reads back, nil unless Options.DRAM, DRAMBandwidth and
	// Timeline ask for them. All are built fresh by stageSinks.
	set   *engine.SinkSet
	dram  *dram.Model
	stall *trace.StallAnalyzer
	rec   *timeline.LayerRecorder
	// reserve is the run's largest IFMAP, filter and OFMAP region (words),
	// what a memory system with no spare tables to adopt sizes new ones
	// for; zero sizes them for this node alone.
	reserve [3]int64
}

func newLayerContext(index int, n topology.Node) *LayerContext {
	l := n.Layer
	l.Name = n.Name
	return &LayerContext{Index: index, Node: n, Layer: l}
}

// live reports that the node is simulated rather than replayed.
func (ctx *LayerContext) live() bool { return !ctx.CacheHit && !ctx.Replayed }

// adopt takes over a recorded entry with its Layer relabeled to this node:
// equal keys guarantee the simulated shape and operator are identical, but
// the entry carries whichever node name filled it first, and reports print
// names.
func (ctx *LayerContext) adopt(e simcache.Entry) {
	e.Compute.Layer = ctx.Layer
	ctx.Entry = e
}

// close releases the context's live resources; safe to call at any stage.
func (ctx *LayerContext) close() {
	if ctx.set != nil {
		ctx.set.Close()
		ctx.set = nil
	}
}

// stage is one step of the per-layer pipeline.
type stage struct {
	// name labels the stage; timer is its wall-clock histogram.
	name, timer string
	// liveOnly marks stages that only feed live consumers; skipped when
	// the node's entry is replayed.
	liveOnly bool
	fn       func(*Simulator, *LayerContext) error
}

// pipeline is the per-layer stage order.
var pipeline = []stage{
	{name: "map", timer: "core.layer.map_seconds", fn: (*Simulator).stageMap},
	{name: "sinks", timer: "core.layer.sinks_seconds", liveOnly: true, fn: (*Simulator).stageSinks},
	{name: "compute", timer: "core.layer.compute_seconds", liveOnly: true, fn: (*Simulator).stageCompute},
	{name: "analyze", timer: "core.layer.analyze_seconds", fn: (*Simulator).stageAnalyze},
}

// resultsOnly reports whether the run's compute stage is observable only
// through its results — no option demands a live per-layer consumer — so
// entries may be replayed, from a cache or within the run. Metrics and
// observability are allowed: they are additive and never alter simulation
// output.
func resultsOnly(opt Options) bool {
	return opt.TraceDir == "" && opt.Timeline == nil && len(opt.Sinks) == 0
}

// nodeKey assembles the canonical compute key: everything the compute
// stage's outcome depends on, and nothing it does not (run names, energy
// model, observability). The node key includes the operator kind, so a
// GEMM and a same-shaped attention-score matmul — or a softmax and a
// layernorm over one tensor shape — never share an entry. A window joins
// the key with its offsets, not only its extents: a slice's fold schedule
// and addresses depend on where it sits in the spatial space. The whole
// layer (zero Window) adds nothing, so its key is what it was before
// windows existed. Everything but the node's own key and the window is
// fixed per Simulator and assembled once, in keyAffixes.
func (s *Simulator) nodeKey(n topology.Node, win systolic.Window) string {
	key := s.keyPrefix + n.Key()
	if win != (systolic.Window{}) {
		key += fmt.Sprintf("|w%d,%d,%d,%d", win.SrOff, win.ScOff, win.SrLen, win.ScLen)
	}
	return key + s.keySuffix
}

func keyAffixes(cfg config.Config, opt Options) (prefix, suffix string) {
	// The memory system runs at its defaults (double-buffered, default
	// bandwidth window); the literal keeps keys equal to every cache
	// directory written while those were options.
	suffix = "|sb=false;win=0"
	if opt.DRAMBandwidth > 0 {
		suffix += fmt.Sprintf(";bw=%g", opt.DRAMBandwidth)
	}
	if opt.DRAM != nil {
		suffix += ";dram=" + opt.DRAM.Key()
	}
	return "core|" + cfg.CanonicalKey() + "|", suffix
}

// stageMap resolves the node's identity: validation, canonical key, and
// the cache consultation, unless the run plan already supplied the entry.
func (s *Simulator) stageMap(ctx *LayerContext) error {
	if err := ctx.Node.Validate(); err != nil {
		return err
	}
	if ctx.Replayed || !s.cache {
		return nil
	}
	ctx.Key = s.nodeKey(ctx.Node, ctx.Window)
	if e, ok := s.opt.Cache.Get(ctx.Key); ok {
		ctx.adopt(e)
		ctx.CacheHit = true
		s.opt.Obs.Metrics().Counter("core.simcache.hits").Inc()
		return nil
	}
	s.opt.Obs.Metrics().Counter("core.simcache.misses").Inc()
	return nil
}

// stageSinks builds the layer's fresh trace consumers, attached in a fixed
// order — trace files, DRAM timing model, stall analyzer, caller sinks,
// timeline — so each stream's Tee is the same whatever else is switched on.
func (s *Simulator) stageSinks(ctx *LayerContext) error {
	job := engine.Job{Index: ctx.Index, Run: s.cfg.RunName, Layer: ctx.Layer.Name}
	set, err := s.traces.NewSinkSet(job)
	if err != nil {
		return err
	}
	ctx.set = set // released by runNode's deferred close from here on
	if s.opt.DRAM != nil {
		if ctx.dram, err = dram.New(*s.opt.DRAM); err != nil {
			return err
		}
		set.Attach(engine.DRAMRead, ctx.dram)
		set.Attach(engine.DRAMWrite, ctx.dram)
	}
	if s.opt.DRAMBandwidth > 0 {
		ctx.stall = trace.NewStallAnalyzer(s.opt.DRAMBandwidth)
		set.Attach(engine.DRAMRead, ctx.stall)
		set.Attach(engine.DRAMWrite, ctx.stall)
	}
	for _, f := range s.opt.Sinks {
		if f == nil {
			continue
		}
		if err := f(job, set); err != nil {
			return err
		}
	}
	if s.opt.Timeline != nil {
		s.recordTimeline(ctx)
	}
	return nil
}

// stageCompute dispatches on the node's operator kind: matmul-shaped
// nodes run the systolic array through the memory system; vector-shaped
// nodes run the vector-unit model. Either way the entire outcome lands in
// ctx.Entry.
func (s *Simulator) stageCompute(ctx *LayerContext) error {
	if ctx.Node.Kind.Vector() {
		return s.computeVector(ctx)
	}
	l := ctx.Layer
	sys, err := memory.NewSystem(s.cfg, memory.Options{
		DRAMRead:      ctx.set.Consumer(engine.DRAMRead),
		DRAMWrite:     ctx.set.Consumer(engine.DRAMWrite),
		DRAMIfmapTap:  ctx.set.Consumer(engine.DRAMReadIfmap),
		DRAMFilterTap: ctx.set.Consumer(engine.DRAMReadFilter),
		DRAMOfmapTap:  ctx.set.Consumer(engine.DRAMWriteOfmap),
		Metrics:       s.opt.Obs.Metrics(),
	})
	if err != nil {
		return err
	}
	s.equip(sys, ctx.reserve)
	sys.SetRegions(
		s.cfg.IfmapOffset, l.IfmapWords(),
		s.cfg.FilterOffset, l.FilterWords(),
		s.cfg.OfmapOffset, l.OfmapWords(),
	)

	// The fold observer always runs: it feeds the cycle-accounting
	// ledger (and tees the timeline recorder when one is attached).
	// Observation is purely additive — trace output never changes. Each
	// fold of duration 2R+C+T-2 (Eq. 3) decomposes exactly: 2R-2 ramp +
	// T MAC-active + C drain (mapped extents under edge trimming), so
	// the bins sum to the fold duration by construction.
	led := &cycleacct.Ledger{}
	R := int64(s.cfg.ArrayHeight)
	rec, edgeTrim := ctx.rec, s.cfg.EdgeTrim
	folds := systolic.FoldObserverFunc(func(f systolic.FoldInfo) {
		ramp := 2*R - 2
		if edgeTrim {
			ramp = 2*f.Rows - 2
		}
		led.Add(cycleacct.PhaseArray, cycleacct.MACActive, f.T)
		led.Add(cycleacct.PhaseArray, cycleacct.FoldRamp, ramp)
		led.Add(cycleacct.PhaseArray, cycleacct.FoldDrain, f.Cycles-f.T-ramp)
		if rec != nil {
			rec.AddFold(f.FR, f.FC, f.Rows, f.Cols, f.Start, f.Cycles)
		}
	})

	comp, err := systolic.RunWindow(l, s.cfg, ctx.Window, systolic.Sinks{
		IfmapRead:  ctx.set.Tap(engine.SRAMReadIfmap, sys.Ifmap),
		FilterRead: ctx.set.Tap(engine.SRAMReadFilter, sys.Filter),
		OfmapWrite: ctx.set.Tap(engine.SRAMWriteOfmap, sys.Ofmap),
		Folds:      folds,
	})
	if err != nil {
		return err
	}
	drained := sys.Ofmap.Flush(comp.Cycles)
	if ctx.rec != nil {
		ctx.rec.Finish(comp.Cycles, drained)
	}
	ctx.Entry.Compute = comp
	ctx.Entry.Memory = sys.Report(comp.Cycles)
	ctx.Entry.Ledger = led
	s.spareMu.Lock()
	s.spare = append(s.spare, sys.Release())
	s.spareMu.Unlock()
	return nil
}

// equip gives sys the residency tables (memory.Tables, storage only) a
// finished node left, or else new ones reserved for the run's largest
// regions, so that no later node of the run regrows them.
func (s *Simulator) equip(sys *memory.System, reserve [3]int64) {
	s.spareMu.Lock()
	var t *memory.Tables
	if n := len(s.spare); n > 0 {
		t, s.spare = s.spare[n-1], s.spare[:n-1]
	}
	s.spareMu.Unlock()
	if t != nil {
		sys.Adopt(t)
	} else {
		sys.Reserve(reserve[0], reserve[1], reserve[2])
	}
}

// regions returns a layer's IFMAP, filter and OFMAP region sizes in words.
func regions(l topology.Layer) [3]int64 {
	return [3]int64{l.IfmapWords(), l.FilterWords(), l.OfmapWords()}
}

// computeVector runs a vector-shaped node through the vector-unit model,
// streaming its traces into the same per-job sinks the systolic path
// feeds (trace files, DRAM timing, stall analysis, timeline samplers),
// then synthesizes the Entry: the vector result, a minimal systolic
// result carrying the serialized cycle count (MACs zero — the array is
// idle), and a memory report with the closed-form traffic totals.
func (s *Simulator) computeVector(ctx *LayerContext) error {
	n := ctx.Node
	params := s.vectorParams(n)
	lay := vector.Layout{
		IfmapBase: s.cfg.IfmapOffset,
		ParamBase: s.cfg.FilterOffset,
		OfmapBase: s.cfg.OfmapOffset,
	}

	var passes vector.PassObserver
	if ctx.rec != nil {
		rec := ctx.rec
		rec.SetOp(string(n.Kind))
		passes = vector.PassObserverFunc(func(p vector.PassInfo) {
			rec.AddPass(p.Label, p.Start, p.Cycles)
		})
	}

	vres, err := vector.RunAt(params, lay, vector.Sinks{
		IfmapRead:  ctx.set.Consumer(engine.SRAMReadIfmap),
		FilterRead: ctx.set.Consumer(engine.SRAMReadFilter),
		OfmapWrite: ctx.set.Consumer(engine.SRAMWriteOfmap),
		IfmapDRAM:  trace.Tee(ctx.set.Consumer(engine.DRAMRead), ctx.set.Consumer(engine.DRAMReadIfmap)),
		FilterDRAM: trace.Tee(ctx.set.Consumer(engine.DRAMRead), ctx.set.Consumer(engine.DRAMReadFilter)),
		OfmapDRAM:  trace.Tee(ctx.set.Consumer(engine.DRAMWrite), ctx.set.Consumer(engine.DRAMWriteOfmap)),
		Passes:     passes,
	})
	if err != nil {
		return err
	}
	if ctx.rec != nil {
		// Write-back is modeled in-pass, so nothing drains after the end.
		ctx.rec.Finish(vres.Cycles, 0)
	}
	ctx.Entry.Vector = &vres
	ctx.Entry.Compute = systolic.Result{
		Layer:    ctx.Layer,
		Dataflow: s.cfg.Dataflow,
		Cycles:   vres.Cycles,
	}
	ctx.Entry.Memory = vectorMemoryReport(params, vres, int64(s.cfg.WordBytes))
	// The vector ledger is closed-form — Cycles = passes * cpp exactly —
	// so pass bins are derived without touching the trace path (the
	// sink-free fast path stays O(1)). Each pass label is its phase.
	led := &cycleacct.Ledger{}
	if vres.Passes > 0 {
		cpp := vres.Cycles / vres.Passes
		for p := int64(0); p < vres.Passes; p++ {
			led.Add(vector.PassLabel(n.Kind, p), cycleacct.VectorPass, cpp)
		}
	}
	ctx.Entry.Ledger = led
	return nil
}

func (s *Simulator) vectorParams(n topology.Node) vector.Params {
	return vector.Params{
		Kind: n.Kind,
		Rows: n.Rows(), Cols: n.Cols(),
		Operands: n.OperandCount(),
		Lanes:    s.cfg.Lanes(),
	}
}

// vectorMemoryReport derives the memory.Report of a vector execution from
// its closed-form traffic totals. Averages are normalized over the full
// runtime like memory.System.Report; peaks are the steady streaming rates
// (the unit moves min(lanes, elems) words per stream per active cycle).
func vectorMemoryReport(p vector.Params, res vector.Result, wordBytes int64) memory.Report {
	t := vector.Traffic(p)
	rep := memory.Report{
		IfmapSRAMReads:  t.InputSRAMReads,
		FilterSRAMReads: t.ParamSRAMReads,
		OfmapSRAMWrites: t.OutputSRAMWrites,
		IfmapDRAMReads:  t.InputDRAMReads,
		FilterDRAMReads: t.ParamDRAMReads,
		OfmapDRAMWrites: t.OutputDRAMWrites,
		Cycles:          res.Cycles,
		WordBytes:       wordBytes,
	}
	if res.Cycles > 0 {
		c := float64(res.Cycles)
		rep.AvgReadBW = float64((rep.IfmapDRAMReads+rep.FilterDRAMReads)*wordBytes) / c
		rep.AvgWriteBW = float64(rep.OfmapDRAMWrites*wordBytes) / c
	}
	burst := p.Elems()
	if l := int64(p.Lanes); l < burst {
		burst = l
	}
	rep.PeakIfmapBW = float64(int64(p.Operands) * burst * wordBytes)
	if t.ParamDRAMReads > 0 {
		rep.PeakFilterBW = float64(2 * burst * wordBytes)
	}
	rep.PeakOfmapBW = float64(burst * wordBytes)
	return rep
}

// stageAnalyze finishes the layer: on a live run it collects the DRAM
// timing and stall probe results into the entry, stores the entry under
// the canonical key and finalizes the sinks; on every path it derives the
// energy breakdown — a function of the entry, not part of it — and
// assembles the LayerResult.
func (s *Simulator) stageAnalyze(ctx *LayerContext) error {
	if ctx.live() {
		if ctx.dram != nil {
			stats := ctx.dram.Stats()
			ctx.Entry.DRAMStats = &stats
			// How much of the layer the model served by its shift proof,
			// in how many stretches of a sweep taken in one step, and how
			// it took the other words, by row steps or one at a time:
			// host-side provenance beside the memory.* counters, never
			// part of the entry. replayed + stepped + walked == served.
			calls, words, sweeps, stepped, walked := ctx.dram.Replayed()
			reg := s.opt.Obs.Metrics()
			reg.Counter("dram.calls_replayed").Add(calls)
			reg.Counter("dram.words_replayed").Add(words)
			reg.Counter("dram.sweeps").Add(sweeps)
			reg.Counter("dram.words_stepped").Add(stepped)
			reg.Counter("dram.words_walked").Add(walked)
			reg.Counter("dram.words_served").Add(stats.Requests)
		}
		if ctx.stall != nil {
			ctx.Entry.StallCycles = ctx.stall.StallCycles()
		}
		// Close the layer's books: the bounded-link stall joins the
		// ledger, the total is the stalled runtime, and the sum
		// invariant is enforced before the entry is published anywhere.
		if led := ctx.Entry.Ledger; led != nil {
			led.Add(cycleacct.PhaseLink, cycleacct.DRAMBwStall, ctx.Entry.StallCycles)
			led.Total = ctx.Entry.Compute.Cycles + ctx.Entry.StallCycles
			if err := led.Check(); err != nil {
				return fmt.Errorf("core: layer %q: %w", ctx.Layer.Name, err)
			}
		}
		if s.cache {
			s.opt.Cache.Put(ctx.Key, ctx.Entry)
		}
		if err := ctx.set.Finish(); err != nil {
			return err
		}
	}
	comp, mrep := ctx.Entry.Compute, ctx.Entry.Memory
	ctx.Result = LayerResult{
		Kind:        ctx.Node.Kind,
		Compute:     comp,
		Vector:      ctx.Entry.Vector,
		Memory:      mrep,
		DRAMStats:   ctx.Entry.DRAMStats,
		StallCycles: ctx.Entry.StallCycles,
		Ledger:      ctx.Entry.Ledger,
		// The array is provisioned (and charged leakage-equivalent MAC
		// cycles) for the full runtime even when a vector node leaves it
		// idle; SRAM and DRAM words are charged from the traffic totals.
		Energy: s.em.Compute(
			int64(s.cfg.MACs()), comp.Cycles,
			mrep.IfmapSRAMReads+mrep.FilterSRAMReads+mrep.OfmapSRAMWrites,
			mrep.DRAMAccesses(),
		),
	}
	return nil
}
