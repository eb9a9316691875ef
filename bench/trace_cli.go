package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"scalesim/internal/config"
	"scalesim/internal/dataflow"
	"scalesim/internal/dram"
	"scalesim/internal/engine"
	"scalesim/internal/experiments"
	"scalesim/internal/job"
	"scalesim/internal/memory"
	"scalesim/internal/obsv"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
	"scalesim/internal/vector"
)

// The traced run of a CLI workload. Nothing here edits the program: the
// harness calls the modules' public functions itself and wraps what it
// passes between them.
//
// Pass A runs the op's job.Spec in process through job.Runner with an
// obsv.Recorder and reads what the program already records. Pass B
// re-assembles core's compute stage node by node from public calls with a
// shim on every consumer, which is where per-module self times come from.
// Pass B must reproduce pass A's simulated numbers exactly, and
// core.coverage_ratio says how much of pass A's compute time pass B's
// re-assembly accounts for.

// traceOps is how many CLI ops and untraced in-process runs the traced
// run takes for cli.exec_overhead_s and bench.trace_overhead_ratio.
const (
	traceCLIOps    = 5
	traceInProcess = 3
)

func (h *harness) traceCLI(name string, gold *golden) (*result, error) {
	w, err := h.newCLIWorkload(name)
	if err != nil {
		return nil, err
	}
	g := gold.CLI[name]
	su, err := w.setup(h, g, time.Now())
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := newResult(name, true)
	r.RefRelErrMax = su.refRelErr
	m := r.Metrics

	var cliWall []float64
	var errs []string
	for i := 0; i < traceCLIOps; i++ {
		o, err := w.exec(h)
		if err == nil {
			err = w.verify(h, g, o, false)
		}
		os.RemoveAll(o.dir)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		cliWall = append(cliWall, o.wall.Seconds())
	}

	t := newTracer()
	var inProcess, traced float64
	if name == "fig12_scaleout" {
		inProcess, traced, err = traceFig12(t, r, g)
	} else {
		inProcess, traced, err = h.traceSim(t, w, m, g)
	}
	if err != nil {
		errs = append(errs, err.Error())
	}
	r.count(traceCLIOps+1, len(errs), errs)
	m.setN("cli.exec_overhead_s", median(cliWall)-inProcess, len(cliWall))
	m.set("bench.trace_overhead_ratio", ratio(traced, inProcess))
	return r, t.write(h.root, name)
}

// traceFig12 times experiments.Fig12 as the program runs it, then the
// same sweep one partition.BestSpec and partition.Run at a time.
func traceFig12(t *tracer, r *result, g cliGolden) (inProcess, traced float64, err error) {
	m := r.Metrics
	t0 := time.Now()
	if _, err := experiments.Fig12(experiments.CB2a3(), fig12Budgets, fig12Parts); err != nil {
		return 0, 0, err
	}
	inProcess = time.Since(t0).Seconds()
	m.set("experiments.fig12_s", inProcess)

	t0 = time.Now()
	points, err := fig12Sweep()
	if err != nil {
		return 0, 0, err
	}
	traced = time.Since(t0).Seconds()
	at := t0
	var partCycles int64
	for _, p := range points {
		req := fmt.Sprintf("%d/%d", p.spec.MACs(), p.spec.Parts.Count())
		root := t.reserve(0, req, "experiments.point")
		id := t.reserve(root, req, "analytical.search")
		t.fill(id, at, at.Add(p.searchDur), nil)
		id = t.reserve(root, req, "partition.run")
		t.fill(id, at.Add(p.searchDur), at.Add(p.searchDur+p.runDur), map[string]int64{
			"parts": p.res.ActivePartitions, "cycles": p.res.Cycles})
		t.fill(root, at, at.Add(p.searchDur+p.runDur), nil)
		at = at.Add(p.searchDur + p.runDur)
		partCycles += p.res.Cycles * p.res.ActivePartitions
	}
	by := rollupByName(t.spans)
	search, run := get(by, "analytical.search"), get(by, "partition.run")
	m.set("analytical.search_s", secs(search.self))
	m.set("analytical.search_calls", float64(search.spans))
	m.set("partition.run_s", secs(run.self))
	m.set("partition.run_calls", float64(run.spans))
	m.set("partition.parts_total", float64(run.counts["parts"]))
	m.set("partition.cycles_total", float64(run.counts["cycles"]))
	m.set("partition.ns_per_part_cycle", ratio(float64(run.self), float64(partCycles)))
	r.RefRelErrMax, err = fig12Check(points, g)
	return inProcess, traced, err
}

// runInProcess submits the workload's spec to a job.Runner sized like the
// scalesim CLI's.
func (w *cliWorkload) runInProcess(h *harness, rec *obsv.Recorder) (*job.Result, time.Duration, error) {
	live := job.Live{Obs: rec}
	if w.traces {
		dir, err := h.dir("inproc")
		if err != nil {
			return nil, 0, err
		}
		defer os.RemoveAll(dir)
		live.TraceDir = dir
	}
	runner := job.NewRunner(job.Options{Workers: 1, QueueDepth: 1})
	defer func() { _ = runner.Close(context.Background()) }()
	t0 := time.Now()
	res, err := runner.Run(w.spec, live)
	return res, time.Since(t0), err
}

// traceSim is passes A and B for a scalesim workload.
func (h *harness) traceSim(t *tracer, w *cliWorkload, m metricSet, g cliGolden) (inProcess, traced float64, err error) {
	// Resolving the workload is topology's share of an op.
	t0 := time.Now()
	reload, err := h.newCLIWorkload(w.name)
	if err != nil {
		return 0, 0, err
	}
	nodes, err := execOrder(reload.spec)
	if err != nil {
		return 0, 0, err
	}
	m.set("topology.load_s", time.Since(t0).Seconds())
	m.set("topology.nodes", float64(len(nodes)))

	var untraced []float64
	for i := 0; i < traceInProcess; i++ {
		_, d, err := w.runInProcess(h, nil)
		if err != nil {
			return 0, 0, err
		}
		untraced = append(untraced, d.Seconds())
	}
	inProcess = median(untraced)

	// Pass A.
	rec := obsv.NewRecorder()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res, _, err := w.runInProcess(h, rec)
	if err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&ms1)
	m.set("core.alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	m.set("core.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs))
	hist := rec.Metrics().Snapshot().Histograms
	for _, st := range []string{"map", "sinks", "compute", "analyze"} {
		m.set("core.stage_"+st+"_s", hist["core.layer."+st+"_seconds"].Sum)
	}
	m.set("core.layers", float64(len(res.Run.Layers)))
	var simulate float64
	for _, p := range res.Manifest.Phases {
		if p.Name == "core.simulate" {
			simulate = p.Seconds
		}
	}
	var exec time.Duration
	for _, s := range rec.Spans() {
		m.add("engine.queue_wait_s", s.QueueWait.Seconds())
		m.add("engine.join_s", s.Join.Seconds())
		exec += s.Exec
	}
	m.set("engine.exec_s", exec.Seconds())
	m.set("engine.parallel_eff", ratio(exec.Seconds(), simulate*float64(res.Manifest.Workers)))

	// The daemon serves these renders; here they also prove that the
	// library prints the bytes the CLI wrote.
	for _, name := range res.Reports() {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := res.WriteReport(&buf, name); err != nil {
			return 0, 0, err
		}
		m.add("report.render_s", time.Since(t0).Seconds())
		m.add("report.bytes", float64(buf.Len()))
		if got, want := digest(buf.Bytes()), g.Reports["scale_sim_"+name+".csv"]; got != want {
			return 0, 0, fmt.Errorf("in-process %s report: sha256 %.12s, golden %.12s", name, got, want)
		}
	}
	t0 = time.Now()
	manifest, err := json.Marshal(res.Manifest)
	if err != nil {
		return 0, 0, err
	}
	m.set("obsv.manifest_s", time.Since(t0).Seconds())
	m.set("obsv.manifest_bytes", float64(len(manifest)))

	// Pass B.
	pb := &passB{t: t, spec: w.spec}
	if w.traces {
		if pb.traceDir, err = h.dir("passb"); err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(pb.traceDir)
	}
	t0 = time.Now()
	outs, err := pb.run()
	if err != nil {
		return 0, 0, err
	}
	traced = time.Since(t0).Seconds()
	for i, o := range outs {
		a := res.Run.Layers[i]
		if o.cycles != a.Compute.Cycles || o.dramReads != a.Memory.DRAMReads() ||
			o.dramWrites != a.Memory.OfmapDRAMWrites || o.stall != a.StallCycles {
			return 0, 0, fmt.Errorf("pass B node %d %q: cycles %d reads %d writes %d stall %d, pass A %d %d %d %d",
				i, nodes[i].Name, o.cycles, o.dramReads, o.dramWrites, o.stall,
				a.Compute.Cycles, a.Memory.DRAMReads(), a.Memory.OfmapDRAMWrites, a.StallCycles)
		}
	}
	pb.metrics(m, outs)
	if w.traces && int64(m["trace.csv_bytes"].Value) != g.TraceBytes {
		return 0, 0, fmt.Errorf("pass B wrote %.0f trace bytes, golden %d", m["trace.csv_bytes"].Value, g.TraceBytes)
	}
	// Pass B generates every node's address streams twice (see
	// matmulNode); the sink-free pass is not part of what core does.
	by := rollupByName(t.spans)
	m.set("core.coverage_ratio", ratio(secs(get(by, "core.node").busy-get(by, "systolic.run").busy), m["core.stage_compute_s"].Value))
	return inProcess, traced, nil
}

// passB re-assembles core.stageCompute from public calls.
type passB struct {
	t        *tracer
	spec     job.Spec
	traceDir string // non-empty: write the five per-layer trace CSVs
}

// nodeOut is what one node's simulation produced, for the comparison
// with pass A and the simulated counts.
type nodeOut struct {
	cycles, dramReads, dramWrites, stall int64
	sramWords, folds, fallbacks          int64
	dram                                 dram.Stats
	csvBytes                             int64
	vector                               bool
}

// run executes every node on the scheduler core uses, with the spec's
// parallelism, so pass B's nodes contend for the machine as pass A's did.
func (pb *passB) run() ([]nodeOut, error) {
	if pb.spec.Graph != nil {
		nodes, preds, err := pb.spec.Graph.Schedule()
		if err != nil {
			return nil, err
		}
		return engine.RunDAG(pb.spec.Workers, len(nodes), func(i int) []int { return preds[i] },
			func(i int) (nodeOut, error) { return pb.node(nodes[i]) })
	}
	layers := pb.spec.Topology.Layers
	return engine.Run(pb.spec.Workers, len(layers),
		func(i int) (nodeOut, error) { return pb.node(topology.NodeOf(layers[i])) })
}

// leaf is one DRAM-side consumer behind a shim.
type leaf struct {
	name string
	s    *shim
}

// wiring is one node's consumers, attached the way core's sink factories
// attach them: a DRAM timing model and a stall analyzer on both DRAM
// streams when the spec asks for them, and a CSV writer per stream under
// -traces. Each operand buffer gets its own shims over the shared
// consumers (through memory.Options' per-operand taps), so every DRAM-side
// span has exactly one SRAM-side parent.
type wiring struct {
	model *dram.Model
	stall *trace.StallAnalyzer
	files []*os.File
	csvs  []*trace.CSVWriter
	bytes []*countingWriter

	sramCSV [3]*shim  // on the SRAM streams; nil without traces
	leaves  [3][]leaf // DRAM side, per operand: ifmap, filter, ofmap
}

const (
	opIfmap = iota
	opFilter
	opOfmap
)

func (pb *passB) wire(node string) (*wiring, error) {
	w := &wiring{}
	var read, write []leaf // consumers of the dram_read and dram_write streams
	if pb.traceDir != "" {
		for i, st := range engine.Streams {
			f, err := os.Create(filepath.Join(pb.traceDir,
				fmt.Sprintf("%s_%s_%s.csv", pb.spec.Config.RunName, node, st)))
			if err != nil {
				w.close()
				return nil, err
			}
			cw := &countingWriter{w: f}
			csv := trace.NewCSVWriter(cw)
			w.files, w.bytes, w.csvs = append(w.files, f), append(w.bytes, cw), append(w.csvs, csv)
			switch st {
			case engine.DRAMRead:
				read = append(read, leaf{"trace.csv", newShim(csv)})
			case engine.DRAMWrite:
				write = append(write, leaf{"trace.csv", newShim(csv)})
			default:
				w.sramCSV[i] = newShim(csv)
			}
		}
	}
	if cfg := pb.spec.DRAM; cfg != nil {
		m, err := dram.New(*cfg)
		if err != nil {
			w.close()
			return nil, err
		}
		w.model = m
		read, write = append(read, leaf{"dram.model", newShim(m)}), append(write, leaf{"dram.model", newShim(m)})
	}
	if bw := pb.spec.DRAMBandwidth; bw > 0 {
		w.stall = trace.NewStallAnalyzer(bw)
		read, write = append(read, leaf{"trace.stall", newShim(w.stall)}), append(write, leaf{"trace.stall", newShim(w.stall)})
	}
	// The ifmap and filter buffers both feed dram_read: fresh shims over
	// the same consumers for the second.
	w.leaves[opIfmap] = read
	for _, l := range read {
		w.leaves[opFilter] = append(w.leaves[opFilter], leaf{l.name, newShim(l.s.inner)})
	}
	w.leaves[opOfmap] = write
	return w, nil
}

// tap is the consumer operand op's DRAM traffic goes to; nil when nothing
// listens, which keeps the producers on their sink-free paths as in core.
func (w *wiring) tap(op int) trace.Consumer {
	cs := make([]trace.Consumer, len(w.leaves[op]))
	for i, l := range w.leaves[op] {
		cs[i] = l.s
	}
	return trace.Tee(cs...)
}

// sram joins a primary SRAM-side consumer with the stream's CSV writer.
func (w *wiring) sram(op int, primary trace.Consumer) trace.Consumer {
	if w.sramCSV[op] == nil {
		return primary
	}
	return trace.Tee(primary, w.sramCSV[op])
}

// takeLeaves turns operand op's DRAM-side shims into spans under parent.
func (w *wiring) takeLeaves(t *tracer, op, parent int, req string) {
	for _, l := range w.leaves[op] {
		if l.s.calls > 0 {
			l.s.take(t, parent, req, l.name, 1)
		}
	}
}

// finish flushes and closes the trace files.
func (w *wiring) finish() error {
	for _, c := range w.csvs {
		if err := c.Flush(); err != nil {
			return err
		}
	}
	for _, f := range w.files {
		if err := f.Close(); err != nil {
			return err
		}
	}
	w.files = nil
	return nil
}

func (w *wiring) close() {
	for _, f := range w.files {
		f.Close()
	}
}

func (w *wiring) csvBytes() int64 {
	var n int64
	for _, b := range w.bytes {
		n += b.n
	}
	return n
}

// node simulates one node the way core.stageCompute does, one root span
// per node.
func (pb *passB) node(n topology.Node) (out nodeOut, err error) {
	if err := n.Validate(); err != nil {
		return out, err
	}
	t, cfg, req := pb.t, pb.spec.Config, n.Name
	l := n.Layer
	l.Name = n.Name
	w, err := pb.wire(n.Name)
	if err != nil {
		return out, err
	}
	defer w.close()
	root := t.reserve(0, req, "core.node")
	start := time.Now()

	if n.Kind.Vector() {
		out, err = pb.vectorNode(n, w, root)
	} else {
		out, err = pb.matmulNode(l, cfg, w, root)
	}
	if err != nil {
		return out, err
	}
	if _, err := t.timed(root, req, "trace.csv_close", w.finish); err != nil {
		return out, err
	}
	t.fill(root, start, time.Now(), nil)
	if w.model != nil {
		out.dram = w.model.Stats()
	}
	if w.stall != nil {
		out.stall = w.stall.StallCycles()
	}
	out.csvBytes = w.csvBytes()
	return out, nil
}

func (pb *passB) matmulNode(l topology.Layer, cfg config.Config, w *wiring, root int) (out nodeOut, err error) {
	t, req := pb.t, l.Name
	_, _ = t.timed(root, req, "dataflow.map", func() error {
		_ = dataflow.Map(l, cfg.Dataflow)
		return nil
	})

	var sys *memory.System
	if _, err := t.timed(root, req, "memory.setup", func() error {
		sys, err = memory.NewSystem(cfg, memory.Options{
			DRAMIfmapTap: w.tap(opIfmap), DRAMFilterTap: w.tap(opFilter), DRAMOfmapTap: w.tap(opOfmap)})
		if err != nil {
			return err
		}
		sys.SetRegions(cfg.IfmapOffset, l.IfmapWords(), cfg.FilterOffset, l.FilterWords(), cfg.OfmapOffset, l.OfmapWords())
		return nil
	}); err != nil {
		return out, err
	}

	// The systolic/memory boundary carries a call per simulated cycle per
	// stream, too fine for a clock: a timed call reads some 40 ns slow,
	// which on a 150 ns call made the array's self time negative. So this
	// boundary is measured by difference. One Run with no sinks is the
	// array's own time (fold walk and dataflow run generation); one Run
	// feeding the memory system is both; memory's self time is what the
	// second adds. The shims here only count.
	var comp systolic.Result
	folds := systolic.FoldObserverFunc(func(systolic.FoldInfo) { out.folds++ })
	if _, err := t.timed(root, req, "systolic.run", func() error {
		_, err := systolic.Run(l, cfg, systolic.Sinks{Folds: folds})
		return err
	}); err != nil {
		return out, err
	}
	out.folds = 0
	srams := [3]*shim{
		newCounter(w.sram(opIfmap, sys.Ifmap)),
		newCounter(w.sram(opFilter, sys.Filter)),
		newCounter(w.sram(opOfmap, sys.Ofmap)),
	}
	full := t.reserve(root, req, "memory.sram")
	start := time.Now()
	comp, err = systolic.Run(l, cfg, systolic.Sinks{
		IfmapRead: srams[opIfmap], FilterRead: srams[opFilter], OfmapWrite: srams[opOfmap], Folds: folds})
	if err != nil {
		return out, err
	}
	counts := map[string]int64{}
	for _, s := range srams {
		counts["calls"] += s.calls
		counts["runs"] += s.runsN
	}
	t.fill(full, start, time.Now(), counts)
	for op := range srams {
		if c := w.sramCSV[op]; c != nil {
			c.take(t, full, req, "trace.csv", 1)
		}
		w.takeLeaves(t, op, full, req)
	}
	// The end-of-layer drain is a few large writes: time each.
	flush, _ := t.timed(root, req, "memory.flush", func() error {
		sys.Ofmap.Flush(comp.Cycles)
		return nil
	})
	w.takeLeaves(t, opOfmap, flush, req)

	rep := sys.Report(comp.Cycles)
	out.cycles, out.dramReads, out.dramWrites = comp.Cycles, rep.DRAMReads(), rep.OfmapDRAMWrites
	out.sramWords = rep.IfmapSRAMReads + rep.FilterSRAMReads + rep.OfmapSRAMWrites
	out.fallbacks = sys.RegionFallbacks()
	return out, nil
}

func (pb *passB) vectorNode(n topology.Node, w *wiring, root int) (out nodeOut, err error) {
	t, cfg, req := pb.t, pb.spec.Config, n.Name
	p := vector.Params{Kind: n.Kind, Rows: n.Rows(), Cols: n.Cols(), Operands: n.OperandCount(), Lanes: cfg.Lanes()}
	// A vector node makes a few thousand sink calls: time them all.
	for _, ls := range w.leaves {
		for _, l := range ls {
			l.s.every = 1
		}
	}
	var res vector.Result
	run, err := t.timed(root, req, "vector.run", func() error {
		res, err = vector.RunAt(p,
			vector.Layout{IfmapBase: cfg.IfmapOffset, ParamBase: cfg.FilterOffset, OfmapBase: cfg.OfmapOffset},
			vector.Sinks{
				IfmapRead: w.sram(opIfmap, nil), FilterRead: w.sram(opFilter, nil), OfmapWrite: w.sram(opOfmap, nil),
				IfmapDRAM: w.tap(opIfmap), FilterDRAM: w.tap(opFilter), OfmapDRAM: w.tap(opOfmap),
			})
		return err
	})
	if err != nil {
		return out, err
	}
	for op := range w.leaves {
		if c := w.sramCSV[op]; c != nil {
			c.take(t, run, req, "trace.csv", 1)
		}
		w.takeLeaves(t, op, run, req)
	}
	tr := vector.Traffic(p)
	out.vector = true
	out.cycles = res.Cycles
	out.dramReads, out.dramWrites = tr.InputDRAMReads+tr.ParamDRAMReads, tr.OutputDRAMWrites
	return out, nil
}

// metrics reduces pass B's spans and node outcomes to the per-layer
// metrics of the simulator's modules.
func (pb *passB) metrics(m metricSet, outs []nodeOut) {
	by := rollupByName(pb.t.spans)
	var cycles, vcycles, vnodes, sramWords, dramWords, folds, fallbacks, stall, csvBytes int64
	var ds dram.Stats
	for _, o := range outs {
		if o.vector {
			vcycles += o.cycles
			vnodes++
		} else {
			cycles += o.cycles
		}
		sramWords += o.sramWords
		dramWords += o.dramReads + o.dramWrites
		folds += o.folds
		fallbacks += o.fallbacks
		stall += o.stall
		csvBytes += o.csvBytes
		ds.Requests += o.dram.Requests
		ds.RowHits += o.dram.RowHits
	}
	mapSpans, setup := get(by, "dataflow.map"), get(by, "memory.setup")
	m.set("dataflow.map_s", secs(mapSpans.self))
	m.set("dataflow.map_calls", float64(mapSpans.spans))

	// memory.sram spans hold a whole Run into the memory system; the
	// sink-free systolic.run spans are the array's share of them.
	run, sram := get(by, "systolic.run"), get(by, "memory.sram")
	m.set("systolic.self_s", secs(run.self))
	m.set("systolic.run_calls", float64(run.spans))
	m.set("systolic.cycles", float64(cycles))
	m.set("systolic.folds", float64(folds))
	m.set("systolic.sink_calls", float64(sram.counts["calls"]))
	m.set("systolic.runs_out", float64(sram.counts["runs"]))
	m.set("systolic.words_out", float64(sramWords))
	m.set("systolic.ns_per_cycle", ratio(float64(run.self), float64(cycles)))

	memSelf := sram.self - run.busy + get(by, "memory.flush").self
	m.set("memory.setup_s", secs(setup.self))
	m.set("memory.self_s", secs(memSelf))
	m.set("memory.sram_words_in", float64(sramWords))
	m.set("memory.dram_words_out", float64(dramWords))
	m.set("memory.miss_ratio", ratio(float64(dramWords), float64(sramWords)))
	m.set("memory.region_fallbacks", float64(fallbacks))
	m.set("memory.ns_per_sram_word", ratio(float64(memSelf), float64(sramWords)))

	csvSelf := get(by, "trace.csv").self + get(by, "trace.csv_close").self
	if pb.traceDir == "" {
		csvSelf = 0 // closing no files is not the trace writer's time
	}
	m.set("trace.csv_self_s", secs(csvSelf))
	m.set("trace.csv_bytes", float64(csvBytes))
	m.set("trace.csv_mb_per_s", ratio(float64(csvBytes)/1e6, secs(csvSelf)))
	m.set("trace.stall_self_s", secs(get(by, "trace.stall").self))
	m.set("trace.stall_cycles", float64(stall))

	model := get(by, "dram.model")
	m.set("dram.self_s", secs(model.self))
	m.set("dram.requests", float64(ds.Requests))
	m.set("dram.row_hit_ratio", ds.RowHitRate())
	m.set("dram.ns_per_request", ratio(float64(model.self), float64(ds.Requests)))

	vrun := get(by, "vector.run")
	m.set("vector.self_s", secs(vrun.self))
	m.set("vector.run_calls", float64(vnodes))
	m.set("vector.cycles", float64(vcycles))
}
