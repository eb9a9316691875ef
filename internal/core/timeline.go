package core

import (
	"cmp"
	"fmt"

	"scalesim/internal/engine"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/timeline"
)

// recordTimeline builds the layer's fresh LayerRecorder: windowed counter
// samplers on all eight trace streams, and the layer's one stall analyzer
// (when the link is bounded) switched to recording intervals. The compute
// stage wires the fold observer to it and records the drain.
func (s *Simulator) recordTimeline(ctx *LayerContext) {
	rec := timeline.NewLayerRecorder(ctx.Layer.Name, ctx.Index, s.opt.Timeline.Window())
	set := ctx.set
	set.Attach(engine.SRAMReadIfmap, rec.Sampler(timeline.TrackSRAMIfmapRead))
	set.Attach(engine.SRAMReadFilter, rec.Sampler(timeline.TrackSRAMFilterRead))
	set.Attach(engine.SRAMWriteOfmap, rec.Sampler(timeline.TrackSRAMOfmapWrite))
	set.Attach(engine.DRAMRead, rec.Sampler(timeline.TrackDRAMRead))
	set.Attach(engine.DRAMWrite, rec.Sampler(timeline.TrackDRAMWrite))
	set.Attach(engine.DRAMReadIfmap, rec.Sampler(timeline.TrackDRAMIfmapRead))
	set.Attach(engine.DRAMReadFilter, rec.Sampler(timeline.TrackDRAMFilterRead))
	set.Attach(engine.DRAMWriteOfmap, rec.Sampler(timeline.TrackDRAMOfmapWrite))
	if ctx.stall != nil {
		rec.Stall(ctx.stall)
	}
	ctx.rec = rec
}

// emitTimeline writes, after aggregation, each run's simulated-machine
// processes in run order, then one host-engine process from the scheduler
// spans. One array runs one layer at a time, so a run on it is one process,
// titled by its run's or workload's name, each layer's events placed at its
// serialized StartCycle. Partitions run side by side, so under Parts each
// layer is its own process with one thread per partition (counter tracks
// prefixed "p<i>."), all starting at cycle zero.
func (s *Simulator) emitTimeline(runs []Run, results []RunResult, ctxs []*LayerContext, spans []obsv.Span) {
	w := s.opt.Timeline
	part := func(ctx *LayerContext) string { return fmt.Sprintf("partition %d,%d", ctx.pi, ctx.pj) }
	var pid, tid int64
	for i, ctx := range ctxs {
		sim, newRun := ctx.sim, i == 0 || ctx.run != ctxs[i-1].run
		if sim.partitioned() {
			if newRun || ctx.Index != ctxs[i-1].Index {
				pid = w.Process(fmt.Sprintf("simulated machine: %s on %s partitions of %dx%d",
					ctx.Layer.Name, sim.opt.Parts, sim.cfg.ArrayHeight, sim.cfg.ArrayWidth))
				tid = 0
			}
			ctx.rec.Name = part(ctx)
			w.Thread(pid, tid, ctx.rec.Name)
			ctx.rec.Emit(w, pid, timeline.Placement{
				Array: tid, DRAM: -1, Stall: -1,
				TrackPrefix: fmt.Sprintf("p%d.", tid),
			})
			tid++
			continue
		}
		res := results[ctx.run]
		if newRun {
			title := "simulated machine"
			if name := cmp.Or(runs[ctx.run].Name, res.Topology.Name); name != "" {
				title += ": " + name
			}
			pid = w.Process(title)
			w.Thread(pid, timeline.TIDArray, "array")
			w.Thread(pid, timeline.TIDDRAM, "dram")
			if sim.opt.DRAMBandwidth > 0 {
				w.Thread(pid, timeline.TIDStalls, "stalls")
			}
		}
		ctx.rec.Emit(w, pid, timeline.DefaultPlacement(res.Layers[ctx.Index].StartCycle))
	}
	// A timeline run is never planned: job i is context i.
	timeline.EmitEngineSpans(w, spans, func(i int) string {
		name := ctxs[i].Layer.Name
		if ctxs[i].sim.partitioned() {
			name += " " + part(ctxs[i])
		}
		if r := runs[ctxs[i].run]; r.Name != "" {
			name = r.Name + ": " + name
		}
		return name
	})
}
