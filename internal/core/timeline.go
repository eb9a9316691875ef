package core

import (
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

// emitTimeline writes the run into the timeline writer: the
// simulated-machine processes first, then the host-engine process built
// from the scheduler spans. One array runs one layer at a time, so a run
// on it is one process, each layer's buffered events placed at its
// serialized StartCycle. Partitions run side by side, so under Parts each
// layer is its own process with one thread per partition (its span plus
// fold schedule, counter tracks prefixed "p<i>."), all starting at cycle
// zero. Runs after aggregation, so it can never perturb results.
func (s *Simulator) emitTimeline(run RunResult, ctxs []*LayerContext, spans []obsv.Span) {
	w := s.opt.Timeline
	name := func(i int) string { return ctxs[i].Layer.Name }
	if s.partitioned() {
		part := func(ctx *LayerContext) string { return fmt.Sprintf("partition %d,%d", ctx.pi, ctx.pj) }
		var pid, tid int64
		for i, ctx := range ctxs {
			if i == 0 || ctx.Index != ctxs[i-1].Index {
				pid = w.Process(fmt.Sprintf("simulated machine: %s on %s partitions of %dx%d",
					ctx.Layer.Name, s.opt.Parts, s.cfg.ArrayHeight, s.cfg.ArrayWidth))
				tid = 0
			}
			ctx.rec.Name = part(ctx)
			w.Thread(pid, tid, ctx.rec.Name)
			ctx.rec.Emit(w, pid, timeline.Placement{
				Array: tid, DRAM: -1, Stall: -1,
				TrackPrefix: fmt.Sprintf("p%d.", tid),
			})
			tid++
		}
		name = func(i int) string { return ctxs[i].Layer.Name + " " + part(ctxs[i]) }
	} else {
		title := "simulated machine"
		if run.Topology.Name != "" {
			title += ": " + run.Topology.Name
		}
		pid := w.Process(title)
		w.Thread(pid, timeline.TIDArray, "array")
		w.Thread(pid, timeline.TIDDRAM, "dram")
		if s.opt.DRAMBandwidth > 0 {
			w.Thread(pid, timeline.TIDStalls, "stalls")
		}
		for i, ctx := range ctxs {
			ctx.rec.Emit(w, pid, timeline.DefaultPlacement(run.Layers[i].StartCycle))
		}
	}
	// A timeline run is never planned: job i is context i.
	timeline.EmitEngineSpans(w, spans, name)
}
