package core

import (
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
// simulated-machine process first (each layer's buffered events placed at
// its serialized StartCycle), then the host-engine process built from the
// scheduler spans. Runs after aggregation, so it can never perturb
// results.
func (s *Simulator) emitTimeline(run RunResult, done []*LayerContext, spans []obsv.Span) {
	w := s.opt.Timeline
	name := "simulated machine"
	if run.Topology.Name != "" {
		name += ": " + run.Topology.Name
	}
	pid := w.Process(name)
	w.Thread(pid, timeline.TIDArray, "array")
	w.Thread(pid, timeline.TIDDRAM, "dram")
	if s.opt.DRAMBandwidth > 0 {
		w.Thread(pid, timeline.TIDStalls, "stalls")
	}
	for i, ctx := range done {
		ctx.rec.Emit(w, pid, timeline.DefaultPlacement(run.Layers[i].StartCycle))
	}
	// A timeline run is never planned: job i is layer i.
	timeline.EmitEngineSpans(w, spans, func(i int) string { return run.Topology.Layers[i].Name })
}
