package core

import (
	"fmt"
	"sync"

	"scalesim/internal/engine"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/timeline"
)

// timelineProbeKey is the SinkSet value key the timeline factory deposits
// each layer's recorder under.
const timelineProbeKey = "core.timeline"

// timelineState collects the per-job recorders built by the timeline
// sink factory until the engine's deterministic join: runNodes then emits
// them at the layers' serialized cycle offsets, SimulateWindows hands them
// to its caller, who knows where partitions go.
type timelineState struct {
	mu   sync.Mutex
	recs map[int]*timeline.LayerRecorder
}

func (t *timelineState) put(index int, rec *timeline.LayerRecorder) {
	t.mu.Lock()
	if t.recs == nil {
		t.recs = make(map[int]*timeline.LayerRecorder)
	}
	t.recs[index] = rec
	t.mu.Unlock()
}

func (t *timelineState) take() map[int]*timeline.LayerRecorder {
	t.mu.Lock()
	recs := t.recs
	t.recs = nil
	t.mu.Unlock()
	return recs
}

// timelineSink builds a fresh LayerRecorder per layer: windowed counter
// samplers on all eight trace streams, plus a stall profiler on the DRAM
// streams when the link is bounded. The recorder is deposited for the
// compute stage to wire the fold observer and record the drain.
func (s *Simulator) timelineSink() engine.Factory {
	window := s.opt.Timeline.Window()
	bw := s.opt.DRAMBandwidth
	return func(job engine.Job, set *engine.SinkSet) error {
		rec := timeline.NewLayerRecorder(job.Layer, job.Index, window)
		set.Attach(engine.SRAMReadIfmap, rec.Sampler(timeline.TrackSRAMIfmapRead))
		set.Attach(engine.SRAMReadFilter, rec.Sampler(timeline.TrackSRAMFilterRead))
		set.Attach(engine.SRAMWriteOfmap, rec.Sampler(timeline.TrackSRAMOfmapWrite))
		set.Attach(engine.DRAMRead, rec.Sampler(timeline.TrackDRAMRead))
		set.Attach(engine.DRAMWrite, rec.Sampler(timeline.TrackDRAMWrite))
		set.Attach(engine.DRAMReadIfmap, rec.Sampler(timeline.TrackDRAMIfmapRead))
		set.Attach(engine.DRAMReadFilter, rec.Sampler(timeline.TrackDRAMFilterRead))
		set.Attach(engine.DRAMWriteOfmap, rec.Sampler(timeline.TrackDRAMOfmapWrite))
		if bw > 0 {
			p := rec.Stall(bw)
			set.Attach(engine.DRAMRead, p)
			set.Attach(engine.DRAMWrite, p)
		}
		set.Put(timelineProbeKey, rec)
		return nil
	}
}

// emitTimeline writes the run into the timeline writer: the
// simulated-machine process first (each layer's buffered events placed at
// its serialized StartCycle), then the host-engine process built from the
// scheduler spans. Runs after aggregation, so it can never perturb
// results.
func (s *Simulator) emitTimeline(run RunResult, spans []obsv.Span) {
	w := s.opt.Timeline
	recs := s.tl.take()
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
	for i := range run.Layers {
		rec := recs[i]
		if rec == nil {
			continue
		}
		rec.Emit(w, pid, timeline.DefaultPlacement(run.Layers[i].StartCycle))
	}
	if len(spans) > 0 {
		host := w.Process("host engine")
		timeline.EmitEngineSpans(w, host, spans, func(i int) string {
			if i >= 0 && i < len(run.Topology.Layers) {
				return run.Topology.Layers[i].Name
			}
			return fmt.Sprintf("job %d", i)
		})
	}
}
