package partition

import (
	"fmt"

	"scalesim/internal/core"
	"scalesim/internal/obsv/timeline"
	"scalesim/internal/topology"
)

// emitTimeline places a scale-out run on the timeline: the recorders and
// engine spans are core's, one per window; what is scale-out's own is
// where they go. Partitions run side by side, so the simulated-machine
// process carries one thread per partition (its span plus fold schedule,
// counter tracks prefixed "p<i>."), all starting at cycle zero, and the
// host-engine spans are named after the partitions they simulated. Runs
// after the deterministic join, so the export never perturbs results.
func emitTimeline(w *timeline.Writer, l topology.Layer, spec Spec, at []gridPos, run core.WindowRun) {
	pid := w.Process(fmt.Sprintf("simulated machine: %s on %s", l.Name, spec))
	name := func(i int) string { return fmt.Sprintf("partition %d,%d", at[i].pi, at[i].pj) }
	for i := range at {
		rec := run.Recorders[i]
		rec.Name = name(i)
		w.Thread(pid, int64(i), rec.Name)
		rec.Emit(w, pid, timeline.Placement{
			Array: int64(i), DRAM: -1, Stall: -1,
			TrackPrefix: fmt.Sprintf("p%d.", i),
		})
	}
	timeline.EmitEngineSpans(w, run.Spans, name)
}
