package timeline

import (
	"fmt"
	"sort"

	"scalesim/internal/obsv"
)

// EmitEngineSpans translates the engine's job spans into the host-clock
// process ("host engine", allocated here unless there is nothing to show):
// one thread per worker, one duration event per job covering its
// execution, with queue wait and join latency as arguments. Timestamps
// are microseconds since the earliest dispatch, so the process starts at
// zero like the machine domain. jobName labels the event for a job index.
func EmitEngineSpans(w *Writer, spans []obsv.Span, jobName func(index int) string) {
	if len(spans) == 0 {
		return
	}
	pid := w.Process("host engine")
	base := spans[0].Enqueued
	workers := make(map[int]struct{})
	for _, s := range spans {
		if s.Enqueued.Before(base) {
			base = s.Enqueued
		}
		workers[s.Worker] = struct{}{}
	}
	ids := make([]int, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		w.Thread(pid, int64(id), fmt.Sprintf("worker %d", id))
	}
	for _, s := range spans {
		start := s.Enqueued.Add(s.QueueWait)
		args := map[string]any{
			"index":         s.Index,
			"queue_wait_us": s.QueueWait.Microseconds(),
			"join_us":       s.Join.Microseconds(),
		}
		if s.Err {
			args["err"] = true
		}
		w.Span(pid, int64(s.Worker), jobName(s.Index),
			start.Sub(base).Microseconds(), s.Exec.Microseconds(), args)
	}
}
