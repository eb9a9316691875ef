// Package engine is the shared execution core of the simulator: a
// deterministic parallel scheduler for independent jobs plus a pluggable
// per-job trace-sink registry.
//
// Per-layer simulations are independent — each layer's traces depend only
// on the configuration and the layer's dimensions (ISPASS 2020, Sec. III) —
// so every simulation in the product, whatever the front end, is one list
// of jobs that core's run plan fans out on RunObserved's bounded worker
// pool and joins back in order.
//
// Determinism is the load-bearing guarantee: for any worker count the
// results slice, every trace byte and the returned error are identical to a
// sequential run, because every job has its own state (the sink Registry
// constructs consumers per job), results are joined in job order, and
// cumulative accounting is left to the caller, after the join. RunObserved
// emits one obsv.Span per job (queue wait, execution time, join latency,
// worker id) to a pluggable sink, after the final join, in job order; with
// a nil sink no clock is read at all.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"scalesim/internal/obsv"
	"scalesim/internal/obsv/log"
)

// PanicError is a job panic converted into an error: instead of one bad
// layer killing the whole process from inside a worker goroutine, the run
// fails with the job's index, the panic value and its stack.
type PanicError struct {
	// Index is the panicking job's position in the job list.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: job %d panicked: %v", e.Index, e.Value)
}

// logJobStart and logJobDone report per-job scheduling events to the
// process logger. Failures always log at error level (panics carry their
// value); completions only at debug, behind an Enabled check so the
// common path pays one atomic load and a comparison. Logging observes
// the schedule exactly like span sinks do — it never alters results.
func logJobStart(i, worker int) {
	if lg := log.Default(); lg.Enabled(context.Background(), log.LevelDebug) {
		lg.Debug("job start", "subsystem", "engine", "job", i, "worker", worker)
	}
}

func logJobDone(i, worker int, err error) {
	lg := log.Default()
	if err != nil {
		var pe *PanicError
		if errors.As(err, &pe) {
			lg.Error("job panicked", "subsystem", "engine", "job", i, "worker", worker, "panic", fmt.Sprint(pe.Value))
			return
		}
		lg.Error("job failed", "subsystem", "engine", "job", i, "worker", worker, "error", err)
		return
	}
	if lg.Enabled(context.Background(), log.LevelDebug) {
		lg.Debug("job done", "subsystem", "engine", "job", i, "worker", worker)
	}
}

// runJob invokes job(i), converting a panic into a *PanicError so the
// failure propagates through the ordinary lowest-index-error join.
func runJob[T any](i int, job func(i int) (T, error)) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return job(i)
}

// Run is RunObserved without a span sink.
func Run[T any](workers, n int, job func(i int) (T, error)) ([]T, error) {
	return RunObserved(workers, n, nil, job)
}

// RunObserved executes n independent jobs over a bounded worker pool and
// returns their results in job order. workers <= 0 defaults to GOMAXPROCS,
// and workers is capped at n. Jobs are dispatched in index order. The
// output is bit-identical for every worker count, the error included: the
// lowest-index failure, as a sequential run would hit first. Dispatch stops
// after the first observed failure, but every job already started is
// drained. A job that panics fails with a *PanicError under the same rule.
// Every executed job emits one obsv.Span to sink after the final join, in
// job index order, from the calling goroutine; a nil sink skips every
// clock read.
func RunObserved[T any](workers, n int, sink obsv.SpanSink, job func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			var start time.Time
			if sink != nil {
				start = time.Now()
			}
			logJobStart(i, 0)
			var err error
			results[i], err = runJob(i, job)
			logJobDone(i, 0, err)
			if sink != nil {
				sink.Emit(obsv.Span{Index: i, Exec: time.Since(start), Err: err != nil,
					Enqueued: start})
			}
			if err != nil {
				return results, err
			}
		}
		return results, nil
	}

	errs := make([]error, n)
	var failed atomic.Bool
	// Span bookkeeping, allocated only when observed: enqueue and end
	// stamps live outside the Span so emission order stays index order and
	// undispatched slots (after a failure) are recognizable.
	var enq, ends []time.Time
	var spans []obsv.Span
	if sink != nil {
		enq = make([]time.Time, n)
		ends = make([]time.Time, n)
		spans = make([]obsv.Span, n)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				var start time.Time
				if sink != nil {
					start = time.Now()
				}
				logJobStart(i, w)
				var err error
				if results[i], err = runJob(i, job); err != nil {
					errs[i] = err
					failed.Store(true)
				}
				logJobDone(i, w, err)
				if sink != nil {
					end := time.Now()
					spans[i] = obsv.Span{
						Index:     i,
						Worker:    w,
						QueueWait: start.Sub(enq[i]),
						Exec:      end.Sub(start),
						Err:       err != nil,
						Enqueued:  enq[i],
					}
					ends[i] = end
				}
			}
		}()
	}
	for i := 0; i < n && !failed.Load(); i++ {
		if sink != nil {
			enq[i] = time.Now()
		}
		next <- i
	}
	close(next)
	wg.Wait()

	if sink != nil {
		join := time.Now()
		for i := range spans {
			if ends[i].IsZero() {
				continue // never dispatched (failure stopped the feed)
			}
			spans[i].Join = join.Sub(ends[i])
			sink.Emit(spans[i])
		}
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
