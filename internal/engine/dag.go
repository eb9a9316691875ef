package engine

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"

	"scalesim/internal/obsv/log"
)

// logSkipped warns when a failure leaves DAG nodes unexecuted: the
// failed job's dependents and everything dispatch never reached. Nothing
// else reports these nodes — they produce no results.
func logSkipped(skipped int) {
	if skipped > 0 {
		log.Default().Warn("dag nodes skipped after failure", "subsystem", "engine", "skipped", skipped)
	}
}

// minHeap is a min-heap of job indices: the DAG dispatcher always hands
// the lowest-index ready job to the next free worker, keeping the
// schedule as close to the sequential order as the dependencies allow.
type minHeap []int

func (h minHeap) Len() int           { return len(h) }
func (h minHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h minHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *minHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// RunDAG executes n jobs over a bounded worker pool, honoring dependency
// edges. The simulator itself no longer calls it — a node's result never
// depended on its producers', so core dispatches graph nodes through Run —
// and it stays only for the benchmark's pass B. Job i may only start once
// every job in deps(i) has completed
// successfully. deps(i) must contain indices strictly below i — callers
// schedule in a topological order (see topology.Graph.Schedule), which
// guarantees exactly that — and RunDAG rejects any other shape. Results
// are returned in job order.
//
// Determinism matches Run: per-job state is never shared, results join in
// index order, so every result and trace byte is identical for every
// worker count. When jobs fail, the error returned is the lowest-index
// failure among the jobs that ran; dispatch stops at the first observed
// failure and inflight jobs are drained. (Unlike Run's independent jobs,
// a sequential DAG run below a higher-index failure may fail differently
// when several jobs would fail — dependents of a failed job never run.)
func RunDAG[T any](workers, n int, deps func(i int) []int, job func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}

	// Resolve and validate the dependency structure up front.
	indeg := make([]int, n)
	succs := make([][]int, n)
	for i := 0; i < n; i++ {
		for _, d := range deps(i) {
			if d < 0 || d >= i {
				return results, fmt.Errorf("engine: job %d depends on %d; dependencies must precede the job", i, d)
			}
			indeg[i]++
			succs[d] = append(succs[d], i)
		}
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Index order is a topological order (deps point strictly down), so
		// the sequential path is a plain loop, identical to Run's.
		for i := 0; i < n; i++ {
			logJobStart(i, 0)
			var err error
			results[i], err = runJob(i, job)
			logJobDone(i, 0, err)
			if err != nil {
				logSkipped(n - 1 - i)
				return results, err
			}
		}
		return results, nil
	}

	errs := make([]error, n)
	type completion struct {
		index  int
		failed bool
	}
	next := make(chan int)
	done := make(chan completion)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				logJobStart(i, w)
				var err error
				if results[i], err = runJob(i, job); err != nil {
					errs[i] = err
				}
				logJobDone(i, w, err)
				done <- completion{index: i, failed: err != nil}
			}
		}()
	}

	// Coordinator: dispatch the lowest-index ready job whenever a worker is
	// free, retire completions, and release dependents as their last
	// predecessor finishes. Runs on the calling goroutine; the select's nil
	// send channel disables dispatch while nothing is ready (or after a
	// failure), leaving only completions to wait on.
	ready := &minHeap{}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			heap.Push(ready, i)
		}
	}
	inflight := 0
	dispatched := 0
	failed := false
	for {
		if inflight == 0 && (failed || ready.Len() == 0) {
			break
		}
		var send chan int
		var candidate int
		if !failed && ready.Len() > 0 {
			candidate = (*ready)[0]
			send = next
		}
		select {
		case send <- candidate:
			heap.Pop(ready)
			inflight++
			dispatched++
		case c := <-done:
			inflight--
			if c.failed {
				failed = true
				continue
			}
			if failed {
				continue
			}
			for _, s := range succs[c.index] {
				if indeg[s]--; indeg[s] == 0 {
					heap.Push(ready, s)
				}
			}
		}
	}
	close(next)
	wg.Wait()
	if failed {
		logSkipped(n - dispatched)
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
