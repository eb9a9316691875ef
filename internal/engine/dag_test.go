package engine

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// depsOf adapts a literal dependency table to RunDAG's callback.
func depsOf(table [][]int) func(int) []int {
	return func(i int) []int { return table[i] }
}

// TestRunDAGDiamond runs a diamond (0 -> {1,2} -> 3) at several worker
// counts: results must be identical and ordering constraints respected.
func TestRunDAGDiamond(t *testing.T) {
	deps := [][]int{nil, {0}, {0}, {1, 2}}
	for _, workers := range []int{1, 2, 4, 8} {
		var mu sync.Mutex
		started := make(map[int][]int) // job -> jobs finished before it started
		var finished []int
		results, err := RunDAG(workers, 4, depsOf(deps), func(i int) (int, error) {
			mu.Lock()
			started[i] = append([]int(nil), finished...)
			mu.Unlock()
			defer func() {
				mu.Lock()
				finished = append(finished, i)
				mu.Unlock()
			}()
			return i * 10, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(results, []int{0, 10, 20, 30}) {
			t.Fatalf("workers=%d: results %v", workers, results)
		}
		for job, before := range started {
			have := make(map[int]bool)
			for _, f := range before {
				have[f] = true
			}
			for _, d := range deps[job] {
				if !have[d] {
					t.Errorf("workers=%d: job %d started before dependency %d finished", workers, job, d)
				}
			}
		}
	}
}

// TestRunDAGForwardDependency: deps must point strictly down.
func TestRunDAGForwardDependency(t *testing.T) {
	for _, deps := range [][][]int{
		{{1}, nil}, // forward edge
		{{0}},      // self edge
		{nil, {-1}},
	} {
		_, err := RunDAG(2, len(deps), depsOf(deps), func(i int) (int, error) { return i, nil })
		if err == nil || !strings.Contains(err.Error(), "must precede") {
			t.Errorf("deps %v: error = %v", deps, err)
		}
	}
}

// TestRunDAGErrorPropagation: a failing job reports its own error, and
// its dependents never run.
func TestRunDAGErrorPropagation(t *testing.T) {
	deps := [][]int{nil, {0}, {1}, {2}}
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		_, err := RunDAG(workers, 4, depsOf(deps), func(i int) (int, error) {
			ran.Add(1)
			if i == 1 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "boom 1") {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if got := ran.Load(); got != 2 {
			t.Errorf("workers=%d: %d jobs ran, want 2 (dependents of the failure must not run)", workers, got)
		}
		ran.Store(0)
	}
}

// TestRunDAGPanicRecovery: a panicking job surfaces as an error, like Run.
func TestRunDAGPanicRecovery(t *testing.T) {
	for _, workers := range []int{1, 3} {
		_, err := RunDAG(workers, 3, depsOf([][]int{nil, nil, nil}), func(i int) (int, error) {
			if i == 1 {
				panic("kaboom")
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("workers=%d: err = %v", workers, err)
		}
	}
}

// TestRunDAGWideFanOut stresses a root feeding many independent jobs
// feeding one sink, under more jobs than workers.
func TestRunDAGWideFanOut(t *testing.T) {
	const width = 50
	n := width + 2
	deps := make([][]int, n)
	var mids []int
	for i := 1; i <= width; i++ {
		deps[i] = []int{0}
		mids = append(mids, i)
	}
	deps[n-1] = mids
	results, err := RunDAG(4, n, depsOf(deps), func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*i {
			t.Fatalf("results[%d] = %d", i, r)
		}
	}
}

func TestRunDAGEmpty(t *testing.T) {
	results, err := RunDAG(4, 0, depsOf(nil), func(i int) (int, error) { return i, nil })
	if err != nil || len(results) != 0 {
		t.Fatalf("empty run: %v, %v", results, err)
	}
}
