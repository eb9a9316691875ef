// Benchmarks for the tiered design-space search (internal/dse): the
// tier-1 analytical scoring throughput that makes million-config grids
// tractable, and the headline full-vs-tiered sweep comparison at equal
// grid — the "spend cycle-accurate time only where it matters" contract.
package scalesim_test

import (
	"context"
	"testing"

	"scalesim/internal/analytical"
	"scalesim/internal/batch"
	"scalesim/internal/config"
	"scalesim/internal/dse"
	"scalesim/internal/job"
	"scalesim/internal/simcache"
	"scalesim/internal/topology"
)

// dseShapes enumerates every RxC factorization of the given MAC budgets —
// the paper's Fig. 9/11 aspect-ratio axis, three orders of magnitude of it.
func dseShapes(budgets ...int64) [][2]int {
	var arrays [][2]int
	for _, macs := range budgets {
		for _, s := range analytical.Shapes(macs, 1) {
			arrays = append(arrays, [2]int{int(s.R), int(s.C)})
		}
	}
	return arrays
}

// benchRunner is the one-worker Runner a CLI builds — what scaledse hands
// dse.Explore and scalesweep runs its grid on — over cache (nil = uncached).
func benchRunner(b *testing.B, cache *simcache.Cache) *job.Runner {
	r := job.NewRunner(job.Options{Workers: 1, QueueDepth: 1, Cache: cache})
	b.Cleanup(func() { _ = r.Close(context.Background()) })
	return r
}

// BenchmarkDSETier1 measures analytical pre-filter throughput: every
// (shape, dataflow) candidate scored against every workload, band cut
// included. The configs/s metric is the acceptance-criteria number
// (floor: 1e5 configs/s); the grid here is ~10^2 larger than the Fig. 11
// sweep's distinct array-shape set.
func BenchmarkDSETier1(b *testing.B) {
	grid := batch.Spec{
		Base: config.New(),
		// Highly-composite MAC budgets maximize distinct RxC
		// factorizations: ~1200 shapes, vs Fig. 11's handful.
		Arrays: dseShapes(720720, 831600, 942480, 997920, 1081080),
		Dataflows: []config.Dataflow{
			config.OutputStationary, config.WeightStationary, config.InputStationary,
		},
		Topologies: []topology.Topology{topology.TinyNet(), topology.AlexNet()},
	}
	runner := benchRunner(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	var scored, nspop int64
	for i := 0; i < b.N; i++ {
		res, err := dse.Explore(grid, dse.Options{Epsilon: 0.1, Tier1Only: true}, runner, job.Live{})
		if err != nil {
			b.Fatal(err)
		}
		scored = res.Stats.Scored
		nspop = int64(res.Stats.Tier1Seconds * 1e9)
	}
	b.StopTimer()
	if nspop > 0 {
		b.ReportMetric(float64(scored)/(float64(nspop)/1e9), "configs/s")
	}
	b.ReportMetric(float64(scored), "configs")
}

// BenchmarkDSESweep pins the tentpole speedup: the same grid refined
// exhaustively (every point cycle-accurate) versus through the tiered
// search (analytical band first, simulation only inside the band).
func BenchmarkDSESweep(b *testing.B) {
	grid := batch.Spec{
		Base:       config.New(),
		Arrays:     dseShapes(1 << 8), // 16x16 budget: 9 shapes
		Dataflows:  []config.Dataflow{config.OutputStationary, config.WeightStationary},
		Topologies: []topology.Topology{topology.TinyNet()},
	}

	b.Run("full", func(b *testing.B) {
		runner := benchRunner(b, nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := runner.RunSweep("sweep", grid, job.Live{})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != len(grid.Arrays)*len(grid.Dataflows) {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
	})
	b.Run("tiered", func(b *testing.B) {
		runner := benchRunner(b, nil)
		b.ReportAllocs()
		var refined, gridN int64
		for i := 0; i < b.N; i++ {
			res, err := dse.Explore(grid, dse.Options{Epsilon: 0.1}, runner, job.Live{})
			if err != nil {
				b.Fatal(err)
			}
			refined, gridN = res.Stats.RefinedPoints, res.Stats.GridPoints
		}
		b.ReportMetric(float64(refined), "refined")
		b.ReportMetric(float64(gridN), "grid")
	})
}
