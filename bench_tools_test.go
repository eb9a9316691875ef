// Benchmarks for the analysis and orchestration tooling built around the
// simulator: the reuse profiler, the batch sweep runner, the stall
// analyzer, and the chart renderer.
package scalesim_test

import (
	"testing"

	"scalesim/internal/batch"
	"scalesim/internal/config"
	"scalesim/internal/job"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
	"scalesim/internal/tracetools"
	"scalesim/internal/viz"
)

// BenchmarkReuseProfiler measures Mattson stack-distance profiling over a
// real layer trace.
func BenchmarkReuseProfiler(b *testing.B) {
	l := benchLayer()
	cfg := config.New().WithArray(32, 32)
	var total int64
	for i := 0; i < b.N; i++ {
		p := tracetools.NewReuseProfiler()
		if _, err := systolic.Run(l, cfg, systolic.Sinks{IfmapRead: p}); err != nil {
			b.Fatal(err)
		}
		total = p.Total()
	}
	b.ReportMetric(float64(total), "accesses")
}

// BenchmarkBatchSweep measures a 2x2x1 design-space grid end to end.
func BenchmarkBatchSweep(b *testing.B) {
	spec := batch.Spec{
		Base:       config.New(),
		Arrays:     [][2]int{{16, 16}, {32, 32}},
		Dataflows:  []config.Dataflow{config.OutputStationary, config.WeightStationary},
		SRAMs:      [][3]int{{8, 8, 4}},
		Topologies: []topology.Topology{topology.TinyNet()},
	}
	runner := benchRunner(b, nil)
	for i := 0; i < b.N; i++ {
		res, err := runner.RunSweep("sweep", spec, job.Live{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 4 {
			b.Fatal("grid size")
		}
	}
}

// BenchmarkStallAnalyzer measures demand-lag accounting over a dense trace.
func BenchmarkStallAnalyzer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := trace.NewStallAnalyzer(2)
		for c := int64(0); c < 100_000; c++ {
			s.Add(c, 1+c%7)
		}
		if s.StallCycles() == 0 {
			b.Fatal("expected stalls")
		}
	}
}

// BenchmarkVizRender measures ASCII chart rendering.
func BenchmarkVizRender(b *testing.B) {
	s := viz.Series{Name: "r"}
	for i := 0; i < 200; i++ {
		s.X = append(s.X, float64(i+1))
		s.Y = append(s.Y, float64((i%17)+1))
	}
	chart := viz.Chart{LogX: true, Width: 72, Height: 20}
	for i := 0; i < b.N; i++ {
		if _, err := chart.Render(s); err != nil {
			b.Fatal(err)
		}
	}
}
