// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating its data via internal/experiments and reporting
// headline numbers as benchmark metrics), plus micro-benchmarks of the
// simulator's building blocks. Run with:
//
//	go test -bench=. -benchmem
package scalesim_test

import (
	"io"
	"runtime"
	"strconv"
	"testing"

	"scalesim"
	"scalesim/internal/analytical"
	"scalesim/internal/batch"
	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/dataflow"
	"scalesim/internal/dram"
	"scalesim/internal/experiments"
	"scalesim/internal/job"
	"scalesim/internal/memory"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/timeline"
	"scalesim/internal/partition"
	"scalesim/internal/rtlref"
	"scalesim/internal/simcache"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
)

// --- Tables ---------------------------------------------------------------

// BenchmarkTableIII exercises the spatio-temporal mapping of Table III:
// every built-in layer under every dataflow.
func BenchmarkTableIII(b *testing.B) {
	layers := topology.ResNet50().Layers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total int64
		for _, l := range layers {
			for _, df := range config.Dataflows {
				m := dataflow.Map(l, df)
				total += m.MACs()
			}
		}
		if total <= 0 {
			b.Fatal("empty mapping")
		}
	}
}

// tableIVBenchLayers returns the Table IV language-model workloads with each
// GEMM dimension clamped to 256 so the trace volume stays benchmark-sized
// while the address patterns remain the real ones.
func tableIVBenchLayers(b *testing.B) []topology.Layer {
	const cap = 256
	clamp := func(v int) int {
		if v > cap {
			return cap
		}
		return v
	}
	full := topology.LanguageModels()
	if len(full.Layers) != 10 {
		b.Fatal("Table IV layer count")
	}
	for _, l := range full.Layers {
		if m := dataflow.Map(l, config.OutputStationary); m.MACs() != l.MACOps() {
			b.Fatal("mapping mismatch")
		}
	}
	layers := make([]topology.Layer, 0, len(full.Layers))
	for _, l := range full.Layers {
		layers = append(layers, topology.FromGEMM(l.Name,
			clamp(l.IfmapH), clamp(l.Channels), clamp(l.NumFilters)))
	}
	return layers
}

// BenchmarkTableIV runs the (clamped) Table IV workloads through the full
// systolic→trace→memory hot path — SRAM model plus a CSV trace sink — the
// loop the strided-run representation is built to accelerate. The gated
// end-to-end counterpart is `go run ./bench -workload tableiv_traced`.
func BenchmarkTableIV(b *testing.B) {
	b.ReportAllocs()
	layers := tableIVBenchLayers(b)
	cfg := config.New().WithArray(32, 32).WithSRAM(64, 64, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range layers {
			sys, err := memory.NewSystem(cfg, memory.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sys.SetRegions(cfg.IfmapOffset, l.IfmapWords(),
				cfg.FilterOffset, l.FilterWords(), cfg.OfmapOffset, l.OfmapWords())
			csv := trace.NewCSVWriter(io.Discard)
			res, err := systolic.Run(l, cfg, systolic.Sinks{
				IfmapRead:  trace.Tee(sys.Ifmap, csv),
				FilterRead: sys.Filter,
				OfmapWrite: sys.Ofmap,
			})
			if err != nil {
				b.Fatal(err)
			}
			sys.Ofmap.Flush(res.Cycles)
			if err := csv.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figures ----------------------------------------------------------------

// BenchmarkFig4 regenerates the validation figure: RTL reference vs
// trace-based simulator over the sizes results/fig4.csv holds, 4..128. The
// reference keeps one flat register array per operand and shifts it a row
// slice at a time, so a pass allocates little beyond its operands and
// products; one that allocates more than 4 MB (a pass takes 1.3 MB; with a
// grid copy per cycle it took 303 MB) has brought the copy back and fails.
// On 2 vCPU a pass takes 16-19 ms; stepping a grid of PE structs in place,
// edge branches inside the per-PE loop, it took 43-48 ms.
func BenchmarkFig4(b *testing.B) {
	b.ReportAllocs()
	sizes := []int64{4, 8, 16, 32, 64, 128}
	var rows []experiments.Fig4Row
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig4(sizes)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.RTLCycles != r.SimCycles {
				b.Fatalf("size %d: RTL %d != sim %d", r.ArraySize, r.RTLCycles, r.SimCycles)
			}
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
			b.Fatalf("pass %d allocated %d bytes, want at most 4 MB", i, got)
		}
		before = after
	}
	b.ReportMetric(float64(rows[len(rows)-1].SimCycles), "cycles@128x128")
}

// BenchmarkFig9a regenerates the scale-up/scale-out search space for TF0
// over the paper's five MAC budgets.
func BenchmarkFig9a(b *testing.B) {
	budgets := []int64{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18}
	var points []experiments.Fig9aPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Fig9a(budgets, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(points)), "configs")
}

// BenchmarkFig9bc regenerates the aspect-ratio sweeps at 2^14 and 2^16 MACs
// and reports the runtime spread.
func BenchmarkFig9bc(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		for _, macs := range []int64{1 << 14, 1 << 16} {
			rows, err := experiments.Fig9bc(macs)
			if err != nil {
				b.Fatal(err)
			}
			lo, hi := rows[0].Cycles, rows[0].Cycles
			for _, r := range rows {
				if r.Cycles < lo {
					lo = r.Cycles
				}
				if r.Cycles > hi {
					hi = r.Cycles
				}
			}
			spread = float64(hi) / float64(lo)
		}
	}
	b.ReportMetric(spread, "spread@2^16")
}

// BenchmarkFig10a regenerates the ResNet50 scale-up vs scale-out ratios.
func BenchmarkFig10a(b *testing.B) {
	budgets := []int64{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(experiments.Fig10aLayers(), budgets, 8)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.Ratio > worst {
				worst = r.Ratio
			}
		}
	}
	b.ReportMetric(worst, "max-slowdown")
}

// BenchmarkFig10b regenerates the language-model ratios; the paper reports
// up to ~50x at 65536 MACs.
func BenchmarkFig10b(b *testing.B) {
	budgets := []int64{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(experiments.Fig10bLayers(), budgets, 8)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.Ratio > worst {
				worst = r.Ratio
			}
		}
	}
	b.ReportMetric(worst, "max-slowdown")
}

// BenchmarkFig11 regenerates the cycle-accurate runtime/bandwidth sweep for
// CB2a_3 and TF0 at 2^14 MACs (the figure's middle budget).
func BenchmarkFig11(b *testing.B) {
	var bwRise float64
	for i := 0; i < b.N; i++ {
		series, err := partition.Sweep(experiments.Fig11Series([]int64{1 << 14}, []int64{1, 4, 16}),
			experiments.Fig11Base(), 8, partition.Options{})
		if err != nil {
			b.Fatal(err)
		}
		tf0 := series[1]
		bwRise = tf0[len(tf0)-1].AvgDRAMBW() / tf0[0].AvgDRAMBW()
	}
	b.ReportMetric(bwRise, "tf0-bw-rise")
}

// BenchmarkFig12 regenerates the energy-vs-partitions curves for CB2a_3
// across three MAC budgets.
func BenchmarkFig12(b *testing.B) {
	var minEnergyParts float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig12(experiments.CB2a3(),
			[]int64{1 << 10, 1 << 14, 1 << 16}, []int64{1, 4, 16, 64})
		if err != nil {
			b.Fatal(err)
		}
		rows := series[2]
		best := rows[0]
		for _, r := range rows[1:] {
			if r.Node.Energy.Total() < best.Node.Energy.Total() {
				best = r
			}
		}
		minEnergyParts = float64(best.Spec.Parts.Count())
	}
	b.ReportMetric(minEnergyParts, "minE-parts@2^16")
}

// BenchmarkFig13 regenerates the scale-up pareto study across MAC budgets.
func BenchmarkFig13(b *testing.B) {
	budgets := []int64{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}
	var worstLoss float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13(budgets)
		if err != nil {
			b.Fatal(err)
		}
		worstLoss = 0
		for _, r := range rows {
			if l := r.Loss[len(r.Loss)-1]; l > worstLoss {
				worstLoss = l
			}
		}
	}
	b.ReportMetric(worstLoss, "worst-loss")
}

// BenchmarkFig14 regenerates the scale-out pareto study.
func BenchmarkFig14(b *testing.B) {
	budgets := []int64{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	var worstLoss float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14(budgets)
		if err != nil {
			b.Fatal(err)
		}
		worstLoss = 0
		for _, r := range rows {
			if l := r.Loss[len(r.Loss)-1]; l > worstLoss {
				worstLoss = l
			}
		}
	}
	b.ReportMetric(worstLoss, "worst-loss")
}

// --- Micro-benchmarks -------------------------------------------------------

func benchLayer() topology.Layer {
	return topology.Layer{Name: "bench", IfmapH: 28, IfmapW: 28, FilterH: 3,
		FilterW: 3, Channels: 64, NumFilters: 128, Stride: 1}
}

// BenchmarkSystolicTrace measures raw trace generation throughput per
// dataflow (no memory system attached).
func BenchmarkSystolicTrace(b *testing.B) {
	for _, df := range config.Dataflows {
		b.Run(df.String(), func(b *testing.B) {
			cfg := config.New().WithArray(32, 32).WithDataflow(df)
			var accesses int64
			for i := 0; i < b.N; i++ {
				res, err := systolic.Run(benchLayer(), cfg, systolic.Sinks{})
				if err != nil {
					b.Fatal(err)
				}
				accesses = res.IfmapReads + res.FilterReads + res.OfmapWrites
			}
			b.ReportMetric(float64(accesses), "accesses/op")
		})
	}
}

// BenchmarkFoldTrace measures pure fold-loop trace generation per dataflow
// into run-native statistics sinks: the O(segments) generation path with no
// memory model attached.
func BenchmarkFoldTrace(b *testing.B) {
	for _, df := range config.Dataflows {
		b.Run(df.String(), func(b *testing.B) {
			b.ReportAllocs()
			cfg := config.New().WithArray(32, 32).WithDataflow(df)
			l := benchLayer()
			st := trace.NewStats()
			for i := 0; i < b.N; i++ {
				if _, err := systolic.Run(l, cfg, systolic.Sinks{
					IfmapRead: st, FilterRead: st, OfmapWrite: st,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTimelineOverhead pins the cost of timeline instrumentation on
// the fold-trace hot path. The disabled variant is the plain run-native
// path — nil fold observer, no samplers — and its alloc count is the
// BenchmarkFoldTrace baseline; attaching a timeline writer must not move
// it. The enabled variant pays the full price: a LayerRecorder with
// samplers teed onto every stream, the fold observer, and the layer
// emitted into a writer over io.Discard.
func BenchmarkTimelineOverhead(b *testing.B) {
	cfg := config.New().WithArray(32, 32)
	l := benchLayer()
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		st := trace.NewStats()
		for i := 0; i < b.N; i++ {
			if _, err := systolic.Run(l, cfg, systolic.Sinks{
				IfmapRead: st, FilterRead: st, OfmapWrite: st,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		st := trace.NewStats()
		w := timeline.New(io.Discard, timeline.Options{})
		pid := w.Process("bench")
		for i := 0; i < b.N; i++ {
			rec := timeline.NewLayerRecorder(l.Name, 0, w.Window())
			res, err := systolic.Run(l, cfg, systolic.Sinks{
				IfmapRead:  trace.Tee(st, rec.Sampler(timeline.TrackSRAMIfmapRead)),
				FilterRead: trace.Tee(st, rec.Sampler(timeline.TrackSRAMFilterRead)),
				OfmapWrite: trace.Tee(st, rec.Sampler(timeline.TrackSRAMOfmapWrite)),
				Folds: systolic.FoldObserverFunc(func(f systolic.FoldInfo) {
					rec.AddFold(f.FR, f.FC, f.Rows, f.Cols, f.Start, f.Cycles)
				}),
			})
			if err != nil {
				b.Fatal(err)
			}
			rec.Finish(res.Cycles, 0)
			rec.Emit(w, pid, timeline.DefaultPlacement(0))
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkAnalyticalEstimate measures the closed-form fast path.
func BenchmarkAnalyticalEstimate(b *testing.B) {
	cfg := config.New().WithArray(32, 32)
	l := benchLayer()
	for i := 0; i < b.N; i++ {
		if _, err := systolic.Estimate(l, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemorySystem streams a full layer through the SRAM/DRAM model.
func BenchmarkMemorySystem(b *testing.B) {
	cfg := config.New().WithArray(32, 32).WithSRAM(64, 64, 32)
	l := benchLayer()
	for i := 0; i < b.N; i++ {
		sys, err := memory.NewSystem(cfg, memory.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sys.SetRegions(cfg.IfmapOffset, l.IfmapWords(),
			cfg.FilterOffset, l.FilterWords(), cfg.OfmapOffset, l.OfmapWords())
		res, err := systolic.Run(l, cfg, systolic.Sinks{
			IfmapRead: sys.Ifmap, FilterRead: sys.Filter, OfmapWrite: sys.Ofmap,
		})
		if err != nil {
			b.Fatal(err)
		}
		sys.Ofmap.Flush(res.Cycles)
	}
}

// BenchmarkMemorySystemRuns isolates the memory model's run consumption:
// synthetic strided run batches stream straight into the SRAM buffers —
// a sliding read window with a 75% hit mix plus a write-back stream — with
// no systolic front end.
func BenchmarkMemorySystemRuns(b *testing.B) {
	b.ReportAllocs()
	cfg := config.New().WithArray(32, 32).WithSRAM(64, 64, 32)
	const region = 1 << 20
	const cycles = 4096
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := memory.NewSystem(cfg, memory.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sys.SetRegions(0, region, region, region, 2*region, region)
		runs := make([]trace.Run, 1)
		for c := int64(0); c < cycles; c++ {
			runs[0] = trace.Run{Base: (c * 16) % (region - 64), Stride: 1, Count: 64}
			sys.Ifmap.ConsumeRuns(c, runs)
			runs[0] = trace.Run{Base: region + (c*4)%(region-16), Stride: 1, Count: 16}
			sys.Filter.ConsumeRuns(c, runs)
			runs[0] = trace.Run{Base: 2*region + (c*8)%(region-8), Stride: 1, Count: 8}
			sys.Ofmap.ConsumeRuns(c, runs)
		}
		sys.Ofmap.Flush(cycles)
	}
}

// BenchmarkDRAMModel replays read streams through the timing substrate: a
// sequential stream of one-word runs, one per cycle, and 32-word runs (one
// array edge per cycle) at stride 1 and at stride 768, a BERT row.
func BenchmarkDRAMModel(b *testing.B) {
	const words = 100_000
	b.Run("request", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := dram.New(dram.DDR3())
			if err != nil {
				b.Fatal(err)
			}
			word := []trace.Run{{Count: 1}}
			for a := int64(0); a < words; a++ {
				word[0].Base = a
				m.ConsumeRuns(a, word)
			}
			if m.Stats().RowHitRate() < 0.99 {
				b.Fatal("unexpected hit rate")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*words), "ns/word")
	})
	for _, stride := range []int64{1, 768} {
		b.Run("runs/stride="+strconv.FormatInt(stride, 10), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := dram.New(dram.DDR3())
				if err != nil {
					b.Fatal(err)
				}
				run := []trace.Run{{Stride: stride, Count: 32}}
				for c := int64(0); c < words/32; c++ {
					run[0].Base = c * 32 * stride
					m.ConsumeRuns(c, run)
				}
				if m.Stats().Requests != words {
					b.Fatalf("requests = %d", m.Stats().Requests)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*words), "ns/word")
		})
	}
}

// BenchmarkRTLReference measures the PE-level golden model at 32x32.
func BenchmarkRTLReference(b *testing.B) {
	a := make([][]float64, 32)
	c := make([][]float64, 32)
	for i := range a {
		a[i] = make([]float64, 32)
		c[i] = make([]float64, 32)
		for j := range a[i] {
			a[i][j] = float64(i + j)
			c[i][j] = float64(i - j)
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := rtlref.RunOS(a, c, 32, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBestScaleOut measures one full design-space search.
func BenchmarkBestScaleOut(b *testing.B) {
	m := dataflow.Map(experiments.TF0(), config.OutputStationary)
	for i := 0; i < b.N; i++ {
		if _, ok := analytical.BestScaleOut(m, 1<<16, 8, 0); !ok {
			b.Fatal("no config")
		}
	}
}

// BenchmarkSimulateTinyNet measures the full stack end to end via the
// public API.
func BenchmarkSimulateTinyNet(b *testing.B) {
	cfg := scalesim.NewConfig().WithArray(16, 16).WithSRAM(8, 8, 4)
	topo, _ := scalesim.BuiltInTopology("TinyNet")
	sim, err := scalesim.NewSimulator(cfg, scalesim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(topo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCached measures the per-layer result cache on a repeated
// design-space sweep. The "off" sub-benchmark is the PR4 baseline: every
// grid point simulates live. The "on" sub-benchmark warms a shared cache
// once outside the timed region, then each iteration replays the whole grid
// from memoized results — the speedup is the cache's value on re-runs of
// the same grid (a re-measured sweep, a CI re-run, a figure regeneration).
// Rows are byte-identical either way (TestGridCacheEquivalence pins that).
func BenchmarkSweepCached(b *testing.B) {
	spec := batch.Spec{
		Base:      config.New(),
		Arrays:    [][2]int{{8, 8}, {16, 16}},
		Dataflows: []config.Dataflow{config.OutputStationary, config.WeightStationary},
		SRAMs:     [][3]int{{2, 2, 1}},
		Workloads: []topology.Graph{topology.TinyNet().Graph()},
		Parallel:  1,
	}
	b.Run("off", func(b *testing.B) {
		runner := benchRunner(b, nil)
		for i := 0; i < b.N; i++ {
			if _, err := runner.RunSweep("sweep", spec, job.Live{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		cache := simcache.New()
		runner := benchRunner(b, cache)
		if _, err := runner.RunSweep("sweep", spec, job.Live{}); err != nil { // warm outside the timer
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := runner.RunSweep("sweep", spec, job.Live{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(cache.Len()), "entries")
	})
}

// BenchmarkEngineParallel measures the layer-execution engine's scaling:
// the same ResNet50 simulation at one worker and at GOMAXPROCS workers.
// Layers are independent, so on a machine with 4+ cores the parallel
// sub-benchmark should run at least 2x faster than workers=1.
func BenchmarkEngineParallel(b *testing.B) {
	cfg := scalesim.NewConfig()
	topo, _ := scalesim.BuiltInTopology("Resnet50")
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=max", runtime.GOMAXPROCS(0)},
	} {
		b.Run(bench.name, func(b *testing.B) {
			sim, err := scalesim.NewSimulator(cfg, scalesim.Options{Workers: bench.workers})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := sim.Simulate(topo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResNet50Cold is the cold path: one sink-free, cache-free,
// single-worker pass of ResNet50 through core. With nothing observing the
// SRAM streams the buffers skip every operand block they can prove resident
// and replay, unscanned, every block they can prove misses on every word;
// with no DRAM consumer they count misses instead of recording them, so
// allocation is down to the residency tables — which the run plan simulates
// for 21 of the 54 layers, sizes once for the run's largest regions and
// recycles from one to the next. A pass that allocates more than 16 MB
// (11.7 MB in the first, which allocates the tables; 19.6 MB when they grew
// layer by layer; 224 MB with a table set per layer) has lost the sizing or
// the recycling and fails, and so does one in which either all-miss proof,
// thrashing or first touch, replays no word: it has stopped firing. Every
// pass must also replay its pinned 14,207,680 first-touch words in 1,203
// sweeps taken whole: 12,046,336 and 851 when a region that fits its buffer
// ruled the all-miss proofs out, so a lost proof fails here too. Since a
// table clears only the marks it set, the CLI run's peak RSS is 20.1–20.6
// MiB at two workers (25.6–26.4 MiB when every clear wiped the whole
// table), with allocation unchanged.
func BenchmarkResNet50Cold(b *testing.B) {
	b.ReportAllocs()
	rec := obsv.NewRecorder()
	sim, err := core.New(config.New(), core.Options{Workers: 1, Obs: rec})
	if err != nil {
		b.Fatal(err)
	}
	topo := topology.ResNet50()
	pinned := map[string]int64{"memory.words_first_touch": 14207680, "memory.sweeps": 1203}
	last := map[string]int64{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		res, err := sim.Simulate(topo)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalCycles != 5274776 {
			b.Fatalf("ResNet50 cycles = %d", res.TotalCycles)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
			b.Fatalf("pass %d allocated %d bytes, want at most 16 MB", i, got)
		}
		before = after
		requirePinned(b, i, rec, pinned, last)
	}
	requireReplayed(b, rec)
}

// requirePinned fails pass i unless each pinned counter moved by exactly
// its pinned value since last, and records the new values in last.
func requirePinned(b *testing.B, i int, rec *obsv.Recorder, pinned, last map[string]int64) {
	for name, want := range pinned {
		v := rec.Metrics().Counter(name).Value()
		if got := v - last[name]; got != want {
			b.Fatalf("pass %d: %s = %d, want %d", i, name, got, want)
		}
		last[name] = v
	}
}

// BenchmarkPartsOneByOne runs ResNet50 on one array twice over, as a plain
// run and as a 1x1 scale-out system (core.Options.Parts), which describe the
// same machine with the same 5,274,776 cycles. A partitioned layer is a core
// node, so both take the run plan's replay, its table reserve and its
// fan-out, and the two sub-benchmarks' ns/op and B/op should stay within a
// few percent of each other. A pass above 16 MB, as BenchmarkResNet50Cold
// bounds it, has lost one of them.
func BenchmarkPartsOneByOne(b *testing.B) {
	for _, c := range []struct {
		name  string
		parts analytical.Partitioning
	}{{"plain", analytical.Partitioning{}}, {"1x1", analytical.Partitioning{Pr: 1, Pc: 1}}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			sim, err := core.New(config.New(), core.Options{Workers: 1, Parts: c.parts})
			if err != nil {
				b.Fatal(err)
			}
			topo := topology.ResNet50()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				res, err := sim.Simulate(topo)
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalCycles != 5274776 {
					b.Fatalf("ResNet50 cycles = %d", res.TotalCycles)
				}
				runtime.ReadMemStats(&after)
				if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
					b.Fatalf("pass %d allocated %d bytes, want at most 16 MB", i, got)
				}
				before = after
			}
		})
	}
}

// requireReplayed fails a cold benchmark whose buffers replayed no block
// proven all-miss by thrashing, or none by first touch, or no output tile
// proven fresh, or took no sweep of a replayed block whole, and reports the
// replayed words and the calls taken in sweeps per pass.
func requireReplayed(b *testing.B, rec *obsv.Recorder) {
	for _, proof := range []string{"thrashed", "first_touch", "fresh_write"} {
		words := rec.Metrics().Counter("memory.words_" + proof).Value()
		if words == 0 {
			b.Fatalf("memory.words_%s = 0: that all-miss proof never fired", proof)
		}
		b.ReportMetric(float64(words)/float64(b.N), proof+"-words/op")
	}
	calls := rec.Metrics().Counter("memory.sweep_calls").Value()
	if rec.Metrics().Counter("memory.sweeps").Value() == 0 || calls == 0 {
		b.Fatal("memory.sweeps = 0: no sweep of a replayed block was taken whole")
	}
	b.ReportMetric(float64(calls)/float64(b.N), "sweep-calls/op")
}

// BenchmarkLanguageModelsCold is the paper-size cold path: one sink-free,
// cache-free, single-worker pass of Table IV's language-model GEMMs at
// their built-in sizes, the before/after for every change to the memory
// system's shortcuts. Every pass must give the pinned total cycles and
// memory counters — its skipped, thrashed, first-touch and fresh-write
// words, and no region fallback — and allocate at most 41 MiB. The first
// pass, which reserves the residency tables, takes 39.8 MiB, a later one,
// which recycles them, 22.4 MiB; a run whose dense layers regrow their
// marks table layer by layer, because its largest region (GNMT2's OFMAP)
// takes the probe table, took 42.2 MiB. Clearing only the marks a table
// set took the CLI run's peak RSS from 44.4 to 36.6 MiB, with allocation
// unchanged.
func BenchmarkLanguageModelsCold(b *testing.B) {
	b.ReportAllocs()
	rec := obsv.NewRecorder()
	sim, err := core.New(config.New(), core.Options{Workers: 1, Obs: rec})
	if err != nil {
		b.Fatal(err)
	}
	topo := topology.LanguageModels()
	pinned := map[string]int64{
		"memory.words_thrashed":    2032214016,
		"memory.words_first_touch": 133297964,
		"memory.words_skipped":     2277581652,
		"memory.words_fresh_write": 102360448,
		"memory.region_fallbacks":  0,
	}
	last := map[string]int64{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		res, err := sim.Simulate(topo)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalCycles != 79830774 {
			b.Fatalf("LanguageModels cycles = %d", res.TotalCycles)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 41<<20 {
			b.Fatalf("pass %d allocated %d bytes, want at most 41 MiB", i, got)
		}
		before = after
		requirePinned(b, i, rec, pinned, last)
	}
	b.ReportMetric(float64(rec.Metrics().Counter("memory.sweep_calls").Value())/float64(b.N), "sweep-calls/op")
}

// BenchmarkBERTBaseDRAMCold is the cold path with the DRAM side attached:
// one cache-free, single-worker pass of the BERTBase operator graph with the
// DDR3 timing model and a 4 words/cycle link on both DRAM streams. Every
// demand miss and write-back reaches the model and the stall analyzer as
// runs — a replayed all-miss block's as the runs it arrived as, its sweeps
// whole. A pass that
// allocates more than 32 MB (11 MB in the first, 3.4 MB/op over ten) or in
// which either all-miss proof replays no word fails, as in
// BenchmarkResNet50Cold, and so does one whose DRAM timing drifts from the
// pinned aggregate (every Stats field summed over layers, MaxLatency and
// LastCompletion as their maximum) or whose DRAM model replays less than
// 80 % of the words it serves by its shift proof, or no stretch of a sweep
// in one step, or takes no word by a row step, or whose word ledger —
// replayed, stepped and walked — does not sum to the words served.
func BenchmarkBERTBaseDRAMCold(b *testing.B) {
	b.ReportAllocs()
	ddr := dram.DDR3()
	rec := obsv.NewRecorder()
	sim, err := core.New(config.New(), core.Options{Workers: 1, DRAM: &ddr, DRAMBandwidth: 4, Obs: rec})
	if err != nil {
		b.Fatal(err)
	}
	g, err := topology.BuiltInGraph("BERTBase")
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		res, err := sim.SimulateGraph(g)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 32<<20 {
			b.Fatalf("pass %d allocated %d bytes, want at most 32 MB", i, got)
		}
		before = after
		var cycles, stall int64
		var agg dram.Stats
		for _, l := range res.Layers {
			if l.Vector == nil {
				cycles += l.Compute.Cycles
			}
			stall += l.StallCycles
			s := l.DRAMStats
			agg.Requests += s.Requests
			agg.RowHits += s.RowHits
			agg.RowMisses += s.RowMisses
			agg.Refreshes += s.Refreshes
			agg.TotalLatency += s.TotalLatency
			agg.MaxLatency = max(agg.MaxLatency, s.MaxLatency)
			agg.LastCompletion = max(agg.LastCompletion, s.LastCompletion)
			agg.BusBusy += s.BusBusy
		}
		if cycles != 1017600 || stall != 7185378 {
			b.Fatalf("BERTBase: compute cycles %d, stall cycles %d", cycles, stall)
		}
		want := dram.Stats{Requests: 33033216, RowHits: 17909946, RowMisses: 15123270, Refreshes: 123,
			TotalLatency: 207353852094890, MaxLatency: 28034886, LastCompletion: 28338822, BusBusy: 33033216}
		if agg != want {
			b.Fatalf("BERTBase DRAM timing %+v, want %+v", agg, want)
		}
	}
	requireReplayed(b, rec)
	replayed := rec.Metrics().Counter("dram.words_replayed").Value()
	served := rec.Metrics().Counter("dram.words_served").Value()
	if share := float64(replayed) / float64(served); share < 0.8 {
		b.Fatalf("DRAM shift proof replayed %d of %d words (%.3f), want at least 80 %%", replayed, served, share)
	}
	b.ReportMetric(float64(replayed)/float64(b.N), "dram-replayed-words/op")
	sweeps := rec.Metrics().Counter("dram.sweeps").Value()
	if sweeps == 0 {
		b.Fatal("dram.sweeps = 0: the DRAM model replayed no stretch of a sweep in one step")
	}
	b.ReportMetric(float64(sweeps)/float64(b.N), "dram-sweeps/op")
	stepped := rec.Metrics().Counter("dram.words_stepped").Value()
	walked := rec.Metrics().Counter("dram.words_walked").Value()
	if replayed+stepped+walked != served {
		b.Fatalf("DRAM word ledger: replayed %d + stepped %d + walked %d != served %d", replayed, stepped, walked, served)
	}
	if stepped == 0 {
		b.Fatal("dram.words_stepped = 0: the DRAM model took no word by a row step")
	}
	b.ReportMetric(float64(stepped)/float64(b.N), "dram-stepped-words/op")
}

// BenchmarkCSVTraceWrite measures trace serialization throughput.
func BenchmarkCSVTraceWrite(b *testing.B) {
	addrs := make([]int64, 32)
	for i := range addrs {
		addrs[i] = int64(i * 7)
	}
	for i := 0; i < b.N; i++ {
		w := trace.NewCSVWriter(discard{})
		for c := int64(0); c < 1000; c++ {
			w.Consume(c, addrs)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
