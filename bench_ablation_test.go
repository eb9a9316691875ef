// Ablation benchmarks: quantify the design choices DESIGN.md calls out —
// fold edge-trimming, double vs. single buffering, dataflow choice, SRAM
// provisioning, and partition-level parallelism.
package scalesim_test

import (
	"testing"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/experiments"
	"scalesim/internal/memory"
	"scalesim/internal/partition"
	"scalesim/internal/pipeline"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

// BenchmarkAblationEdgeTrim compares Eq. 3's full-array fold charge with
// the edge-trimmed variant over all of ResNet50.
func BenchmarkAblationEdgeTrim(b *testing.B) {
	for _, trim := range []bool{false, true} {
		name := "full-fold"
		if trim {
			name = "edge-trim"
		}
		b.Run(name, func(b *testing.B) {
			cfg := config.New().WithArray(32, 32)
			cfg.EdgeTrim = trim
			var total int64
			for i := 0; i < b.N; i++ {
				total = 0
				for _, l := range topology.ResNet50().Layers {
					res, err := systolic.Estimate(l, cfg)
					if err != nil {
						b.Fatal(err)
					}
					total += res.Cycles
				}
			}
			b.ReportMetric(float64(total), "cycles")
		})
	}
}

// BenchmarkAblationBuffering compares double-buffered SRAM (half the
// capacity resident, the paper's design) against single buffering — the
// residency a double-buffered SRAM of twice the size keeps. The workload's
// reuse window (one fold-row of IFMAP, ~3K words) is sized between the
// double-buffered residency (2K words) and the single-buffered one (4K), so
// the ablation exposes the capacity cost of double buffering.
func BenchmarkAblationBuffering(b *testing.B) {
	l := topology.FromGEMM("ablation", 4096, 96, 64)
	for _, single := range []bool{false, true} {
		name, cfg := "double", config.New().WithArray(32, 32).WithSRAM(4, 4, 2)
		if single {
			name, cfg = "single", cfg.WithSRAM(8, 8, 4)
		}
		b.Run(name, func(b *testing.B) {
			var dram int64
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
				dram = sys.Report(res.Cycles).DRAMAccesses()
			}
			b.ReportMetric(float64(dram), "dram-words")
		})
	}
}

// BenchmarkAblationDataflow compares OS/WS/IS end to end on the same layer
// and array: cycles are identical by Eq. 3, but interface traffic differs.
func BenchmarkAblationDataflow(b *testing.B) {
	l, _ := topology.ResNet50().Layer("CB2a_3")
	for _, df := range config.Dataflows {
		b.Run(df.String(), func(b *testing.B) {
			cfg := config.New().WithArray(32, 32).WithSRAM(64, 64, 32).WithDataflow(df)
			var dram int64
			var cycles int64
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
				dram = sys.Report(res.Cycles).DRAMAccesses()
				cycles = res.Cycles
			}
			b.ReportMetric(float64(dram), "dram-words")
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationSRAMSize shows bandwidth demand versus SRAM provisioning
// for a fixed layer and array.
func BenchmarkAblationSRAMSize(b *testing.B) {
	l := experiments.CB2a3()
	for _, kb := range []int{16, 64, 256, 1024} {
		b.Run(map[int]string{16: "16KiB", 64: "64KiB", 256: "256KiB", 1024: "1MiB"}[kb], func(b *testing.B) {
			cfg := config.New().WithArray(64, 64).WithSRAM(kb, kb, kb/2)
			var bw float64
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
				bw = sys.Report(res.Cycles).AvgTotalBW()
			}
			b.ReportMetric(bw, "avgBW-B/cyc")
		})
	}
}

// BenchmarkAblationParallel measures the partition-level parallel speedup
// of the scale-out runner itself (the simulator's own performance, not the
// modeled hardware's).
func BenchmarkAblationParallel(b *testing.B) {
	l := experiments.TF0()
	base := config.New().WithSRAM(512, 512, 256)
	spec := partition.Spec{
		Parts: analytical.Partitioning{Pr: 2, Pc: 8},
		Shape: analytical.Shape{R: 32, C: 32},
	}
	for _, workers := range []int{1, 4, 0} {
		name := map[int]string{1: "serial", 4: "workers4", 0: "gomaxprocs"}[workers]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := partition.Run(l, base, spec, partition.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtensionDataflowStudy measures the per-layer dataflow selection
// study over ResNet50 and reports the adaptive-over-fixed speedup.
func BenchmarkExtensionDataflowStudy(b *testing.B) {
	topo := topology.ResNet50()
	cfg := config.New().WithArray(32, 32)
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.DataflowStudy(topo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(res.FixedCycles[res.BestFixed]) / float64(res.AdaptiveCycles)
	}
	b.ReportMetric(speedup, "adaptive-speedup")
}

// BenchmarkExtensionSweetSpot measures the bandwidth-constrained selection.
func BenchmarkExtensionSweetSpot(b *testing.B) {
	l := experiments.CB2a3()
	base := config.New().WithSRAM(512, 512, 256)
	var cycles int64
	for i := 0; i < b.N; i++ {
		sweep, err := partition.Sweep([]partition.Series{{Name: l.Name, Layer: l, MACs: 1 << 14}},
			[]int64{1, 4, 16, 64}, base, 8, partition.Options{})
		if err != nil {
			b.Fatal(err)
		}
		pick, err := partition.SweetSpot(sweep[0], 64)
		if err != nil {
			b.Fatal(err)
		}
		cycles = pick.Cycles
	}
	b.ReportMetric(float64(cycles), "picked-cycles")
}

// BenchmarkExtensionBandwidthCurve sweeps the available-bandwidth axis and
// reports the slowdown at 1 word/cycle.
func BenchmarkExtensionBandwidthCurve(b *testing.B) {
	l := experiments.CB2a3()
	cfg := config.New().WithArray(32, 32).WithSRAM(64, 64, 32)
	var slowdown float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.BandwidthCurve(l, cfg, []float64{1, 4, 16, 64}, nil)
		if err != nil {
			b.Fatal(err)
		}
		slowdown = points[0].Slowdown
	}
	b.ReportMetric(slowdown, "slowdown@1w/c")
}

// BenchmarkExtensionCellParallel measures the inception cell-parallel
// scheduling study and reports the speedup at 2^18 MACs.
func BenchmarkExtensionCellParallel(b *testing.B) {
	net, err := pipeline.FromTopology(topology.GoogLeNet(), topology.GoogLeNetCellBranches())
	if err != nil {
		b.Fatal(err)
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := pipeline.Evaluate(net, 1<<18, config.OutputStationary, 8)
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.Speedup()
	}
	b.ReportMetric(speedup, "speedup@2^18")
}
