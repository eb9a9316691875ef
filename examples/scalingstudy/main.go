// Scaling study: the paper's central question — scale UP (one big array)
// or scale OUT (many small arrays)? — answered for the Transformer layer
// TF0 at a fixed MAC budget, first with the analytical model (Eqs. 4-6),
// then cycle-accurately with DRAM bandwidth and energy (Figs. 10-12).
package main

import (
	"fmt"
	"log"

	"scalesim"
)

func main() {
	topo, _ := scalesim.BuiltInTopology("LanguageModels")
	tf0, _ := topo.Layer("TF0")
	m := scalesim.Map(tf0, scalesim.OutputStationary)

	const macs = 1 << 14 // 16384 MACs to spend
	fmt.Printf("TF0 (%dx%dx%d GEMM), budget %d MACs\n\n", m.Sr, m.T, m.Sc, macs)

	// 1. Analytical comparison (stall-free, Eq. 4 vs Eq. 6).
	up, _ := scalesim.BestScaleUp(m, macs, 8)
	out, _ := scalesim.BestScaleOut(m, macs, 8, 0)
	fmt.Printf("best scale-up:  one %s array            -> %9d cycles (util %4.1f%%)\n",
		up.Config.Shape, up.Cycles, 100*up.MappingUtilization)
	fmt.Printf("best scale-out: %s grid of %s arrays -> %9d cycles (util %4.1f%%)\n",
		out.Config.Parts, out.Config.Shape, out.Cycles, 100*out.MappingUtilization)
	fmt.Printf("scale-out speedup: %.2fx (stall-free)\n\n", float64(up.Cycles)/float64(out.Cycles))

	// 2. Cycle-accurate sweep over partition counts with the paper's
	// Fig. 11 memory budget: runtime falls, bandwidth demand rises, and
	// energy has a sweet spot in between. SweetSpot runs the sweep once
	// and returns it beside its pick (also when nothing fits the budget):
	// the fastest configuration whose average bandwidth demand stays under
	// the platform budget. TF0's huge output matrix makes its floor high,
	// so we allow an HBM-ish 64 bytes/cycle.
	base := scalesim.NewConfig().
		WithSRAM(512, 512, 256).
		WithDataflow(scalesim.OutputStationary)
	const bwBudget = 64.0
	pick, results, err := scalesim.SweetSpot(tf0, base, macs, []int64{1, 4, 16, 64}, 8,
		bwBudget, scalesim.ScaleOutOptions{})
	if results == nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %-14s %10s %12s %12s %14s\n",
		"partitions", "array", "cycles", "avg BW", "peak BW", "energy")
	for _, r := range results {
		fmt.Printf("%-10d %-14s %10d %9.2f B/c %9.2f B/c %14.3e\n",
			r.Spec.Parts.Count(), r.Spec.Shape.String(), r.Cycles,
			r.AvgDRAMBW(), r.PeakDRAMBW(), r.Node.Energy.Total())
	}

	// 3. The sweet spot.
	if err != nil {
		fmt.Printf("\n%v\n", err)
		return
	}
	fmt.Printf("\nsweet spot under %.0f B/cycle DRAM budget: %s -> %d cycles\n",
		bwBudget, pick.Spec, pick.Cycles)
}
