// Package experiments contains one harness per table and figure of the
// paper's evaluation. Each harness returns structured rows; the
// cmd/scalestudy tool renders them as CSV and the top-level benchmark
// harness prints them alongside timing. EXPERIMENTS.md records how each
// regenerated result compares with the published one.
package experiments

import (
	"fmt"
	"math/rand"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/dataflow"
	"scalesim/internal/rtlref"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

// TF0 returns the Transformer layer the scaling study revolves around.
func TF0() topology.Layer {
	topo := topology.LanguageModels()
	l, _ := topo.Layer("TF0")
	return l
}

// CB2a3 returns the ResNet50 layer Fig. 11 uses (the text's "CBa_3").
func CB2a3() topology.Layer {
	topo := topology.ResNet50()
	l, _ := topo.Layer("CB2a_3")
	return l
}

// --- Fig. 4: validation against the RTL reference -----------------------

// Fig4Row compares the RTL reference and the trace-based simulator for one
// square matrix multiplication at full utilization.
type Fig4Row struct {
	// ArraySize is the (square) array dimension and matrix size.
	ArraySize int
	// RTLCycles is the PE-level reference cycle count.
	RTLCycles int64
	// SimCycles is SCALE-Sim's cycle count.
	SimCycles int64
}

// Fig4 runs size x size matrix multiplications on size x size arrays under
// the OS dataflow, on both the RTL reference and the simulator.
func Fig4(sizes []int64) ([]Fig4Row, error) {
	rng := rand.New(rand.NewSource(4))
	rows := make([]Fig4Row, 0, len(sizes))
	for _, n := range sizes {
		size := int(n)
		if size < 1 {
			return nil, fmt.Errorf("experiments: invalid array size %d", size)
		}
		a := randMat(rng, size, size)
		b := randMat(rng, size, size)
		rtl, err := rtlref.RunOS(a, b, size, size)
		if err != nil {
			return nil, err
		}
		// Cross-check the numerics while we are here.
		want := rtlref.MatMul(a, b)
		for i := range want {
			for j := range want[i] {
				if rtl.Product[i][j] != want[i][j] {
					return nil, fmt.Errorf("experiments: RTL product wrong at (%d,%d)", i, j)
				}
			}
		}
		cfg := config.New().WithArray(size, size).WithDataflow(config.OutputStationary)
		sim, err := systolic.Estimate(topology.FromGEMM("fig4", size, size, size), cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig4Row{ArraySize: size, RTLCycles: rtl.Cycles, SimCycles: sim.Cycles})
	}
	return rows, nil
}

func randMat(rng *rand.Rand, r, c int) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
		for j := range m[i] {
			m[i][j] = float64(rng.Intn(17) - 8)
		}
	}
	return m
}

// --- Fig. 9(a): the scale-up/scale-out search space ----------------------

// Fig9aPoint is one configuration of the search space heatmap.
type Fig9aPoint struct {
	// MACs is the compute budget this point belongs to.
	MACs int64
	// Config is the partition grid and per-array shape.
	Config analytical.SystemConfig
	// Cycles is the stall-free analytical runtime of TF0.
	Cycles int64
	// Normalized is Cycles divided by the worst runtime within the same
	// MAC budget (the figure's color scale).
	Normalized float64
}

// Fig9a enumerates every configuration for each MAC budget and evaluates
// TF0 under the OS dataflow, normalizing within each budget.
func Fig9a(macBudgets []int64, minDim int64) ([]Fig9aPoint, error) {
	m := dataflow.Map(TF0(), config.OutputStationary)
	var out []Fig9aPoint
	for _, macs := range macBudgets {
		configs := analytical.EnumerateConfigs(macs, minDim, 0)
		if len(configs) == 0 {
			return nil, fmt.Errorf("experiments: no configurations for %d MACs (minDim %d)", macs, minDim)
		}
		start := len(out)
		var worst int64
		for _, c := range configs {
			e := analytical.Evaluate(m, c)
			out = append(out, Fig9aPoint{MACs: macs, Config: c, Cycles: e.Cycles})
			if e.Cycles > worst {
				worst = e.Cycles
			}
		}
		for i := start; i < len(out); i++ {
			out[i].Normalized = float64(out[i].Cycles) / float64(worst)
		}
	}
	return out, nil
}

// --- Fig. 9(b,c): aspect ratio sweep of monolithic arrays ----------------

// Fig9bcRow is one monolithic aspect ratio's runtime and utilization.
type Fig9bcRow struct {
	Shape analytical.Shape
	// Cycles is TF0's stall-free runtime.
	Cycles int64
	// MappingUtilization is the array utilization of the figure.
	MappingUtilization float64
}

// Fig9bc sweeps every R x C factorization of the MAC budget (monolithic,
// no minimum dimension, as the figure plots the full aspect ratio range).
func Fig9bc(macs int64) ([]Fig9bcRow, error) {
	shapes := analytical.Shapes(macs, 1)
	if len(shapes) == 0 {
		return nil, fmt.Errorf("experiments: no shapes for %d MACs", macs)
	}
	m := dataflow.Map(TF0(), config.OutputStationary)
	rows := make([]Fig9bcRow, 0, len(shapes))
	for _, s := range shapes {
		e := analytical.Evaluate(m, analytical.SystemConfig{
			Parts: analytical.Partitioning{Pr: 1, Pc: 1}, Shape: s,
		})
		rows = append(rows, Fig9bcRow{Shape: s, Cycles: e.Cycles, MappingUtilization: e.MappingUtilization})
	}
	return rows, nil
}

// --- Fig. 10: best scale-up vs best scale-out ----------------------------

// Fig10Row is one layer's slowdown of the best monolithic configuration
// relative to the best partitioned one, at one MAC budget.
type Fig10Row struct {
	Layer string
	MACs  int64
	// ScaleUpCycles and ScaleOutCycles are the best stall-free runtimes.
	ScaleUpCycles, ScaleOutCycles int64
	// Ratio is ScaleUpCycles / ScaleOutCycles (>= 1; the figure's y-axis).
	Ratio float64
}

// Fig10 computes the ratio for each layer and MAC budget. minDim applies to
// per-array dimensions (the paper uses 8).
func Fig10(layers []topology.Layer, macBudgets []int64, minDim int64) ([]Fig10Row, error) {
	var out []Fig10Row
	for _, l := range layers {
		m := dataflow.Map(l, config.OutputStationary)
		for _, macs := range macBudgets {
			up, okUp := analytical.BestScaleUp(m, macs, minDim)
			down, okOut := analytical.BestScaleOut(m, macs, minDim, 0)
			if !okUp || !okOut {
				return nil, fmt.Errorf("experiments: no feasible configs for %s at %d MACs", l.Name, macs)
			}
			out = append(out, Fig10Row{
				Layer:          l.Name,
				MACs:           macs,
				ScaleUpCycles:  up.Cycles,
				ScaleOutCycles: down.Cycles,
				Ratio:          float64(up.Cycles) / float64(down.Cycles),
			})
		}
	}
	return out, nil
}

// Fig10aLayers returns the ResNet50 layers Fig. 10(a) plots.
func Fig10aLayers() []topology.Layer { return topology.ResNet50EdgeLayers() }

// Fig10bLayers returns the language-model layers Fig. 10(b) plots.
func Fig10bLayers() []topology.Layer { return topology.LanguageModels().Layers }
