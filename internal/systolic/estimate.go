package systolic

import (
	"scalesim/internal/config"
	"scalesim/internal/dataflow"
	"scalesim/internal/mathutil"
	"scalesim/internal/topology"
)

// Estimate computes the same Result as Run without generating traces, in
// O(1) per layer. Because the simulator is stall-free and charges folds in
// closed form, Estimate and Run agree exactly on every field (a property the
// tests assert); Estimate is what large design-space sweeps use.
func Estimate(l topology.Layer, cfg config.Config) (Result, error) {
	return EstimateWindow(l, cfg, Window{})
}

// EstimateWindow is Estimate restricted to one spatial slice of the layer,
// mirroring RunWindow.
func EstimateWindow(l topology.Layer, cfg config.Config, win Window) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := l.Validate(); err != nil {
		return Result{}, err
	}
	m := dataflow.Map(l, cfg.Dataflow)
	win, err := win.resolve(m)
	if err != nil {
		return Result{}, err
	}
	m = dataflow.Mapping{Dataflow: m.Dataflow, Sr: win.SrLen, Sc: win.ScLen, T: m.T}
	return estimateMapping(l, cfg, m), nil
}

func estimateMapping(l topology.Layer, cfg config.Config, m dataflow.Mapping) Result {
	R, C := int64(cfg.ArrayHeight), int64(cfg.ArrayWidth)
	foldsR := mathutil.CeilDiv(m.Sr, R)
	foldsC := mathutil.CeilDiv(m.Sc, C)
	sumRows := foldSum(m.Sr, R, foldsR)
	sumCols := foldSum(m.Sc, C, foldsC)

	var cycles int64
	if cfg.EdgeTrim {
		cycles = 2*sumRows*foldsC + sumCols*foldsR + foldsR*foldsC*(m.T-2)
	} else {
		cycles = foldsR * foldsC * (2*R + C + m.T - 2)
	}

	res := Result{
		Layer:    l,
		Dataflow: cfg.Dataflow,
		Mapping:  m,
		Rows:     cfg.ArrayHeight,
		Cols:     cfg.ArrayWidth,
		FoldsR:   foldsR,
		FoldsC:   foldsC,
		Cycles:   cycles,
		MACs:     m.MACs(),
	}
	mappedPE := sumRows * sumCols
	res.MappingUtilization = float64(mappedPE) / float64(R*C*foldsR*foldsC)
	res.ComputeUtilization = float64(res.MACs) / (float64(R*C) * float64(cycles))
	res.IfmapReads, res.FilterReads, res.OfmapWrites =
		accessCounts(cfg.Dataflow, m.Sr, m.Sc, m.T, R, C)
	return res
}
