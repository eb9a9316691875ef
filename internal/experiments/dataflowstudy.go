package experiments

import (
	"scalesim/internal/config"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

// The paper's analytical model observes that "for a given workload and
// array configuration, choice of dataflow assigns the values for S_R, S_C
// and T respectively, which could be selected to minimize tau" (Sec.
// III-B). This extension experiment quantifies that: how much faster is a
// per-layer dataflow choice than the best single fixed dataflow for a whole
// network?

// DataflowChoice is one layer's best mapping.
type DataflowChoice struct {
	Layer string
	// Best is the fastest dataflow for this layer on the given array.
	Best config.Dataflow
	// Cycles per dataflow, indexed by the dataflow value.
	Cycles [3]int64
}

// DataflowStudyResult aggregates the per-network comparison.
type DataflowStudyResult struct {
	// Choices holds one entry per layer.
	Choices []DataflowChoice
	// FixedCycles is the total runtime per fixed dataflow.
	FixedCycles [3]int64
	// AdaptiveCycles is the total with the per-layer best choice.
	AdaptiveCycles int64
	// BestFixed is the fastest single dataflow.
	BestFixed config.Dataflow
}

// DataflowStudy evaluates every layer of the topology under all three
// dataflows on the configured array (stall-free, Eq. 4 — the same runtime
// the simulator produces) and reports fixed-vs-adaptive totals.
func DataflowStudy(topo topology.Topology, cfg config.Config) (DataflowStudyResult, error) {
	if err := topo.Validate(); err != nil {
		return DataflowStudyResult{}, err
	}
	var res DataflowStudyResult
	for _, l := range topo.Layers {
		choice := DataflowChoice{Layer: l.Name}
		for _, df := range config.Dataflows {
			est, err := systolic.Estimate(l, cfg.WithDataflow(df))
			if err != nil {
				return DataflowStudyResult{}, err
			}
			choice.Cycles[df] = est.Cycles
			res.FixedCycles[df] += est.Cycles
			if est.Cycles < choice.Cycles[choice.Best] {
				choice.Best = df
			}
		}
		res.Choices = append(res.Choices, choice)
		res.AdaptiveCycles += choice.Cycles[choice.Best]
	}
	for _, df := range config.Dataflows {
		if res.FixedCycles[df] < res.FixedCycles[res.BestFixed] {
			res.BestFixed = df
		}
	}
	return res, nil
}
