package partition

import "fmt"

// SweetSpot is the paper's bottom-line decision procedure (Sec. IV-A,
// Fig. 11): among one series' results of a Sweep — the partitionings of a
// fixed MAC budget — pick the fastest configuration whose average DRAM
// bandwidth demand stays within the platform's budget. The paper
// identifies the sweet spot as the intersection of the falling runtime
// curve and the rising bandwidth curve; bounding average demand by the
// available bandwidth is the operational form of that intersection.
//
// It runs nothing. It errors on a budget that is not positive (NaN
// included) and when no point fits the budget — in which case the caller
// should scale up instead or provision more SRAM.
func SweetSpot(sweep []Result, bwBudgetBytesPerCycle float64) (Result, error) {
	if !(bwBudgetBytesPerCycle > 0) {
		return Result{}, fmt.Errorf("partition: bandwidth budget %v must be positive", bwBudgetBytesPerCycle)
	}
	if len(sweep) == 0 {
		return Result{}, fmt.Errorf("partition: no sweep points to pick from")
	}
	var best *Result
	for i := range sweep {
		r := &sweep[i]
		if r.AvgDRAMBW() > bwBudgetBytesPerCycle {
			continue
		}
		if best == nil || r.Cycles < best.Cycles {
			best = r
		}
	}
	if best == nil {
		return Result{}, fmt.Errorf(
			"partition: no configuration of %d MACs meets %.1f bytes/cycle for %s (min demand %.1f)",
			sweep[0].Spec.MACs(), bwBudgetBytesPerCycle, sweep[0].Layer.Name, minSweepBW(sweep))
	}
	return *best, nil
}

func minSweepBW(sweep []Result) float64 {
	min := sweep[0].AvgDRAMBW()
	for _, r := range sweep[1:] {
		if bw := r.AvgDRAMBW(); bw < min {
			min = bw
		}
	}
	return min
}
