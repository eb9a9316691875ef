package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the nearest-rank p-quantile (0 < p <= 1) of the samples;
// zero when there are none. It sorts a copy.
func quantile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(idx, 0), len(s)-1)]
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

func sum(samples []float64) float64 {
	var t float64
	for _, v := range samples {
		t += v
	}
	return t
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// tailPercentiles are the tails the benchmark is willing to print.
var tailPercentiles = []float64{0.90, 0.95, 0.99, 0.999}

// topPercentile returns the highest tail percentile that still has at
// least ten samples beyond it, or ok=false when even p90 does not (fewer
// than 100 samples): a percentile resting on fewer than ten samples does
// not repeat between runs.
func topPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if float64(n)*(1-c) >= 10-1e-9 {
			p, ok = c, true
		}
	}
	return p, ok
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
