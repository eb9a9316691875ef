package scalesim_test

import (
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/pipeline"
	"scalesim/internal/topology"
)

// readResult reads a checked-in figure CSV from results/ as records keyed
// by header name.
func readResult(t *testing.T, name string) []map[string]string {
	t.Helper()
	f, err := os.Open("results/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out []map[string]string
	for _, rec := range recs[1:] {
		row := map[string]string{}
		for i, h := range recs[0] {
			row[h] = rec[i]
		}
		out = append(out, row)
	}
	return out
}

func num(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestPaperClaims asserts the numbers EXPERIMENTS.md quotes against the
// CSVs they are quoted from, so a change that moves a figure fails on the
// claim it breaks.
func TestPaperClaims(t *testing.T) {
	// Fig. 4: an N x N array finishes an N x N output-stationary GEMM in
	// 4N - 2 cycles, in the PE-level reference and in the simulator alike.
	for _, r := range readResult(t, "fig4.csv") {
		n := num(t, r["ArraySize"])
		if rtl, sim := num(t, r["RTLCycles"]), num(t, r["SimCycles"]); rtl != 4*n-2 || sim != 4*n-2 {
			t.Errorf("Fig. 4 at N = %v: RTL %v and simulated %v cycles, want 4N - 2 = %v", n, rtl, sim, 4*n-2)
		}
	}

	// Fig. 9b/c: across TF0's monolithic aspect ratios the runtime spreads
	// 565x at 2^14 MACs and 4941x at 2^16, and no shape is optimal at both
	// budgets: two shapes tie for the minimum at each.
	shapes := map[string][]map[string]string{}
	for _, r := range readResult(t, "fig9bc.csv") {
		shapes[r["MACs"]] = append(shapes[r["MACs"]], r)
	}
	spread := map[string]string{}
	for macs, rows := range shapes {
		lo, hi := math.Inf(1), 0.0
		for _, r := range rows {
			lo, hi = min(lo, num(t, r["Cycles"])), max(hi, num(t, r["Cycles"]))
		}
		var optima []string
		for _, r := range rows {
			if num(t, r["Cycles"]) == lo {
				optima = append(optima, r["ArrayShape"])
			}
		}
		spread[macs] = fmt.Sprintf("%.0fx, optima %v", hi/lo, optima)
	}
	if want := map[string]string{"16384": "565x, optima [64x256 128x128]",
		"65536": "4941x, optima [128x512 256x256]"}; !reflect.DeepEqual(spread, want) {
		t.Errorf("Fig. 9b/c runtime spread by budget: %v, want %v", spread, want)
	}

	// Fig. 10a: the best monolithic configuration of CB2a_1 is 24.70x
	// slower than the best scale-out one at 65536 MACs.
	var cb2a1 string
	for _, r := range readResult(t, "fig10a.csv") {
		if r["Layer"] == "CB2a_1" && r["MACs"] == "65536" {
			cb2a1 = fmt.Sprintf("%.2f", num(t, r["Ratio"]))
		}
	}
	if cb2a1 != "24.70" {
		t.Errorf("Fig. 10a CB2a_1 at 65536 MACs: %qx, want 24.70x", cb2a1)
	}

	// Fig. 10b: among the language models the largest scale-up penalty at
	// 65536 MACs is NCF0's, 28.4x.
	worst := map[string]string{}
	var top float64
	for _, r := range readResult(t, "fig10b.csv") {
		if v := num(t, r["Ratio"]); r["MACs"] == "65536" && v > top {
			top, worst = v, map[string]string{r["Layer"]: fmt.Sprintf("%.1f", v)}
		}
	}
	if want := map[string]string{"NCF0": "28.4"}; !reflect.DeepEqual(worst, want) {
		t.Errorf("Fig. 10b largest ratio at 65536 MACs: %v, want %v", worst, want)
	}

	// Fig. 11: average DRAM demand at 2^18 MACs and 256 partitions,
	// quoted as 7.1 KB/cycle (CB2a_3) and 9.2 KB/cycle (TF0).
	bw := map[string]string{}
	for _, r := range readResult(t, "fig11_2e18.csv") {
		if r["MACs"] == "262144" && r["Partitions"] == "256" {
			bw[r["Layer"]] = fmt.Sprintf("%.1f", num(t, r["AvgBW"]))
		}
	}
	if want := map[string]string{"CB2a_3": "7129.1", "TF0": "9204.3"}; !reflect.DeepEqual(bw, want) {
		t.Errorf("Fig. 11 average BW at 2^18 MACs, P = 256: %v B/cycle, want %v", bw, want)
	}

	// Fig. 12: the minimum-energy partition count of CB2a_3 moves right
	// with the budget: 1, 1, 4, 16, 64 for 2^10 through 2^18 MACs.
	type best struct {
		parts  string
		energy float64
	}
	minimum := map[string]best{}
	for _, r := range readResult(t, "fig12_cb2a3.csv") {
		e := num(t, r["EnergyTotal"])
		if b, ok := minimum[r["MACs"]]; !ok || e < b.energy {
			minimum[r["MACs"]] = best{r["Partitions"], e}
		}
	}
	got := map[string]string{}
	for macs, b := range minimum {
		got[macs] = b.parts
	}
	want := map[string]string{"1024": "1", "4096": "1", "16384": "4", "65536": "16", "262144": "64"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Fig. 12 minimum-energy partitions by budget: %v, want %v", got, want)
	}

	// Fig. 13: at 256 MACs the 2nd and 3rd scale-up candidates are 0.66 %
	// and 6.0 % off the best, and the worst local optimum loses 10.03x at
	// 2^12, 7.74x at 2^14 and 4.93x at 2^16. Fig. 14: the worst scale-out
	// candidate loses 3.84x at 2^16.
	up, out := losses(t, "fig13.csv"), losses(t, "fig14.csv")
	pareto := map[string]string{
		"fig13 256 2nd":     fmt.Sprintf("%.2f%%", 100*(up["256"][1]-1)),
		"fig13 256 3rd":     fmt.Sprintf("%.1f%%", 100*(up["256"][2]-1)),
		"fig13 4096 worst":  fmt.Sprintf("%.2fx", slices.Max(up["4096"])),
		"fig13 16384 worst": fmt.Sprintf("%.2fx", slices.Max(up["16384"])),
		"fig13 65536 worst": fmt.Sprintf("%.2fx", slices.Max(up["65536"])),
		"fig14 65536 worst": fmt.Sprintf("%.2fx", slices.Max(out["65536"])),
	}
	if want := map[string]string{"fig13 256 2nd": "0.66%", "fig13 256 3rd": "6.0%",
		"fig13 4096 worst": "10.03x", "fig13 16384 worst": "7.74x", "fig13 65536 worst": "4.93x",
		"fig14 65536 worst": "3.84x"}; !reflect.DeepEqual(pareto, want) {
		t.Errorf("Figs. 13-14 candidate losses: %v, want %v", pareto, want)
	}

	// Cell parallelism: GoogLeNet's inception branches run concurrently on
	// partition groups (OS, 8-wide minimum) instead of one after another,
	// as scalestudy cells computes it; EXPERIMENTS.md quotes the speedups
	// as it prints them.
	net, err := pipeline.FromTopology(topology.GoogLeNet(), topology.GoogLeNetCellBranches())
	if err != nil {
		t.Fatal(err)
	}
	var speedups []string
	for _, macs := range []int64{1 << 12, 1 << 14, 1 << 16, 1 << 18} {
		res, err := pipeline.Evaluate(net, macs, config.OutputStationary, 8)
		if err != nil {
			t.Fatal(err)
		}
		speedups = append(speedups, fmt.Sprintf("%.3f×", res.Speedup()))
	}
	quote := "**" + strings.Join(speedups, " / ") + "**"
	if want := "**1.025× / 1.140× / 1.362× / 2.000×**"; quote != want {
		t.Errorf("cell-parallelism speedups at 2^12..2^18 MACs: %s, want %s", quote, want)
	}
	if doc, err := os.ReadFile("EXPERIMENTS.md"); err != nil || !strings.Contains(string(doc), quote) {
		t.Errorf("EXPERIMENTS.md does not quote the cell-parallelism speedups %s (%v)", quote, err)
	}
}

// losses reads a pareto figure's candidate losses, best first, by MAC
// budget.
func losses(t *testing.T, name string) map[string][]float64 {
	t.Helper()
	out := map[string][]float64{}
	for _, r := range readResult(t, name) {
		out[r["MACs"]] = append(out[r["MACs"]], num(t, r["Loss"]))
	}
	return out
}
