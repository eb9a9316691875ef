package scalesim_test

import (
	"encoding/csv"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"
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
}
