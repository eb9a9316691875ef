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

// TestPaperClaims asserts the scale-out numbers EXPERIMENTS.md quotes
// against the CSVs they are quoted from, so a change that moves a figure
// fails on the claim it breaks.
func TestPaperClaims(t *testing.T) {
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
