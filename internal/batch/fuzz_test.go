package batch

import (
	"strings"
	"testing"

	"scalesim/internal/config"
)

// FuzzParseSpec checks the sweep-spec reader never panics on hostile bytes
// and that an accepted spec names at least one workload, so its grid has a
// point per (workload, array, dataflow, SRAM) combination.
func FuzzParseSpec(f *testing.F) {
	f.Add("[sweep]\narrays = 8x8, 16X16\ndataflows = os, ws\nsrams = 2/2/1\nnets = TinyNet\nparallel = 2\n")
	f.Add("[sweep]\nnets = TinyNet, BERTTiny\n")
	f.Add("[sweep]\narrays = 8x8x9\nnets = TinyNet\n")
	f.Add("[sweep]\nsrams = 2/2\nnets = TinyNet\n")
	f.Add("[sweep]\nparallel = 2x\nnets = TinyNet\n")
	f.Add("[sweep]\narrays = 8x8\n")
	f.Add("nets = TinyNet\n")
	f.Add("; comment\n[sweep]\nnets=TinyNet\n[other]\nnets = AlexNet\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := ParseSpec(strings.NewReader(input), config.New())
		if err != nil {
			return
		}
		nets := len(spec.Topologies) + len(spec.Graphs)
		if nets == 0 {
			t.Fatalf("accepted a spec with no workload: %q", input)
		}
		want := nets * max(len(spec.Arrays), 1) * max(len(spec.Dataflows), 1) * max(len(spec.SRAMs), 1)
		if got := len(spec.Points()); got != want {
			t.Fatalf("%d grid points, want %d", got, want)
		}
	})
}
