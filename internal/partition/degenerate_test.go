package partition

import (
	"reflect"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/obsv/cycleacct"
	"scalesim/internal/topology"
)

// TestOneByOneIsTheWholeLayer: Eqs. 5-6 make P=1 the degenerate case of
// scale-out, so a 1x1 grid must report exactly what the single-array
// simulator reports for the same configuration — compute, memory and
// energy results and the cycle ledger, with no skew wait.
func TestOneByOneIsTheWholeLayer(t *testing.T) {
	layers := []topology.Layer{testLayer(), topology.FromGEMM("gemm", 70, 90, 50)}
	for _, l := range layers {
		for _, df := range config.Dataflows {
			for _, edgeTrim := range []bool{false, true} {
				for _, sram := range [][3]int{{64, 64, 32}, {1, 1, 1}} {
					base := config.New().WithDataflow(df).WithSRAM(sram[0], sram[1], sram[2])
					base.EdgeTrim = edgeTrim
					res, err := Run(l, base, spec(1, 1, 8, 12), Options{})
					if err != nil {
						t.Fatal(err)
					}
					sim, err := core.New(base.WithArray(8, 12), core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					lr, err := sim.SimulateLayer(l)
					if err != nil {
						t.Fatal(err)
					}
					tag := l.Name + " " + df.String()
					if !reflect.DeepEqual(res.Node.Compute, lr.Compute) || !reflect.DeepEqual(res.Node.Memory, lr.Memory) ||
						res.Node.Energy != lr.Energy {
						t.Errorf("%s trim=%t sram %v:\n1x1:   %+v\nlayer: %+v", tag, edgeTrim, sram, res.Node, lr)
					}
					if len(res.Node.Partitions) != 1 {
						t.Fatalf("%s: %d partition ledgers, want 1", tag, len(res.Node.Partitions))
					}
					if p := res.Node.Partitions[0].Ledger; !reflect.DeepEqual(p, *lr.Ledger) ||
						!reflect.DeepEqual(*res.Node.Ledger, *lr.Ledger) {
						t.Errorf("%s trim=%t sram %v: ledgers differ:\npartition %+v\nnode      %+v\nlayer     %+v",
							tag, edgeTrim, sram, p, *res.Node.Ledger, *lr.Ledger)
					}
					if skew := res.Node.Ledger.Category(cycleacct.PartitionSkew); skew != 0 {
						t.Errorf("%s: a lone partition waited %d cycles on itself", tag, skew)
					}
				}
			}
		}
	}
}
