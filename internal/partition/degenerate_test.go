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
// simulator reports for the same configuration — cycles, work, SRAM and
// DRAM traffic, bandwidths and the cycle ledger, with no skew wait.
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
					mem := lr.Memory
					got := Result{
						Cycles: res.Cycles, MACs: res.MACs,
						SRAMReads: res.SRAMReads, SRAMWrites: res.SRAMWrites,
						DRAMReads: res.DRAMReads, DRAMWrites: res.DRAMWrites,
						AvgDRAMReadBW: res.AvgDRAMReadBW, AvgDRAMWriteBW: res.AvgDRAMWriteBW,
						PeakDRAMBW: res.PeakDRAMBW,
					}
					want := Result{
						Cycles: lr.Compute.Cycles, MACs: lr.Compute.MACs,
						SRAMReads:  mem.IfmapSRAMReads + mem.FilterSRAMReads,
						SRAMWrites: mem.OfmapSRAMWrites,
						DRAMReads:  mem.DRAMReads(), DRAMWrites: mem.OfmapDRAMWrites,
						AvgDRAMReadBW: mem.AvgReadBW, AvgDRAMWriteBW: mem.AvgWriteBW,
						PeakDRAMBW: mem.PeakIfmapBW + mem.PeakFilterBW + mem.PeakOfmapBW,
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s trim=%t sram %v:\n1x1:   %+v\nlayer: %+v", tag, edgeTrim, sram, got, want)
					}
					if len(res.Ledger.Partitions) != 1 {
						t.Fatalf("%s: %d partition ledgers, want 1", tag, len(res.Ledger.Partitions))
					}
					if p := res.Ledger.Partitions[0].Ledger; !reflect.DeepEqual(p, *lr.Ledger) ||
						!reflect.DeepEqual(res.Ledger.Ledger, *lr.Ledger) {
						t.Errorf("%s trim=%t sram %v: ledgers differ:\npartition %+v\nnode      %+v\nlayer     %+v",
							tag, edgeTrim, sram, p, res.Ledger.Ledger, *lr.Ledger)
					}
					if skew := res.Ledger.Category(cycleacct.PartitionSkew); skew != 0 {
						t.Errorf("%s: a lone partition waited %d cycles on itself", tag, skew)
					}
				}
			}
		}
	}
}
