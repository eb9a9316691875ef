package energy

import "testing"

func TestEyerissDefaults(t *testing.T) {
	m := Eyeriss()
	if m.MACCycle != 1 || m.SRAMAccess != 6 || m.DRAMAccess != 200 {
		t.Errorf("Eyeriss = %+v", m)
	}
}

func TestCompute(t *testing.T) {
	m := Eyeriss()
	b := m.Compute(1024, 1000, 5000, 100)
	if b.Array != 1024*1000 {
		t.Errorf("Array = %v", b.Array)
	}
	if b.SRAM != 30000 {
		t.Errorf("SRAM = %v", b.SRAM)
	}
	if b.DRAM != 20000 {
		t.Errorf("DRAM = %v", b.DRAM)
	}
	if b.Total() != b.Array+b.SRAM+b.DRAM {
		t.Error("Total mismatch")
	}
}

func TestAdd(t *testing.T) {
	a := Breakdown{1, 2, 3}
	b := Breakdown{10, 20, 30}
	got := a.Add(b)
	if got != (Breakdown{11, 22, 33}) {
		t.Errorf("Add = %+v", got)
	}
	if got.Total() != 66 {
		t.Errorf("Total = %v", got.Total())
	}
}

// TestScaleOutTradeoffDirection encodes the Sec. IV-A energy narrative: a
// partitioned system that halves runtime at the cost of extra memory
// traffic saves array energy proportional to the MAC count, so with enough
// MACs partitioning wins, and with few MACs the monolithic design wins.
func TestScaleOutTradeoffDirection(t *testing.T) {
	m := Eyeriss()
	const (
		monoCycles, partCycles = 1_000_000, 500_000
		monoDRAM, partDRAM     = 1_000_000, 3_000_000
		monoSRAM, partSRAM     = 10_000_000, 12_000_000
	)
	small := int64(256)
	large := int64(1 << 18)

	monoSmall := m.Compute(small, monoCycles, monoSRAM, monoDRAM).Total()
	partSmall := m.Compute(small, partCycles, partSRAM, partDRAM).Total()
	if partSmall < monoSmall {
		t.Errorf("small array: partitioning should not pay off (%v < %v)", partSmall, monoSmall)
	}

	monoLarge := m.Compute(large, monoCycles, monoSRAM, monoDRAM).Total()
	partLarge := m.Compute(large, partCycles, partSRAM, partDRAM).Total()
	if partLarge >= monoLarge {
		t.Errorf("large array: partitioning should pay off (%v >= %v)", partLarge, monoLarge)
	}
}
