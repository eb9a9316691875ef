// Package energy models the accelerator's energy consumption the way
// Sec. IV-A of the paper frames it: "the energy consumption directly
// depends on the cycles MAC units have been active and the number of
// accesses to SRAM and DRAM". Array energy is charged for every provisioned
// MAC for every runtime cycle (powering a bulky array for a long time is
// what scale-out amortizes), while memory energy is charged per access.
//
// Absolute joules require a technology point the paper does not fix;
// following the well-known Eyeriss relative costs, the model every simulator
// path charges (Eyeriss) uses normalized units of one MAC-cycle, with an
// SRAM access costing 6 and a DRAM access 200. A Model of other constants
// can still price a result's cycle and access counts through Compute.
package energy

// Model holds per-event energy costs in arbitrary (but consistent) units.
type Model struct {
	// MACCycle is the cost of keeping one MAC unit powered for one cycle.
	MACCycle float64
	// SRAMAccess is the cost of one SRAM word access.
	SRAMAccess float64
	// DRAMAccess is the cost of one DRAM word access.
	DRAMAccess float64
}

// Eyeriss returns the default normalized model (1 / 6 / 200).
func Eyeriss() Model {
	return Model{MACCycle: 1, SRAMAccess: 6, DRAMAccess: 200}
}

// Breakdown is one run's energy split by component.
type Breakdown struct {
	// Array is MACs provisioned x cycles x MACCycle.
	Array float64
	// SRAM is SRAM accesses x SRAMAccess.
	SRAM float64
	// DRAM is DRAM accesses x DRAMAccess.
	DRAM float64
}

// Total returns the summed energy.
func (b Breakdown) Total() float64 { return b.Array + b.SRAM + b.DRAM }

// Add returns the component-wise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		Array: b.Array + o.Array,
		SRAM:  b.SRAM + o.SRAM,
		DRAM:  b.DRAM + o.DRAM,
	}
}

// Compute charges provisionedMACs (the whole system's MAC count, idle or
// not) for cycles of runtime, plus the given SRAM and DRAM word-access
// totals.
func (m Model) Compute(provisionedMACs, cycles, sramAccesses, dramAccesses int64) Breakdown {
	return Breakdown{
		Array: float64(provisionedMACs) * float64(cycles) * m.MACCycle,
		SRAM:  float64(sramAccesses) * m.SRAMAccess,
		DRAM:  float64(dramAccesses) * m.DRAMAccess,
	}
}
