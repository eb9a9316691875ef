package dataflow

import (
	"fmt"

	"scalesim/internal/config"
	"scalesim/internal/topology"
)

// Mapper binds a layer, a dataflow and an address space together and answers
// the three questions the cycle-accurate simulator asks:
//
//   - which address (if any) is pre-filled into the PE at spatial position
//     (row i, column j) before computation starts (WS fills filters, IS
//     fills IFMAP windows, OS fills nothing);
//   - which address streams into spatial row i of the left edge at temporal
//     step t, and into spatial column j of the top edge at step t;
//   - which OFMAP address the output produced at output coordinate (a, b)
//     belongs to.
//
// Spatial coordinates are global (in [0, Sr) x [0, Sc)); the simulator maps
// folds onto windows of this space.
type Mapper struct {
	addr *Addressing
	m    Mapping
}

// NewMapper builds a Mapper for the layer under the dataflow.
func NewMapper(l topology.Layer, df config.Dataflow, off Offsets) *Mapper {
	return &Mapper{addr: NewAddressing(l, off), m: Map(l, df)}
}

// Mapping returns the spatio-temporal dimensions.
func (mp *Mapper) Mapping() Mapping { return mp.m }

// RowOperand reports which tensor streams in from the left edge.
func (mp *Mapper) RowOperand() Operand {
	if mp.m.Dataflow == config.InputStationary {
		return Filter
	}
	return Ifmap
}

// Stationary returns the address pre-filled into the PE at global spatial
// position (row i, column j), where i in [0, Sr) and j in [0, Sc).
// It panics for the OS dataflow, which has no stationary operand.
func (mp *Mapper) Stationary(i, j int64) int64 {
	switch mp.m.Dataflow {
	case config.WeightStationary:
		// Column j holds filter j; row i holds the i-th window element.
		return mp.addr.FilterElem(j, i)
	case config.InputStationary:
		// Column j holds OFMAP window j; row i its i-th element.
		return mp.addr.IfmapElem(j, i)
	}
	panic(fmt.Sprintf("dataflow: %v has no stationary operand", mp.m.Dataflow))
}

// RowStream returns the address entering global spatial row i at temporal
// step t, with i in [0, Sr) and t in [0, T).
func (mp *Mapper) RowStream(i, t int64) int64 {
	switch mp.m.Dataflow {
	case config.OutputStationary:
		// Row i is OFMAP window i; step t delivers its t-th element.
		return mp.addr.IfmapElem(i, t)
	case config.WeightStationary:
		// Row i carries the i-th element of window t.
		return mp.addr.IfmapElem(t, i)
	case config.InputStationary:
		// Row i carries the i-th element of filter t.
		return mp.addr.FilterElem(t, i)
	}
	panic(fmt.Sprintf("dataflow: unknown dataflow %v", mp.m.Dataflow))
}

// ColStream returns the address entering global spatial column j at temporal
// step t. Only the OS dataflow streams an operand from the top while
// computing; WS and IS use the top edge for the stationary fill only.
func (mp *Mapper) ColStream(j, t int64) int64 {
	if mp.m.Dataflow != config.OutputStationary {
		panic(fmt.Sprintf("dataflow: %v streams no top-edge operand", mp.m.Dataflow))
	}
	// Column j is filter j; step t delivers its t-th element.
	return mp.addr.FilterElem(j, t)
}

// OutputRows returns the extent of the first output coordinate: Sr for OS
// (each PE owns one output), T for WS and IS (outputs stream out over time).
func (mp *Mapper) OutputRows() int64 {
	if mp.m.Dataflow == config.OutputStationary {
		return mp.m.Sr
	}
	return mp.m.T
}

// Output returns the OFMAP address of the output at coordinate (a, b):
// for OS, a indexes S_R (window) and b indexes S_C (filter); for WS, a
// indexes T (window) and b indexes S_C (filter); for IS, a indexes T
// (filter) and b indexes S_C (window).
func (mp *Mapper) Output(a, b int64) int64 {
	switch mp.m.Dataflow {
	case config.OutputStationary:
		return mp.addr.OfmapElem(a, b)
	case config.WeightStationary:
		return mp.addr.OfmapElem(a, b)
	case config.InputStationary:
		return mp.addr.OfmapElem(b, a)
	}
	panic(fmt.Sprintf("dataflow: unknown dataflow %v", mp.m.Dataflow))
}
