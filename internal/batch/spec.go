package batch

import (
	"fmt"
	"io"
	"strconv"

	"scalesim/internal/config"
	"scalesim/internal/topology"
)

// Axes is the grid as text: the comma-separated lists a spec file's
// [sweep] keys and the CLIs' inline flags both spell. Empty axes fall
// back to the base configuration; Nets takes built-in names, flat
// topologies and operator graphs alike.
type Axes struct {
	Arrays, Dataflows, SRAMs, Nets string
}

// Spec parses the axes into a grid over base — the one axis parser
// behind ParseSpec, scalesweep's inline flags and scaledse's.
func (a Axes) Spec(base config.Config) (Spec, error) {
	spec := Spec{Base: base}
	for _, part := range config.SplitList(a.Arrays) {
		v, err := config.ParseInts(part, "x", 2)
		if err != nil {
			return Spec{}, err
		}
		spec.Arrays = append(spec.Arrays, [2]int(v))
	}
	for _, part := range config.SplitList(a.Dataflows) {
		df, err := config.ParseDataflow(part)
		if err != nil {
			return Spec{}, err
		}
		spec.Dataflows = append(spec.Dataflows, df)
	}
	for _, part := range config.SplitList(a.SRAMs) {
		v, err := config.ParseInts(part, "/", 3)
		if err != nil {
			return Spec{}, err
		}
		spec.SRAMs = append(spec.SRAMs, [3]int(v))
	}
	for _, part := range config.SplitList(a.Nets) {
		topo, g, err := topology.Workload(part)
		switch {
		case err != nil:
			return Spec{}, err
		case g != nil:
			spec.Graphs = append(spec.Graphs, *g)
		default:
			spec.Topologies = append(spec.Topologies, topo)
		}
	}
	if len(spec.Topologies) == 0 && len(spec.Graphs) == 0 {
		return Spec{}, fmt.Errorf("batch: spec has no nets")
	}
	return spec, nil
}

// ParseSpec reads a sweep specification in the same INI dialect as the
// hardware configs:
//
//	[sweep]
//	arrays    = 16x16, 32x32, 64x64
//	dataflows = os, ws
//	srams     = 128/128/64, 512/512/256
//	nets      = AlexNet, TinyNet
//	parallel  = 4
//
// Unset axes fall back to the base configuration. `nets` accepts built-in
// topology names; file-backed workloads can be added programmatically.
func ParseSpec(r io.Reader, base config.Config) (Spec, error) {
	ini, err := config.ParseINI(r)
	if err != nil {
		return Spec{}, err
	}
	get := func(key string) string { v, _ := ini.Get("sweep", key); return v }
	spec, err := Axes{Arrays: get("arrays"), Dataflows: get("dataflows"),
		SRAMs: get("srams"), Nets: get("nets")}.Spec(base)
	if err != nil {
		return Spec{}, err
	}
	if v, ok := ini.Get("sweep", "parallel"); ok {
		if spec.Parallel, err = strconv.Atoi(v); err != nil {
			return Spec{}, fmt.Errorf("batch: invalid parallel %q", v)
		}
	}
	return spec, nil
}

// WriteCSV renders rows as one CSV table.
func WriteCSV(w io.Writer, rows []Row) error {
	if _, err := fmt.Fprintln(w, "Net,Array,Dataflow,SRAM,TotalCycles,ComputeUtil%,AvgBW,DRAMReads,DRAMWrites,EnergyTotal"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%dx%d,%s,%d/%d/%d,%d,%.2f,%.4f,%d,%d,%.0f\n",
			r.Net, r.Array[0], r.Array[1], r.Dataflow,
			r.SRAM[0], r.SRAM[1], r.SRAM[2],
			r.TotalCycles, 100*r.ComputeUtil, r.AvgBW,
			r.DRAMReads, r.DRAMWrites, r.EnergyTotal); err != nil {
			return err
		}
	}
	return nil
}
