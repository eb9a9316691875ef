// Package job is the run-orchestration layer every front end shares: a
// Spec is one simulation request (hardware configuration + workload +
// bounds + partition grid), canonically identified by the content address
// the rest of the system uses (topology.ContentKey: config.Hash crossed
// with the workload's shape keys), and a Result is everything a completed
// job produced — the run result (a scale-out job's included) or a sweep's
// rows, its reports and its manifest. A Runner executes jobs on a
// persistent engine.Pool behind a bounded admission queue, shares one
// simcache across every job so repeated configurations replay near-free,
// and registers manifests into a runstore. Every mode of scalesim, the
// scalesimd daemon, and scalesweep and scaledse's refinement (a sweep job
// whose grid points are Specs) run through the same Runner, and the CLI
// resolves its flags with the parsers Request.Spec uses (Override,
// ParseParts, topology.Workload), so a job submitted over HTTP is
// byte-identical to the same job run from the command line. Past those
// parsers a workload is one topology.Graph: a flat network is its chain,
// marked Flat.
package job

import (
	"cmp"
	"encoding/json"
	"fmt"
	"strings"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/dram"
	"scalesim/internal/topology"
)

// Spec is one simulation job: a hardware configuration, one workload,
// and the run bounds that participate in the result. Everything here is a
// pure value — no sinks, no writers — so a Spec can arrive over the
// network, be hashed, queued and replayed.
type Spec struct {
	// Config is the architecture to simulate. Its RunName labels reports.
	Config config.Config
	// Graph is the workload: an operator graph, or a flat network as its
	// chain (topology.Topology.Graph). Every front end sets it.
	Graph *topology.Graph
	// Topology is a flat network, read only when Graph is nil.
	//
	// Deprecated: set Graph to t.Graph(). The benchmark harness still
	// builds its specs with this field.
	Topology topology.Topology
	// DRAM, when non-nil, replays DRAM traces through the timing model.
	DRAM *dram.Config
	// DRAMBandwidth bounds the memory link in words/cycle (0 = unbounded).
	DRAMBandwidth float64
	// Workers bounds the job's internal parallelism — layers, or a layer's
	// partition windows under Parts (core semantics: 0 = GOMAXPROCS, 1 =
	// sequential). A service running many concurrent jobs typically wants
	// 1 here and parallelism across jobs.
	Workers int
	// Parts, when set, runs every layer scale-out on a Pr x Pc grid of
	// arrays shaped like Config's, dividing its SRAM (core.Options.Parts).
	// The zero value is one array. Validate refuses Parts with DRAM or
	// DRAMBandwidth (a shared memory link is not modelled) and with a
	// vector node (a partition has no vector unit).
	Parts analytical.Partitioning
}

// workload is the spec's one workload.
func (s Spec) workload() topology.Graph {
	if s.Graph != nil {
		return *s.Graph
	}
	return s.Topology.Graph()
}

// options returns opt, which carries what the caller owns, with the
// spec's share of its run's core.Options set.
func (s Spec) options(opt core.Options) core.Options {
	opt.Workers, opt.DRAM, opt.DRAMBandwidth, opt.Parts = s.Workers, s.DRAM, s.DRAMBandwidth, s.Parts
	return opt
}

// Validate reports the first structural problem with the spec — for the
// CLI and the wire alike, before anything is queued, printed or written.
func (s Spec) Validate() error {
	if err := s.Config.Validate(); err != nil {
		return err
	}
	opt := s.options(core.Options{})
	if err := opt.Validate(); err != nil {
		return err
	}
	return opt.ValidateWorkload(s.workload())
}

// Net names the spec's workload.
func (s Spec) Net() string { return s.workload().Name }

// Layers returns the workload's unit count — its layers or nodes — the
// denominator of the job's progress.
func (s Spec) Layers() int { return len(s.workload().Nodes) }

// Key is the job's content address: the configuration's canonical hash
// crossed with the workload shape key (topology.ContentKey, the identity
// batch points use) and the run bounds. Equal keys mean equal simulation
// outcomes — the identity under which repeated submissions replay from the
// shared cache.
func (s Spec) Key() string {
	key := topology.ContentKey(s.Config.Hash(), s.workload())
	if s.DRAMBandwidth > 0 {
		key += fmt.Sprintf(";bw=%g", s.DRAMBandwidth)
	}
	if s.DRAM != nil {
		key += ";dram=" + s.DRAM.Key()
	}
	if s.Parts != (analytical.Partitioning{}) {
		key += ";parts=" + s.Parts.String()
	}
	return key
}

// Request is the wire form of a Spec: the JSON document POST /jobs
// accepts and the load generator emits. Hardware comes either as a full
// INI config (config_ini) or as the familiar flag-shaped fields; the
// workload is a built-in name, an inline topology CSV, or an inline
// operator-graph document (scalesim.graph/v1).
type Request struct {
	// Run labels the job's reports and manifest (optional).
	Run string `json:"run,omitempty"`
	// ConfigINI is a full hardware configuration in the Table I INI
	// dialect; the fields below override it.
	ConfigINI string `json:"config_ini,omitempty"`
	// Array ("RxC"), Dataflow ("os"/"ws"/"is") and SRAM ("i,f,o" KiB)
	// override the base configuration, exactly like the CLI flags.
	Array    string `json:"array,omitempty"`
	Dataflow string `json:"dataflow,omitempty"`
	SRAM     string `json:"sram,omitempty"`
	// VectorLanes overrides the vector-unit width (0 = array width).
	VectorLanes int `json:"vector_lanes,omitempty"`
	// Net selects a built-in workload (flat network or operator graph).
	Net string `json:"net,omitempty"`
	// TopologyCSV is an inline topology in the layer CSV format.
	TopologyCSV string `json:"topology_csv,omitempty"`
	// Graph is an inline operator-graph JSON document.
	Graph json.RawMessage `json:"graph,omitempty"`
	// DRAM replays DRAM traces through the DDR3 timing model.
	DRAM bool `json:"dram,omitempty"`
	// DRAMBandwidth bounds the link in words/cycle (0 = unbounded).
	DRAMBandwidth float64 `json:"dram_bw,omitempty"`
	// Workers bounds the job's internal layer (or partition) parallelism.
	Workers int `json:"workers,omitempty"`
	// Parts ("PrxPc") runs the job scale-out, like the CLI's -parts.
	Parts string `json:"parts,omitempty"`
}

// ParseParts parses a "PrxPc" partition grid, both at least 1.
func ParseParts(s string) (analytical.Partitioning, error) {
	v, err := config.ParseInts(s, "x", 2)
	if err != nil || v[0] < 1 || v[1] < 1 {
		return analytical.Partitioning{}, fmt.Errorf("job: invalid parts %q (want PrxPc, both at least 1)", s)
	}
	return analytical.Partitioning{Pr: int64(v[0]), Pc: int64(v[1])}, nil
}

// Override applies the flag-shaped hardware overrides — array "RxC",
// dataflow "os"/"ws"/"is", SRAM "i,f,o" KiB, vector lanes — to a base
// configuration; empty and zero values keep the base.
func Override(cfg config.Config, array, dataflow, sram string, lanes int) (config.Config, error) {
	if array != "" {
		v, err := config.ParseInts(array, "x", 2)
		if err != nil {
			return cfg, err
		}
		cfg = cfg.WithArray(v[0], v[1])
	}
	if dataflow != "" {
		df, err := config.ParseDataflow(dataflow)
		if err != nil {
			return cfg, err
		}
		cfg = cfg.WithDataflow(df)
	}
	if sram != "" {
		v, err := config.ParseInts(sram, ",", 3)
		if err != nil {
			return cfg, err
		}
		cfg = cfg.WithSRAM(v[0], v[1], v[2])
	}
	if lanes != 0 {
		cfg.VectorLanes = lanes
	}
	return cfg, nil
}

// Spec resolves the request into an executable Spec.
func (r Request) Spec() (Spec, error) {
	cfg := config.New()
	if r.ConfigINI != "" {
		var err error
		if cfg, err = config.Parse(strings.NewReader(r.ConfigINI)); err != nil {
			return Spec{}, err
		}
	}
	cfg, err := Override(cfg, r.Array, r.Dataflow, r.SRAM, r.VectorLanes)
	if err != nil {
		return Spec{}, err
	}
	if r.Run != "" {
		cfg.RunName = r.Run
	}

	spec := Spec{Config: cfg, DRAMBandwidth: r.DRAMBandwidth, Workers: r.Workers}
	if r.DRAM {
		ddr := dram.DDR3()
		spec.DRAM = &ddr
	}
	if r.Parts != "" {
		if spec.Parts, err = ParseParts(r.Parts); err != nil {
			return Spec{}, err
		}
	}

	set := 0
	for _, given := range []bool{r.Net != "", r.TopologyCSV != "", len(r.Graph) > 0} {
		if given {
			set++
		}
	}
	inline := cmp.Or(r.Run, "inline")
	var w topology.Graph
	switch {
	case set == 0:
		return Spec{}, fmt.Errorf("job: no workload: set net, topology_csv or graph")
	case set > 1:
		return Spec{}, fmt.Errorf("job: multiple workloads: set exactly one of net, topology_csv and graph")
	case r.Net != "":
		w, err = topology.Workload(r.Net)
	case r.TopologyCSV != "":
		var t topology.Topology
		t, err = topology.ParseCSV(inline, strings.NewReader(r.TopologyCSV))
		w = t.Graph()
	default:
		w, err = topology.ParseGraph(inline, strings.NewReader(string(r.Graph)))
	}
	if err != nil {
		return Spec{}, err
	}
	spec.Graph = &w
	return spec, spec.Validate()
}
