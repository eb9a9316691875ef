// Package batch declares grids of simulations: the cartesian product of
// array shapes, dataflows, SRAM provisions and workloads, each point a full
// cycle-accurate run — the "quickly iterate over and validate upcoming
// designs" workflow the paper positions SCALE-Sim for. It is declarative
// (expansion, content address, shard, Row, CSV, manifest) and runs nothing:
// a grid is one sweep job on the job.Runner, every point a job.Spec.
package batch

import (
	"fmt"
	"hash/fnv"

	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/cycleacct"
	"scalesim/internal/simcache"
	"scalesim/internal/topology"
)

// Point is one grid coordinate. Exactly one of Topology and Graph is the
// workload, as in the job.Spec the point runs as.
type Point struct {
	Array    [2]int
	Dataflow config.Dataflow
	SRAM     [3]int
	Topology topology.Topology
	Graph    *topology.Graph
}

// Net names the point's workload.
func (p Point) Net() string {
	if p.Graph != nil {
		return p.Graph.Name
	}
	return p.Topology.Name
}

// Config derives the point's full hardware configuration from the base.
func (p Point) Config(base config.Config) config.Config {
	return base.
		WithArray(p.Array[0], p.Array[1]).
		WithDataflow(p.Dataflow).
		WithSRAM(p.SRAM[0], p.SRAM[1], p.SRAM[2])
}

// PointHash is the point's content address: the hash of its derived
// configuration crossed with its workload shape key — the Key of the
// job.Spec the point runs as. Equal hashes mean equal simulation outcomes,
// so merged sharded sweeps deduplicate rows by it.
func PointHash(base config.Config, p Point) string {
	return topology.ContentKey(p.Config(base).Hash(), p.Topology, p.Graph)
}

// ShardOf deterministically assigns the point to one of shards buckets,
// keyed by PointHash: every process that expands the same grid over the
// same base configuration computes the same split, with no coordination.
// shards < 2 always yields shard 0.
func ShardOf(base config.Config, p Point, shards int) int {
	if shards < 2 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(PointHash(base, p)))
	return int(h.Sum64() % uint64(shards))
}

// Row is one completed run.
type Row struct {
	// Net names the workload; the remaining identity fields mirror Point.
	Net      string
	Array    [2]int
	Dataflow config.Dataflow
	SRAM     [3]int
	// TotalCycles, AvgBW (bytes/cycle), ComputeUtil and EnergyTotal are the
	// headline aggregates.
	TotalCycles int64
	AvgBW       float64
	ComputeUtil float64
	EnergyTotal float64
	// DRAMReads/DRAMWrites are interface words.
	DRAMReads, DRAMWrites int64
	// Ledger merges the point's per-layer cycle ledgers; its Total equals
	// TotalCycles (a point carries no DRAM bound yet; the body it runs on
	// does — so no stall bins appear).
	Ledger *cycleacct.Ledger
}

// Spec is the declarative grid; cache, recorder, timeline, progress and
// cancellation belong to the job.Runner and job.Live it is submitted with.
type Spec struct {
	// Base supplies offsets, word size and anything the grid axes do not
	// override.
	Base config.Config
	// Arrays, Dataflows and SRAMs are the hardware axes; empty axes default
	// to the base configuration's value.
	Arrays    [][2]int
	Dataflows []config.Dataflow
	SRAMs     [][3]int
	// Topologies and Graphs together form the workload axis (at least one
	// workload required).
	Topologies []topology.Topology
	Graphs     []topology.Graph
	// PointList, when non-empty, replaces the cartesian expansion with an
	// explicit list of fully-specified points — the band-driven workflow
	// of a tiered design-space search, where only the analytically
	// surviving configurations are simulated. Each point must carry its
	// own workload; the axis fields above are ignored.
	PointList []Point
	// Parallel is the one worker count over the layers of every point,
	// and over a search's tier-1 scoring jobs (default GOMAXPROCS).
	Parallel int
}

// PointLabel names one grid point for progress lines, debug logs and
// manifests: the Label of the row it completes as.
func PointLabel(p Point) string {
	return Row{Net: p.Net(), Array: p.Array, Dataflow: p.Dataflow, SRAM: p.SRAM}.Label()
}

// Label is the canonical point/row name.
func (r Row) Label() string {
	return fmt.Sprintf("%s/%dx%d/%s/%d-%d-%d", r.Net,
		r.Array[0], r.Array[1], r.Dataflow, r.SRAM[0], r.SRAM[1], r.SRAM[2])
}

// WithDefaults fills each empty hardware axis with the base
// configuration's value — the one defaulting a sweep's expansion and a
// search's tier 1 share.
func (s Spec) WithDefaults() Spec {
	if len(s.Arrays) == 0 {
		s.Arrays = [][2]int{{s.Base.ArrayHeight, s.Base.ArrayWidth}}
	}
	if len(s.Dataflows) == 0 {
		s.Dataflows = []config.Dataflow{s.Base.Dataflow}
	}
	if len(s.SRAMs) == 0 {
		s.SRAMs = [][3]int{{s.Base.IfmapSRAMKB, s.Base.FilterSRAMKB, s.Base.OfmapSRAMKB}}
	}
	return s
}

// Points expands the grid, or adopts the explicit PointList.
func (s Spec) Points() []Point {
	if len(s.PointList) > 0 {
		return s.PointList
	}
	s = s.WithDefaults()
	var pts []Point
	expand := func(p Point) {
		for _, a := range s.Arrays {
			for _, df := range s.Dataflows {
				for _, sr := range s.SRAMs {
					p.Array, p.Dataflow, p.SRAM = a, df, sr
					pts = append(pts, p)
				}
			}
		}
	}
	for _, topo := range s.Topologies {
		expand(Point{Topology: topo})
	}
	for i := range s.Graphs {
		expand(Point{Graph: &s.Graphs[i]})
	}
	return pts
}

// NewManifest assembles a sweep manifest: one entry per grid point (total
// cycles, utilization, DRAM traffic, wall time) with the point's merged
// ledger as its cycle node — sweeps model no DRAM bound or scale-out grid,
// so only array and vector bins appear and no roofline is attached — on
// top of the recorder's phases, spans and runtime stats, under the base
// configuration's hash and the cache's counters (nil = no block). rows
// must be the grid the recorder observed; a row whose books do not close
// is an error.
func NewManifest(baseHash string, rows []Row, rec *obsv.Recorder, cache *simcache.Cache) (*obsv.Manifest, error) {
	units := make([]obsv.Unit, len(rows))
	for i, r := range rows {
		units[i] = obsv.Unit{Ledger: r.Ledger, Entry: obsv.LayerMetrics{
			Name:        r.Label(),
			Cycles:      r.TotalCycles,
			Utilization: r.ComputeUtil,
			DRAMReads:   r.DRAMReads,
			DRAMWrites:  r.DRAMWrites,
		}}
	}
	m, err := rec.Record(units)
	if err != nil {
		return nil, err
	}
	m.Tool = "scalesweep"
	m.ConfigHash = baseHash
	m.Cache = cache.ManifestStats()
	return m, nil
}

// RowOf condenses a completed run of point p into its Row.
func RowOf(p Point, res core.RunResult) Row {
	row := Row{
		Net:         p.Net(),
		Array:       p.Array,
		Dataflow:    p.Dataflow,
		SRAM:        p.SRAM,
		TotalCycles: res.TotalCycles,
		AvgBW:       res.AvgBandwidth(),
		EnergyTotal: res.TotalEnergy.Total(),
		DRAMReads:   res.DRAMReads(),
		DRAMWrites:  res.DRAMWrites(),
	}
	if res.TotalCycles > 0 {
		row.ComputeUtil = float64(res.TotalMACs) / (float64(res.Config.MACs()) * float64(res.TotalCycles))
	}
	led := &cycleacct.Ledger{}
	for _, lr := range res.Layers {
		if lr.Ledger == nil {
			led = nil
			break
		}
		led.Merge(*lr.Ledger)
	}
	row.Ledger = led
	return row
}
