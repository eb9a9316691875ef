// Package batch runs declarative grids of simulations: the cartesian
// product of array shapes, dataflows, SRAM provisions and workloads, each
// point a full cycle-accurate run, executed on the shared engine's worker
// pool. This is the "quickly iterate over and validate upcoming designs"
// workflow the paper positions SCALE-Sim for, packaged as one command.
package batch

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"time"

	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/engine"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/cycleacct"
	"scalesim/internal/obsv/log"
	"scalesim/internal/obsv/timeline"
	"scalesim/internal/simcache"
	"scalesim/internal/topology"
)

// Point is one grid coordinate. Exactly one of Topology and Graph is the
// workload: flat points run core.Simulate, graph points run
// core.SimulateGraph.
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

// ShapeKey is the workload's canonical identity, names excluded.
// Together with the derived configuration's hash it identifies the point
// content-addressably — the basis of deterministic shard assignment and
// cross-shard deduplication.
func (p Point) ShapeKey() string { return topology.ShapeKey(p.Topology, p.Graph) }

// Config derives the point's full hardware configuration from the base.
func (p Point) Config(base config.Config) config.Config {
	return base.
		WithArray(p.Array[0], p.Array[1]).
		WithDataflow(p.Dataflow).
		WithSRAM(p.SRAM[0], p.SRAM[1], p.SRAM[2])
}

// PointHash is the point's content address: the SHA-256-backed hash of its
// derived configuration crossed with its workload shape key. Equal hashes
// mean equal simulation outcomes, so merged sharded sweeps deduplicate
// rows by it.
func PointHash(base config.Config, p Point) string {
	sum := sha256.Sum256([]byte(p.ShapeKey()))
	return p.Config(base).Hash() + ":" + hex.EncodeToString(sum[:8])
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
	// TotalCycles (sweeps model no DRAM bound, so no stall bins appear).
	Ledger *cycleacct.Ledger
}

// Spec is the declarative grid.
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
	// workload required); graphs run through core.SimulateGraph.
	Topologies []topology.Topology
	Graphs     []topology.Graph
	// PointList, when non-empty, replaces the cartesian expansion with an
	// explicit list of fully-specified points — the band-driven workflow
	// of a tiered design-space search, where only the analytically
	// surviving configurations are simulated. Each point must carry its
	// own workload; the axis fields above are ignored.
	PointList []Point
	// Parallel bounds concurrent runs (default GOMAXPROCS).
	Parallel int
	// Cache, when non-nil, memoizes per-layer compute results across the
	// whole grid: points that share a (config, layer-shape) pair — every
	// SRAM/array point re-running the same nets — replay instead of
	// re-simulating (repeated shapes inside one net are shared by core's
	// run plan, cache or no cache). Safe to share across
	// concurrent points; ignored for points with live sinks (Timeline).
	Cache *simcache.Cache
	// Obs, when non-nil, records the sweep: grid-level engine spans, the
	// "batch.run" phase and per-point wall timings. Rows are unaffected.
	Obs *obsv.Recorder
	// Timeline, when non-nil, receives every grid point's simulated-machine
	// timeline (one Perfetto process per point). Concurrent points
	// interleave their events, which the trace format permits; rows are
	// unaffected.
	Timeline *timeline.Writer
	// Progress, when non-nil, receives one step per completed grid point.
	Progress *obsv.Progress
	// Context, when non-nil, cancels the sweep at layer granularity: it is
	// threaded into every point's core.Options.Context, so a cancelled
	// sweep aborts with the context's error instead of running the grid to
	// completion. This is how a job runner stops a running sweep.
	Context context.Context
}

// label formats the canonical point/row name shared by progress lines,
// debug logs and manifests.
func label(net string, array [2]int, df config.Dataflow, sram [3]int) string {
	return fmt.Sprintf("%s/%dx%d/%s/%d-%d-%d", net,
		array[0], array[1], df, sram[0], sram[1], sram[2])
}

// PointLabel names one grid point for progress lines and manifests.
func PointLabel(p Point) string {
	return label(p.Net(), p.Array, p.Dataflow, p.SRAM)
}

// Label names the completed row identically to its point's PointLabel.
func (r Row) Label() string {
	return label(r.Net, r.Array, r.Dataflow, r.SRAM)
}

// Points expands the grid, or adopts the explicit PointList.
func (s Spec) Points() []Point {
	pts := s.PointList
	if len(pts) == 0 {
		arrays := s.Arrays
		if len(arrays) == 0 {
			arrays = [][2]int{{s.Base.ArrayHeight, s.Base.ArrayWidth}}
		}
		dfs := s.Dataflows
		if len(dfs) == 0 {
			dfs = []config.Dataflow{s.Base.Dataflow}
		}
		srams := s.SRAMs
		if len(srams) == 0 {
			srams = [][3]int{{s.Base.IfmapSRAMKB, s.Base.FilterSRAMKB, s.Base.OfmapSRAMKB}}
		}
		expand := func(p Point) {
			for _, a := range arrays {
				for _, df := range dfs {
					for _, sr := range srams {
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
	}
	return pts
}

// Run executes every grid point on the shared engine's worker pool and
// returns rows in grid order.
func Run(spec Spec) ([]Row, error) {
	if len(spec.Topologies) == 0 && len(spec.Graphs) == 0 && len(spec.PointList) == 0 {
		return nil, fmt.Errorf("batch: no topologies")
	}
	points := spec.Points()
	spec.Progress.Start(len(points))
	defer spec.Obs.Phase("batch.run")()
	log.Default().Info("batch", "sweep start",
		"points", len(points), "nets", len(spec.Topologies)+len(spec.Graphs))
	// Labels are fmt-built per point; skip construction entirely when no
	// consumer (recorder, progress line, debug log) will read them.
	wantLabel := spec.Obs.Enabled() || spec.Progress != nil || log.Default().Enabled(log.LevelDebug)
	rows, err := engine.RunObserved(spec.Parallel, len(points), spec.Obs.SpanSink(), func(i int) (Row, error) {
		p := points[i]
		var t0 time.Time
		if spec.Obs.Enabled() {
			t0 = time.Now()
		}
		row, err := runPoint(spec.Context, spec.Base, p, spec.Timeline, spec.Cache)
		if err != nil {
			return Row{}, fmt.Errorf("batch: %s on %dx%d %v: %w",
				p.Net(), p.Array[0], p.Array[1], p.Dataflow, err)
		}
		if wantLabel {
			name := PointLabel(p)
			spec.Obs.ObserveLayer(i, name, time.Since(t0))
			spec.Progress.Step(name)
			if lg := log.Default(); lg.Enabled(log.LevelDebug) {
				lg.Debug("batch", "point done", "point", name, "cycles", row.TotalCycles)
			}
		}
		return row, nil
	})
	if err != nil {
		log.Default().Error("batch", "sweep failed", "points", len(points), "error", err)
	}
	return rows, err
}

// NewManifest assembles a sweep manifest: one manifest entry per grid
// point (total cycles, utilization, DRAM traffic, wall time) on top of
// the recorder's phases, spans and runtime stats. rows must be the grid
// Run returned under the same recorder.
func NewManifest(spec Spec, rows []Row, rec *obsv.Recorder) *obsv.Manifest {
	m := rec.Manifest()
	m.Tool = "scalesweep"
	m.ConfigHash = spec.Base.Hash()
	if spec.Cache != nil {
		st := spec.Cache.Stats()
		m.Cache = &obsv.CacheStats{Hits: st.Hits, Misses: st.Misses, Entries: st.Entries}
	}
	m.Layers = make([]obsv.LayerMetrics, 0, len(rows))
	for i, r := range rows {
		m.Layers = append(m.Layers, obsv.LayerMetrics{
			Index:       i,
			Name:        r.Label(),
			Cycles:      r.TotalCycles,
			Utilization: r.ComputeUtil,
			DRAMReads:   r.DRAMReads,
			DRAMWrites:  r.DRAMWrites,
			WallSeconds: rec.LayerSeconds(i),
		})
	}
	if ca, err := CycleReport(rows); err != nil {
		log.Default().Error("batch", "cycle accounting", "error", err)
	} else {
		m.CycleAccounting = ca
	}
	return m
}

// CycleReport assembles the sweep's cycle account: one node per row,
// named by the row's point label, carrying the point's merged ledger.
// Sweeps model no DRAM bound or scale-out grid, so only array and vector
// bins appear and no roofline is attached. A ledgerless row (an
// incomplete account) is an error.
func CycleReport(rows []Row) (*cycleacct.Report, error) {
	nodes := make([]cycleacct.NodeLedger, 0, len(rows))
	for i, r := range rows {
		if r.Ledger == nil {
			return nil, fmt.Errorf("batch: row %d (%s) carries no cycle ledger", i, r.Label())
		}
		nodes = append(nodes, cycleacct.NodeLedger{
			Index: i, Name: r.Label(), Ledger: r.Ledger.Clone(),
		})
	}
	return cycleacct.NewReport(nodes)
}

func runPoint(ctx context.Context, base config.Config, p Point, tl *timeline.Writer, cache *simcache.Cache) (Row, error) {
	cfg := p.Config(base)
	// Grid points already saturate the worker pool; keep each point's
	// layer execution sequential rather than multiplying the two levels.
	sim, err := core.New(cfg, core.Options{Workers: 1, Timeline: tl, Cache: cache, Context: ctx})
	if err != nil {
		return Row{}, err
	}
	var res core.RunResult
	if p.Graph != nil {
		res, err = sim.SimulateGraph(*p.Graph)
	} else {
		res, err = sim.Simulate(p.Topology)
	}
	if err != nil {
		return Row{}, err
	}
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
		row.ComputeUtil = float64(res.TotalMACs) / (float64(cfg.MACs()) * float64(res.TotalCycles))
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
	return row, nil
}
