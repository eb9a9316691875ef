// Package partition executes a layer on a scale-out system: a Pr x Pc grid
// of identical systolic arrays, each owning one rectangular slice of the
// spatial space (Eq. 5) and each fed by its own share of the chip's SRAM
// (the paper's Fig. 11 setup divides the total SRAM budget evenly among
// partitions). Partitions run in parallel; the layer's runtime is the
// slowest partition's runtime (Eq. 6) and the DRAM interface carries the
// sum of all partitions' traffic — including the replicated fetches that
// partitioning introduces, which is exactly the bandwidth cost the paper
// quantifies.
//
// A partition is not a second simulator: it is a spatial window of the
// layer, and a window is a core.LayerContext run through core's
// map/sinks/compute/analyze pipeline (core.Simulator.SimulateWindows) —
// the same memory system, result cache, cycle ledger, timeline recorders
// and engine fan-out a whole layer gets, P=1 being the whole layer. What
// lives here is only what is scale-out's own: the per-partition
// configuration, the window enumeration (Eq. 5), and the join — summed
// traffic, the slowest partition's runtime (Eq. 6), each partition's skew
// wait on it, energy and the NoC.
package partition

import (
	"context"
	"fmt"
	"time"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/dataflow"
	"scalesim/internal/energy"
	"scalesim/internal/mathutil"
	"scalesim/internal/noc"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/cycleacct"
	"scalesim/internal/obsv/timeline"
	"scalesim/internal/simcache"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

// Spec describes a scale-out system: the partition grid and the per-array
// shape. Parts 1x1 describes a monolithic (scale-up) run.
type Spec struct {
	Parts analytical.Partitioning
	Shape analytical.Shape
}

// MACs returns the system's total MAC count.
func (s Spec) MACs() int64 { return s.Parts.Count() * s.Shape.MACs() }

func (s Spec) String() string {
	return fmt.Sprintf("%s partitions of %s", s.Parts, s.Shape)
}

// Validate rejects non-positive dimensions.
func (s Spec) Validate() error {
	if s.Parts.Pr < 1 || s.Parts.Pc < 1 {
		return fmt.Errorf("partition: invalid grid %s", s.Parts)
	}
	if s.Shape.R < 1 || s.Shape.C < 1 {
		return fmt.Errorf("partition: invalid array shape %s", s.Shape)
	}
	return nil
}

// Result summarizes a scale-out run of one layer.
type Result struct {
	// Layer and Spec identify the run.
	Layer topology.Layer
	Spec  Spec
	// Cycles is the runtime of the slowest partition.
	Cycles int64
	// MACs is the total useful work (invariant across partitionings).
	MACs int64
	// ActivePartitions counts partitions that received work; trailing
	// partitions of an over-partitioned workload may have none.
	ActivePartitions int64
	// SRAMReads and SRAMWrites are summed word accesses across partitions.
	SRAMReads, SRAMWrites int64
	// DRAMReads and DRAMWrites are summed interface words across partitions.
	DRAMReads, DRAMWrites int64
	// AvgDRAMReadBW / AvgDRAMWriteBW are bytes per cycle over the layer
	// runtime, aggregated over all partitions running concurrently.
	AvgDRAMReadBW, AvgDRAMWriteBW float64
	// PeakDRAMBW sums the partitions' peak windowed demands (bytes/cycle).
	PeakDRAMBW float64
	// Energy is the run's energy breakdown under energy.Eyeriss().
	Energy energy.Breakdown
	// NoC is the interconnect analysis, set when Options.NoC is provided.
	NoC *noc.Report
	// Ledger is the run's cycle account: one PartitionLedger per active
	// partition, each closed on the layer's full runtime (own fold
	// cycles plus partition_skew_wait on the slowest partition), with
	// the node-level bins aggregating them. Its Total therefore counts
	// provisioned array-cycles: ActivePartitions x Cycles.
	Ledger *cycleacct.NodeLedger
}

// AvgDRAMBW returns the combined average interface bandwidth.
func (r Result) AvgDRAMBW() float64 { return r.AvgDRAMReadBW + r.AvgDRAMWriteBW }

// Options tunes a scale-out run.
type Options struct {
	// NoC, when non-nil, routes every partition's DRAM traffic over a mesh
	// interconnect and adds the transport cost to the result.
	NoC *noc.Config
	// MulticastFraction (0..1) models tree multicast of operands shared by
	// a column of partitions; only meaningful with NoC set.
	MulticastFraction float64
	// Parallel is the number of partitions simulated concurrently
	// (default: GOMAXPROCS). Partitions are independent, so results are
	// deterministic regardless of the value.
	Parallel int
	// Cache, when non-nil, memoizes per-partition compute results under
	// core's canonical key (per-partition config x layer shape x spatial
	// window, offsets included): a partition sweep revisits the same
	// windows across grid candidates, and Fig. 11/12 sweeps revisit whole
	// grids. Ignored whenever an option demands a live consumer (Timeline),
	// so cached runs stay byte-identical to live ones. Entries are
	// position-pure: skew wait is never stored.
	Cache *simcache.Cache
	// Obs, when non-nil, records the partition fan-out: engine spans for
	// every partition task, core's stage timers and cache counters
	// (core.simcache.*), and the "partition.run" phase. Results are
	// unaffected.
	Obs *obsv.Recorder
	// Progress, when non-nil, is stepped once per RunPoints point; Run
	// alone never steps it.
	Progress *obsv.Progress
	// Context, when non-nil, is checked before each partition window runs;
	// once cancelled, the run fails with the context's error.
	Context context.Context
	// Timeline, when non-nil, receives the scale-out run as a Chrome Trace
	// Event timeline: one thread per partition carrying its span and fold
	// schedule, per-partition bandwidth counters (track names prefixed
	// "p<i>."), and the engine's scheduler spans on the host axis. Purely
	// additive; results are unaffected.
	Timeline *timeline.Writer
}

// gridPos locates a partition in the Pr x Pc grid.
type gridPos struct{ pi, pj int64 }

// Run executes the layer on the scale-out system described by spec. The
// base configuration supplies the dataflow, the total SRAM budget (divided
// evenly among partitions, minimum 1 KiB each), offsets and word size; its
// array dimensions are replaced by spec.Shape.
func Run(l topology.Layer, base config.Config, spec Spec, opt Options) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if err := l.Validate(); err != nil {
		return Result{}, err
	}

	// Per-partition configuration: array shape and SRAM share. Every
	// partition is the same single-array simulator; core.New validates the
	// configuration.
	cfg := base.WithArray(int(spec.Shape.R), int(spec.Shape.C))
	p := spec.Parts.Count()
	cfg.IfmapSRAMKB = sramShare(base.IfmapSRAMKB, p)
	cfg.FilterSRAMKB = sramShare(base.FilterSRAMKB, p)
	cfg.OfmapSRAMKB = sramShare(base.OfmapSRAMKB, p)
	sim, err := core.New(cfg, core.Options{
		Cache: opt.Cache, Context: opt.Context,
		Workers: opt.Parallel, Obs: opt.Obs, Timeline: opt.Timeline,
	})
	if err != nil {
		return Result{}, err
	}

	m := dataflow.Map(l, cfg.Dataflow)
	srPer := mathutil.CeilDiv(m.Sr, spec.Parts.Pr)
	scPer := mathutil.CeilDiv(m.Sc, spec.Parts.Pc)

	// Enumerate the partitions that receive work (Eq. 5): grid position
	// and spatial window, index-aligned.
	var at []gridPos
	var wins []systolic.Window
	for pi := int64(0); pi < spec.Parts.Pr; pi++ {
		srOff := pi * srPer
		if srOff >= m.Sr {
			continue
		}
		for pj := int64(0); pj < spec.Parts.Pc; pj++ {
			scOff := pj * scPer
			if scOff >= m.Sc {
				continue
			}
			at = append(at, gridPos{pi, pj})
			wins = append(wins, systolic.Window{
				SrOff: srOff, ScOff: scOff,
				SrLen: min(srPer, m.Sr-srOff),
				ScLen: min(scPer, m.Sc-scOff),
			})
		}
	}
	if len(wins) == 0 {
		return Result{}, fmt.Errorf("partition: no partition received work for %s", spec)
	}

	// Each window is one context through core's pipeline: its own memory
	// system, its own position-pure cache entry (no skew — that depends on
	// the sibling windows and is added below, after the join).
	stop := opt.Obs.Phase("partition.run")
	run, err := sim.SimulateWindows(l, wins)
	stop()
	if err != nil {
		return Result{}, err
	}
	if opt.Timeline != nil {
		emitTimeline(opt.Timeline, l, spec, at, run)
	}

	res := Result{Layer: l, Spec: spec}
	traffic := make([]noc.Traffic, 0, len(wins))
	for i, w := range run.Windows {
		res.ActivePartitions++
		res.MACs += w.Compute.MACs
		if w.Compute.Cycles > res.Cycles {
			res.Cycles = w.Compute.Cycles
		}
		res.SRAMReads += w.Memory.IfmapSRAMReads + w.Memory.FilterSRAMReads
		res.SRAMWrites += w.Memory.OfmapSRAMWrites
		res.DRAMReads += w.Memory.DRAMReads()
		res.DRAMWrites += w.Memory.OfmapDRAMWrites
		res.PeakDRAMBW += w.Memory.PeakIfmapBW + w.Memory.PeakFilterBW + w.Memory.PeakOfmapBW
		traffic = append(traffic, noc.Traffic{
			Pi: at[i].pi, Pj: at[i].pj,
			Words: w.Memory.DRAMAccesses(),
		})
	}

	// Close the books: each partition's ledger is stretched to the
	// layer's runtime with a skew-wait bin (Eq. 6 — the layer finishes
	// with its slowest partition), and the node ledger aggregates them.
	node := &cycleacct.NodeLedger{Name: l.Name, Op: string(topology.OpConv)}
	for i, w := range run.Windows {
		pl := cycleacct.PartitionLedger{Pi: at[i].pi, Pj: at[i].pj, Ledger: w.Ledger.Clone()}
		pl.Add(cycleacct.PhaseGrid, cycleacct.PartitionSkew, res.Cycles-w.Compute.Cycles)
		pl.Total = res.Cycles
		node.Partitions = append(node.Partitions, pl)
		node.Total += pl.Total
		for _, b := range pl.Bins {
			node.Add(b.Phase, b.Category, b.Cycles)
		}
	}
	if err := node.Check(); err != nil {
		return Result{}, fmt.Errorf("partition: %w", err)
	}
	res.Ledger = node

	wordBytes := float64(cfg.WordBytes)
	cyc := float64(res.Cycles)
	res.AvgDRAMReadBW = float64(res.DRAMReads) * wordBytes / cyc
	res.AvgDRAMWriteBW = float64(res.DRAMWrites) * wordBytes / cyc
	res.Energy = energy.Eyeriss().Compute(
		spec.MACs(), res.Cycles,
		res.SRAMReads+res.SRAMWrites,
		res.DRAMReads+res.DRAMWrites,
	)
	if opt.NoC != nil {
		rep, err := noc.AnalyzeMulticast(spec.Parts.Pr, spec.Parts.Pc, traffic,
			opt.MulticastFraction, *opt.NoC)
		if err != nil {
			return Result{}, err
		}
		res.NoC = &rep
		res.Energy.NoC = rep.Energy
	}
	return res, nil
}

// Point is one scale-out run: a layer on one partitioned system, under the
// name its error, progress step and manifest unit carry.
type Point struct {
	Name  string
	Layer topology.Layer
	Spec  Spec
}

// RunPoints is the one scale-out loop, behind a -parts job and Sweep:
// points run in order through Run with opt unchanged, so each point's
// partitions fan out over opt.Parallel. Point i records its wall time as
// opt.Obs unit i and steps opt.Progress once.
func RunPoints(points []Point, base config.Config, opt Options) ([]Result, error) {
	opt.Progress.Start(len(points))
	out := make([]Result, len(points))
	for i, pt := range points {
		t0 := time.Now()
		r, err := Run(pt.Layer, base, pt.Spec, opt)
		if err != nil {
			return nil, fmt.Errorf("partition: %s: %w", pt.Name, err)
		}
		opt.Obs.ObserveLayer(i, time.Since(t0))
		opt.Progress.Step(pt.Name)
		out[i] = r
	}
	return out, nil
}

// Units states each point's result as one obsv.Recorder.Record unit named
// after the point: entry, closed ledger with partitions, roofline row.
func Units(points []Point, results []Result, wordBytes int64) []obsv.Unit {
	units := make([]obsv.Unit, len(results))
	for i, r := range results {
		peak := float64(r.Spec.MACs())
		e := obsv.LayerMetrics{Name: points[i].Name, Op: string(topology.OpConv), Cycles: r.Cycles,
			MACs: r.MACs, DRAMReads: r.DRAMReads, DRAMWrites: r.DRAMWrites}
		if r.Cycles > 0 {
			e.Utilization = float64(r.MACs) / (peak * float64(r.Cycles))
		}
		row := cycleacct.NewRooflineRow(e.Name, e.Op, r.MACs,
			(r.DRAMReads+r.DRAMWrites)*wordBytes, r.Cycles, peak, 0, wordBytes)
		units[i] = obsv.Unit{Entry: e, Ledger: &r.Ledger.Ledger,
			Partitions: r.Ledger.Partitions, Roofline: &row}
	}
	return units
}

// Series is one curve of a scale-out study: a layer swept over partition
// counts at one MAC budget.
type Series struct {
	Name  string
	Layer topology.Layer
	MACs  int64
}

// Point names the series' run on spec <series>/<P>parts.
func (s Series) Point(spec Spec) Point {
	return Point{Name: fmt.Sprintf("%s/%dparts", s.Name, spec.Parts.Count()), Layer: s.Layer, Spec: spec}
}

// Sweep runs every series cycle-accurately at each partition count of its
// MAC budget: the body behind Fig. 11, Fig. 12 and the sweet spot. For
// each count, BestSpec picks the square-ish grid and the analytically best
// per-partition array shape, no dimension below minDim; counts with no
// such shape are skipped, and a series left with none is refused, by layer
// and budget, before any point runs. The points, series by series, then
// go through RunPoints, named by Series.Point; results come back per
// series, in partition-count order.
func Sweep(series []Series, partCounts []int64, base config.Config, minDim int64, opt Options) ([][]Result, error) {
	var points []Point
	var owner []int // each point's series
	for i, s := range series {
		if err := s.Layer.Validate(); err != nil {
			return nil, fmt.Errorf("partition: %s: %w", s.Layer.Name, err)
		}
		m := dataflow.Map(s.Layer, base.Dataflow)
		feasible := len(points)
		for _, p := range partCounts {
			if spec, ok := BestSpec(m, s.MACs, p, minDim); ok {
				points = append(points, s.Point(spec))
				owner = append(owner, i)
			}
		}
		if len(points) == feasible {
			return nil, fmt.Errorf("partition: %s: no feasible partitioning of %d MACs (minDim %d)",
				s.Layer.Name, s.MACs, minDim)
		}
	}
	results, err := RunPoints(points, base, opt)
	if err != nil {
		return nil, err
	}
	out := make([][]Result, len(series))
	for i, r := range results {
		out[owner[i]] = append(out[owner[i]], r)
	}
	return out, nil
}

// BestSpec picks, for a fixed number of partitions, the grid and per-array
// shape that minimize the analytical runtime of the mapping.
func BestSpec(m dataflow.Mapping, totalMACs, parts, minDim int64) (Spec, bool) {
	if parts < 1 || totalMACs%parts != 0 {
		return Spec{}, false
	}
	perPart := totalMACs / parts
	shapes := analytical.Shapes(perPart, minDim)
	if len(shapes) == 0 {
		return Spec{}, false
	}
	var best Spec
	var bestCycles int64 = -1
	for _, pr := range analytical.Divisors(parts) {
		grid := analytical.Partitioning{Pr: pr, Pc: parts / pr}
		for _, s := range shapes {
			cycles := analytical.ScaleOutRuntime(m, grid.Pr, grid.Pc, s.R, s.C)
			if bestCycles < 0 || cycles < bestCycles {
				bestCycles = cycles
				best = Spec{Parts: grid, Shape: s}
			}
		}
	}
	return best, true
}

// sramShare divides a KiB budget among p partitions, at least 1 KiB each.
func sramShare(totalKB int, p int64) int {
	share := int(int64(totalKB) / p)
	if share < 1 {
		share = 1
	}
	return share
}
