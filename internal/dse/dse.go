// Package dse is the two-tier design-space explorer: the paper's own
// methodology (Sec. IV, Eqs. 1-6) industrialized into a search that scales
// to grids orders of magnitude beyond what cycle-accurate simulation alone
// can cover.
//
// Tier 1 scores the full (array shape x dataflow x SRAM x workload) grid
// with the first-order analytical model — pure arithmetic over
// precomputed per-workload mappings, parallelized over the shared engine
// worker pool, allocation-flat per point — and keeps only the ε-band:
// every configuration within a factor (1+ε) of each workload's pareto
// front on (runtime, MACs). Tier 2 refines the surviving band as one
// sweep job on the job.Runner the caller supplies — the same
// orchestration path scalesim, scalesweep and scalesimd run on, so the
// refinement shares the Runner's result cache, admission queue and
// cancellation, and its manifest is the sweep job's — and measures the
// analytical model's actual relative runtime error over the band, so the
// ε cut is validated rather than assumed — the model is provably exact
// only for stall-free runs.
//
// The refinement stage shards across processes or machines with zero
// coordination: a deterministic content-keyed split (batch.ShardOf)
// assigns every band point to exactly one of n shards, each shard writes
// a mergeable part file and its own content-addressed cache directory,
// and Merge folds part files back into a result byte-identical to an
// unsharded run. A shard that owns no band point is a valid, empty shard.
package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"scalesim/internal/analytical"
	"scalesim/internal/batch"
	"scalesim/internal/config"
	"scalesim/internal/dataflow"
	"scalesim/internal/engine"
	"scalesim/internal/job"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/log"
	"scalesim/internal/topology"
)

// Options tunes one exploration of a grid. The grid's Parallel bounds
// both tiers; the result cache is the Runner's; recorder and progress
// writer arrive in the job.Live handed to Explore.
type Options struct {
	// Epsilon is the pareto-band width: 0 keeps exactly the per-workload
	// fronts, 0.1 keeps everything within 10% of them, +Inf keeps every
	// candidate. NaN and negative widths are refused.
	Epsilon float64
	// Tier1Only stops after the band cut: scores and statistics are
	// computed, nothing is simulated.
	Tier1Only bool
	// Shard/Shards select which deterministic slice of the band this run
	// refines; zero values mean the whole band.
	Shard, Shards int
}

// check refuses a search the tiers cannot run. The workloads must be flat
// layer topologies with layers (the analytical tier models the systolic
// path only; operator graphs with vector-unit nodes are out of scope
// here), the array axis present and positive, ε a band width and the
// shard one of its shards.
func check(grid batch.Spec, opt Options) error {
	if len(grid.PointList) > 0 {
		return fmt.Errorf("dse: a search expands its axes; it takes no point list")
	}
	if len(grid.Workloads) == 0 {
		return fmt.Errorf("dse: no workloads")
	}
	for _, w := range grid.Workloads {
		switch {
		case !w.Flat:
			return fmt.Errorf("dse: workload %q is an operator graph; tier 1 scores flat nets only (flat built-ins: %s)",
				w.Name, strings.Join(topology.BuiltInNames(), ", "))
		case len(w.Nodes) == 0:
			return fmt.Errorf("dse: workload %q has no layers", w.Name)
		}
	}
	if len(grid.Arrays) == 0 {
		return fmt.Errorf("dse: no array shapes")
	}
	for _, a := range grid.Arrays {
		if a[0] < 1 || a[1] < 1 {
			return fmt.Errorf("dse: invalid array shape %dx%d", a[0], a[1])
		}
	}
	if math.IsNaN(opt.Epsilon) || opt.Epsilon < 0 {
		return fmt.Errorf("dse: eps %g is not a band width (want >= 0; +Inf keeps every candidate)", opt.Epsilon)
	}
	if opt.Shards < 0 || opt.Shard < 0 || opt.Shard >= max(opt.Shards, 1) {
		return fmt.Errorf("dse: shard %d/%d out of range (want 0 <= i < n; 0/0 is the whole band)", opt.Shard, opt.Shards)
	}
	return nil
}

// fingerprint identifies the search over the defaulted grid
// deterministically: base configuration, every axis and the band width.
// Shards of one search share a fingerprint; Merge refuses parts whose
// fingerprints differ.
func fingerprint(grid batch.Spec, eps float64) string {
	var b strings.Builder
	b.WriteString(grid.Base.CanonicalKey())
	fmt.Fprintf(&b, "|eps=%g|", eps)
	for _, a := range grid.Arrays {
		fmt.Fprintf(&b, "a%dx%d;", a[0], a[1])
	}
	for _, df := range grid.Dataflows {
		b.WriteString(df.String())
		b.WriteByte(';')
	}
	for _, sr := range grid.SRAMs {
		fmt.Fprintf(&b, "s%d/%d/%d;", sr[0], sr[1], sr[2])
	}
	for _, w := range grid.Workloads {
		b.WriteString(w.Name)
		b.WriteByte('=')
		for _, n := range w.Nodes {
			b.WriteString(n.Layer.Key())
			b.WriteByte(',')
		}
		b.WriteByte(';')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// Row is one refined design point: the cycle-accurate batch row joined
// with its tier-1 prediction and the resulting model error.
type Row struct {
	// Index is the point's position in the deterministic band order —
	// the global coordinate sharded runs are merged by.
	Index int `json:"index"`
	// Hash is the point's content address (batch.PointHash): merge
	// deduplicates and cross-checks rows by it.
	Hash string `json:"hash"`
	// AnalyticalCycles is the tier-1 stall-free runtime prediction.
	AnalyticalCycles int64 `json:"analytical_cycles"`
	// RelErr is |analytical - measured| / measured.
	RelErr float64 `json:"rel_err"`
	// Batch is the measured cycle-accurate row.
	Batch batch.Row `json:"row"`
}

// Result is one exploration (or merged set of shards).
type Result struct {
	// Fingerprint identifies the search; BaseHash the base configuration.
	Fingerprint string
	BaseHash    string
	// Band is the tier-2 universe in deterministic order: every band
	// point with its workload, axes and analytical score. Shards all
	// compute the identical band; Rows covers the shard's slice of it.
	Band []batch.Point
	// Rows holds the refined points, ascending by Index.
	Rows []Row
	// Stats summarizes the cut, the tier-1 throughput and the measured
	// model error.
	Stats obsv.SearchStats
	// Manifest is the refinement's sweep manifest under the search's
	// identity (see identify).
	Manifest *obsv.Manifest
}

// tier1Job is one chunk of candidate scoring: workload w, dataflow di,
// shape range [lo, hi).
type tier1Job struct {
	w, di, lo, hi int
}

// mapEntry is one distinct layer mapping and its repeat count within a
// workload — ResNet-style nets collapse many layers onto few mappings.
type mapEntry struct {
	m     dataflow.Mapping
	count int64
}

// tier1ChunkSize bounds one scoring job so wide grids spread across the
// pool while small ones stay single-job.
const tier1ChunkSize = 8192

// Explore runs the two-tier search over the grid: its Arrays, Dataflows
// and SRAMs axes (the latter two defaulted as a sweep's are) crossed with
// its flat Workloads, Parallel bounding both tiers. The analytical model
// is SRAM-blind, so the SRAMs axis multiplies only the refinement, never
// the tier-1 score count. Tier 1 and the band
// cut run inline, recorded on live.Obs; tier 2 is one sweep job ("dse")
// on r, so the Runner's cache memoizes it, live.Progress follows it,
// Runner.Cancel stops it (context.Canceled) and a closed Runner refuses
// it (job.ErrClosed). A tier-1-only search, and a shard that owns no
// band point, submit nothing.
func Explore(grid batch.Spec, opt Options, r *job.Runner, live job.Live) (*Result, error) {
	rec := live.Obs
	if err := check(grid, opt); err != nil {
		return nil, err
	}
	grid = grid.WithDefaults()
	shapes := make([]analytical.Shape, len(grid.Arrays))
	for i, a := range grid.Arrays {
		shapes[i] = analytical.Shape{R: int64(a[0]), C: int64(a[1])}
	}

	A, D, S, W := len(shapes), len(grid.Dataflows), len(grid.SRAMs), len(grid.Workloads)
	res := &Result{
		Fingerprint: fingerprint(grid, opt.Epsilon),
		BaseHash:    grid.Base.Hash(),
		Stats: obsv.SearchStats{
			GridPoints: int64(A) * int64(D) * int64(S) * int64(W),
			Candidates: int64(A) * int64(D),
			Scored:     int64(A) * int64(D) * int64(W),
			Epsilon:    opt.Epsilon,
			Shard:      opt.Shard,
			Shards:     max(opt.Shards, 1),
		},
	}

	// Tier 1: analytical scoring of every (shape, dataflow) candidate per
	// workload. Mappings are precomputed and collapsed by layer shape key,
	// so the inner loop is pure arithmetic into a preallocated slice.
	endTier1 := rec.Phase("dse.tier1")
	t0 := time.Now()
	mappings := make([][]mapEntry, W*D)
	for w, g := range grid.Workloads {
		for di, df := range grid.Dataflows {
			mappings[w*D+di] = collapseMappings(g, df)
		}
	}
	scores := make([]int64, W*D*A)
	jobs := make([]tier1Job, 0, W*D)
	for w := 0; w < W; w++ {
		for di := 0; di < D; di++ {
			for lo := 0; lo < A; lo += tier1ChunkSize {
				jobs = append(jobs, tier1Job{w: w, di: di, lo: lo, hi: min(lo+tier1ChunkSize, A)})
			}
		}
	}
	if _, err := engine.RunObserved(grid.Parallel, len(jobs), rec.SpanSink(), func(i int) (struct{}, error) {
		j := jobs[i]
		dst := scores[(j.w*D+j.di)*A+j.lo : (j.w*D+j.di)*A+j.hi]
		for _, e := range mappings[j.w*D+j.di] {
			analytical.AccumRuntimes(dst, e.m, e.count, shapes[j.lo:j.hi])
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}
	tier1 := time.Since(t0)
	res.Stats.Tier1Seconds = tier1.Seconds()
	if s := tier1.Seconds(); s > 0 {
		res.Stats.Tier1PointsPerSec = float64(res.Stats.Scored) / s
	}
	endTier1()

	// Band cut: union of the per-workload ε-bands over candidates.
	endBand := rec.Phase("dse.band")
	kept := make([]bool, A*D)
	pts := make([]analytical.BandPoint, A*D)
	var mask []bool
	for w := 0; w < W; w++ {
		for ai, shape := range shapes {
			for di := 0; di < D; di++ {
				pts[ai*D+di] = analytical.BandPoint{
					MACs:   shape.MACs(),
					Cycles: scores[(w*D+di)*A+ai],
				}
			}
		}
		mask = analytical.EpsilonBand(pts, opt.Epsilon, mask)
		for ci, k := range mask {
			kept[ci] = kept[ci] || k
		}
	}
	for _, k := range kept {
		if k {
			res.Stats.BandCandidates++
		}
	}
	res.Stats.CutCandidates = res.Stats.Candidates - res.Stats.BandCandidates

	// Expand the surviving candidates over the SRAM and workload axes
	// into the deterministic band order every shard agrees on.
	analyticalCycles := make([]int64, 0, int(res.Stats.BandCandidates)*S*W)
	for w, g := range grid.Workloads {
		for ai, array := range grid.Arrays {
			for di, df := range grid.Dataflows {
				if !kept[ai*D+di] {
					continue
				}
				for _, sr := range grid.SRAMs {
					res.Band = append(res.Band, batch.Point{
						Array:    array,
						Dataflow: df,
						SRAM:     sr,
						Workload: g,
					})
					analyticalCycles = append(analyticalCycles, scores[(w*D+di)*A+ai])
				}
			}
		}
	}
	res.Stats.BandPoints = int64(len(res.Band))
	endBand()
	log.Default().Info("band cut", "subsystem", "dse",
		"grid", res.Stats.GridPoints, "candidates", res.Stats.Candidates,
		"band", res.Stats.BandCandidates, "cut", res.Stats.CutCandidates,
		"tier1_points_per_sec", res.Stats.Tier1PointsPerSec)

	// Shard filter: deterministic content-keyed split of the band.
	var mine []int
	if !opt.Tier1Only {
		for i, p := range res.Band {
			if opt.Shards < 2 || batch.ShardOf(grid.Base, p, opt.Shards) == opt.Shard {
				mine = append(mine, i)
			}
		}
	}
	if len(mine) == 0 {
		res.Manifest = res.identify(rec.Manifest())
		return res, nil
	}

	// Tier 2: cycle-accurate refinement of this shard's band slice, as
	// one sweep job (its "batch.run" phase is the tier's wall time).
	points := make([]batch.Point, len(mine))
	for i, idx := range mine {
		points[i] = res.Band[idx]
	}
	sweep, err := r.RunSweep("dse", batch.Spec{Base: grid.Base, PointList: points, Parallel: grid.Parallel}, live)
	if err != nil {
		return nil, err
	}
	res.Rows = make([]Row, len(sweep.Rows))
	for i, measured := range sweep.Rows {
		idx := mine[i]
		a := analyticalCycles[idx]
		row := Row{
			Index:            idx,
			Hash:             batch.PointHash(grid.Base, res.Band[idx]),
			AnalyticalCycles: a,
			Batch:            measured,
		}
		if measured.TotalCycles > 0 {
			row.RelErr = math.Abs(float64(a)-float64(measured.TotalCycles)) / float64(measured.TotalCycles)
		}
		res.Rows[i] = row
	}
	res.Stats.RefinedPoints = int64(len(res.Rows))
	res.Stats.MaxRelErr, res.Stats.MeanRelErr = relErrBounds(res.Rows)
	res.Manifest = res.identify(sweep.Manifest)
	log.Default().Info("refine done", "subsystem", "dse",
		"refined", res.Stats.RefinedPoints, "band", res.Stats.BandPoints,
		"shard", res.Stats.Shard, "shards", res.Stats.Shards,
		"max_rel_err", res.Stats.MaxRelErr)
	return res, nil
}

// collapseMappings folds a flat workload's layers into distinct mappings
// with repeat counts under the dataflow.
func collapseMappings(g topology.Graph, df config.Dataflow) []mapEntry {
	index := make(map[string]int, len(g.Nodes))
	out := make([]mapEntry, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		l := n.Layer
		k := l.Key()
		if i, ok := index[k]; ok {
			out[i].count++
			continue
		}
		index[k] = len(out)
		out = append(out, mapEntry{m: dataflow.Map(l, df), count: 1})
	}
	return out
}

// relErrBounds returns the max and mean relative error over rows.
func relErrBounds(rows []Row) (maxErr, meanErr float64) {
	if len(rows) == 0 {
		return 0, 0
	}
	var sum float64
	for _, r := range rows {
		sum += r.RelErr
		if r.RelErr > maxErr {
			maxErr = r.RelErr
		}
	}
	return maxErr, sum / float64(len(rows))
}

// identify dresses a sweep manifest over res.Rows — the tier-2 job's, or
// batch.NewManifest of merged rows — in the search's identity: tool, run,
// base-configuration hash, search statistics, and every entry and cycle
// node renumbered from its position in the sweep to its band index.
func (res *Result) identify(m *obsv.Manifest) *obsv.Manifest {
	m.Tool = "scaledse"
	m.Run = "dse"
	m.ConfigHash = res.BaseHash
	stats := res.Stats
	m.Search = &stats
	for i, r := range res.Rows {
		m.Layers[i].Index = r.Index
		if m.CycleAccounting != nil {
			m.CycleAccounting.Nodes[i].Index = r.Index
		}
	}
	return m
}

// sortRows orders rows by their band index.
func sortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })
}
