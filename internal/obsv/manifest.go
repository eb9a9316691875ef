package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"scalesim/internal/obsv/cycleacct"
)

// Schema identifies the manifest document format, the only one Validate
// accepts: v4 is v1 plus the optional timeline summary (v2), run
// provenance (v3) and the cycle_accounting block (per-node ledgers,
// category rollup, roofline rows).
const Schema = "scalesim.manifest/v4"

// TopologyInfo identifies the workload a manifest describes. Nodes and
// Edges are set for operator-graph runs: the node count (equal to Layers,
// which counts the serialized execution) and the dependency-edge count.
type TopologyInfo struct {
	Name   string `json:"name"`
	Layers int    `json:"layers"`
	Nodes  int    `json:"nodes,omitempty"`
	Edges  int    `json:"edges,omitempty"`
}

// LayerMetrics is one unit of work in the manifest: a topology layer for
// a simulator run, a grid point for a sweep. Simulation results (cycles,
// utilization, stalls) come from the run result; WallSeconds comes from
// the recorder when one was attached.
type LayerMetrics struct {
	Index       int     `json:"index"`
	Name        string  `json:"name"`
	Op          string  `json:"op,omitempty"`
	Cycles      int64   `json:"cycles"`
	StallCycles int64   `json:"stall_cycles,omitempty"`
	StartCycle  int64   `json:"start_cycle,omitempty"`
	MACs        int64   `json:"macs,omitempty"`
	VectorOps   int64   `json:"vector_ops,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`
	DRAMReads   int64   `json:"dram_reads,omitempty"`
	DRAMWrites  int64   `json:"dram_writes,omitempty"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`
}

// RuntimeStats captures the Go runtime's view of the run. When the
// manifest comes from a Recorder the allocation and GC fields are deltas
// over the recorded interval; without one they are process totals.
//
// The process fields are the operating system's view, process totals read
// once as a Recorder's manifest is built, so an uninstrumented run reads
// nothing: the peak resident set (VmHWM), page faults and CPU times. They
// are left out where the system does not report them.
type RuntimeStats struct {
	GoVersion          string  `json:"go_version"`
	NumCPU             int     `json:"num_cpu"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	AllocBytes         uint64  `json:"alloc_bytes"`
	TotalAllocBytes    uint64  `json:"total_alloc_bytes"`
	Mallocs            uint64  `json:"mallocs"`
	NumGC              uint32  `json:"num_gc"`
	GCPauseSeconds     float64 `json:"gc_pause_total_seconds"`
	GoroutineHighWater int     `json:"goroutine_high_water"`

	PeakRSSBytes  uint64  `json:"peak_rss_bytes,omitempty"`
	MinorFaults   int64   `json:"minor_faults,omitempty"`
	MajorFaults   int64   `json:"major_faults,omitempty"`
	UserSeconds   float64 `json:"user_seconds,omitempty"`
	SystemSeconds float64 `json:"system_seconds,omitempty"`
}

// LayerStall is one layer's share of bounded-link stalling in the
// timeline summary.
type LayerStall struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	// StallFraction is stall cycles over stalled runtime (compute +
	// stall), in [0, 1).
	StallFraction float64 `json:"stall_fraction"`
}

// TimelineSummary condenses an exported timeline into the manifest: how
// big the export was, its sampling granularity, the peak windowed demand
// per counter track, and which layers stalled under the bounded link.
type TimelineSummary struct {
	Events            int64              `json:"events"`
	WindowCycles      int64              `json:"window_cycles"`
	PeakWordsPerCycle map[string]float64 `json:"peak_words_per_cycle,omitempty"`
	LayerStalls       []LayerStall       `json:"layer_stalls,omitempty"`
}

// CacheStats summarizes the result cache attached to a run: how many
// layer simulations were replayed (hits) versus computed (misses), and
// how many distinct entries the cache held afterwards. The counters are
// the cache's lifetime totals — for a cache created for one run they are
// that run's totals; a cache shared across runs accumulates.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int64 `json:"entries,omitempty"`
}

// HitRate returns hits over lookups, zero when nothing was looked up.
func (c CacheStats) HitRate() float64 {
	if total := c.Hits + c.Misses; total > 0 {
		return float64(c.Hits) / float64(total)
	}
	return 0
}

// SearchStats summarizes a tiered design-space search: how much of the
// grid the analytical tier-1 pre-filter cut, how fast it scored, what the
// cycle-accurate tier-2 refinement covered, and the measured
// analytical-vs-exact runtime error over the refined band — the evidence
// that the ε cut was safe, not assumed.
type SearchStats struct {
	// GridPoints is the full design-space size (candidates x SRAM
	// provisions x workloads); Candidates the tier-1 shape x dataflow
	// universe; Scored the candidate x workload scores computed.
	GridPoints int64 `json:"grid_points"`
	Candidates int64 `json:"candidates"`
	Scored     int64 `json:"scored"`
	// BandCandidates / CutCandidates split the candidates into the ε-band
	// survivors and the analytically pruned remainder.
	BandCandidates int64 `json:"band_candidates"`
	CutCandidates  int64 `json:"cut_candidates"`
	// BandPoints is the tier-2 universe (band x SRAMs x workloads);
	// RefinedPoints how many of them this run simulated (its shard).
	BandPoints    int64 `json:"band_points"`
	RefinedPoints int64 `json:"refined_points"`
	// Epsilon is the band width; Shard/Shards the deterministic split this
	// run refined (0/1 for an unsharded run).
	Epsilon float64 `json:"epsilon"`
	Shard   int     `json:"shard"`
	Shards  int     `json:"shards"`
	// Tier1Seconds and Tier1PointsPerSec report the pre-filter's cost and
	// throughput (scored points per second).
	Tier1Seconds      float64 `json:"tier1_seconds,omitempty"`
	Tier1PointsPerSec float64 `json:"tier1_points_per_sec,omitempty"`
	// MaxRelErr / MeanRelErr are |analytical - measured| / measured over
	// the refined rows; exactly zero for stall-free configurations.
	MaxRelErr  float64 `json:"max_rel_err"`
	MeanRelErr float64 `json:"mean_rel_err"`
}

// Provenance records where a run came from, so manifests stored in a
// shared run registry stay attributable: the invoking command line, the
// module identity and VCS revision baked into the binary
// (runtime/debug.ReadBuildInfo), and the host that ran it.
type Provenance struct {
	CommandLine []string `json:"command_line,omitempty"`
	Module      string   `json:"module,omitempty"`
	Version     string   `json:"version,omitempty"`
	VCSRevision string   `json:"vcs_revision,omitempty"`
	VCSTime     string   `json:"vcs_time,omitempty"`
	VCSModified bool     `json:"vcs_modified,omitempty"`
	Hostname    string   `json:"hostname,omitempty"`
}

// CollectProvenance captures the current process's provenance. Build
// info is absent in unlinked test binaries and hostname lookup can fail;
// both degrade to empty fields, never to errors.
func CollectProvenance() *Provenance {
	p := &Provenance{CommandLine: append([]string(nil), os.Args...)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		p.Module = bi.Main.Path
		p.Version = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.VCSRevision = s.Value
			case "vcs.time":
				p.VCSTime = s.Value
			case "vcs.modified":
				p.VCSModified = s.Value == "true"
			}
		}
	}
	if host, err := os.Hostname(); err == nil {
		p.Hostname = host
	}
	return p
}

// Manifest is the machine-readable record of one run: identity (tool,
// run name, config hash, topology, provenance), results (per-layer
// cycles, utilizations, stalls), and cost (phase wall-clock timings,
// engine span aggregates, runtime stats, metric snapshots).
type Manifest struct {
	Schema     string           `json:"schema"`
	Tool       string           `json:"tool,omitempty"`
	Run        string           `json:"run,omitempty"`
	Provenance *Provenance      `json:"provenance,omitempty"`
	Created    string           `json:"created"`
	ConfigHash string           `json:"config_hash,omitempty"`
	Workers    int              `json:"workers,omitempty"`
	Topology   *TopologyInfo    `json:"topology,omitempty"`
	Layers     []LayerMetrics   `json:"layers,omitempty"`
	Phases     []PhaseTiming    `json:"phases,omitempty"`
	Spans      *SpanStats       `json:"spans,omitempty"`
	Runtime    RuntimeStats     `json:"runtime"`
	Metrics    *MetricsSnapshot `json:"metrics,omitempty"`
	Cache      *CacheStats      `json:"cache,omitempty"`
	Search     *SearchStats     `json:"search,omitempty"`
	Timeline   *TimelineSummary `json:"timeline,omitempty"`
	// CycleAccounting is the run's closed cycle ledger: every simulated
	// cycle binned into the cycleacct taxonomy per node (and per
	// partition for scale-out runs), with the category rollup and
	// optional roofline rows. sum(bins) == total is enforced at build
	// time and re-checkable via its Check method.
	CycleAccounting *cycleacct.Report `json:"cycle_accounting,omitempty"`
	WallSeconds     float64           `json:"wall_seconds,omitempty"`
}

// Manifest snapshots the recorder into a manifest document. Valid on a
// nil recorder too: the result then carries only the schema, timestamp
// and absolute runtime stats, so callers can emit a manifest without
// having paid for instrumentation.
func (r *Recorder) Manifest() *Manifest {
	m := &Manifest{
		Schema:     Schema,
		Created:    time.Now().UTC().Format(time.RFC3339),
		Provenance: CollectProvenance(),
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.Runtime = RuntimeStats{
		GoVersion:          runtime.Version(),
		NumCPU:             runtime.NumCPU(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		AllocBytes:         mem.Alloc,
		TotalAllocBytes:    mem.TotalAlloc,
		Mallocs:            mem.Mallocs,
		NumGC:              mem.NumGC,
		GCPauseSeconds:     time.Duration(mem.PauseTotalNs).Seconds(),
		GoroutineHighWater: runtime.NumGoroutine(),
	}
	if r == nil {
		return m
	}
	readProcess(&m.Runtime)
	r.sample()
	m.Runtime.TotalAllocBytes = mem.TotalAlloc - r.startMem.TotalAlloc
	m.Runtime.Mallocs = mem.Mallocs - r.startMem.Mallocs
	m.Runtime.NumGC = mem.NumGC - r.startMem.NumGC
	m.Runtime.GCPauseSeconds = time.Duration(mem.PauseTotalNs - r.startMem.PauseTotalNs).Seconds()
	m.WallSeconds = time.Since(r.start).Seconds()

	r.mu.Lock()
	m.Phases = append([]PhaseTiming(nil), r.phases...)
	m.Runtime.GoroutineHighWater = r.hwm
	r.mu.Unlock()

	if st := r.spans.Stats(); st.Jobs > 0 {
		m.Spans = &st
	}
	if snap := r.reg.Snapshot(); !snap.Empty() {
		m.Metrics = &snap
	}
	return m
}

// Unit is what a run's producer knows about one unit of work — a layer,
// graph node, grid point or scale-out layer — and all it states: Record
// does the rest.
type Unit struct {
	// Entry is the manifest entry; Record sets its Index and WallSeconds.
	Entry LayerMetrics
	// Ledger is the unit's closed cycle account and Partitions its
	// per-partition detail (scale-out only). A nil Ledger is an open book.
	Ledger     *cycleacct.Ledger
	Partitions []cycleacct.PartitionLedger
	// Roofline is the unit's roofline row, when its producer has one.
	Roofline *cycleacct.RooflineRow
}

// Record rolls a run's units into its manifest: the recorder's snapshot
// plus one entry and one cycle node per unit, numbered in order, with each
// node named after its entry and each entry's wall time taken from the
// recorder (zero on a nil one). The checked cycle_accounting block carries
// the units' roofline rows; there is none when there are no units. Books
// that do not close — a missing ledger, bins that miss the total — are an
// error, never a manifest without its account.
func (r *Recorder) Record(units []Unit) (*Manifest, error) {
	m := r.Manifest()
	if len(units) == 0 {
		return m, nil
	}
	m.Layers = make([]LayerMetrics, len(units))
	nodes := make([]cycleacct.NodeLedger, len(units))
	var roofline []cycleacct.RooflineRow
	for i, u := range units {
		e := u.Entry
		if u.Ledger == nil {
			return nil, fmt.Errorf("obsv: cycle accounting: unit %d %q has no ledger", i, e.Name)
		}
		e.Index, e.WallSeconds = i, r.LayerSeconds(i)
		m.Layers[i] = e
		nodes[i] = cycleacct.NodeLedger{Index: i, Name: e.Name, Op: e.Op,
			Ledger: *u.Ledger, Partitions: u.Partitions}
		if u.Roofline != nil {
			roofline = append(roofline, *u.Roofline)
		}
	}
	ca, err := cycleacct.NewReport(nodes)
	if err != nil {
		return nil, fmt.Errorf("obsv: cycle accounting: %w", err)
	}
	ca.Roofline = roofline
	m.CycleAccounting = ca
	return m, nil
}

// WriteJSON writes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("obsv: encoding manifest: %w", err)
	}
	return nil
}

// ParseManifest decodes and validates a manifest document.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obsv: parsing manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Validate checks the fields every manifest must carry.
func (m *Manifest) Validate() error {
	switch {
	case m.Schema != Schema:
		return fmt.Errorf("obsv: manifest schema %q, want %q", m.Schema, Schema)
	case m.Created == "":
		return fmt.Errorf("obsv: manifest missing created timestamp")
	case m.Runtime.GoVersion == "" || m.Runtime.NumCPU <= 0 || m.Runtime.GOMAXPROCS <= 0:
		return fmt.Errorf("obsv: manifest missing runtime stats")
	}
	for i, l := range m.Layers {
		if l.Name == "" {
			return fmt.Errorf("obsv: manifest layer %d missing name", i)
		}
	}
	if m.CycleAccounting != nil {
		if err := m.CycleAccounting.Check(); err != nil {
			return fmt.Errorf("obsv: manifest cycle accounting: %w", err)
		}
	}
	return nil
}
