// Package cycleacct is the simulator's cycle-accounting ledger: every
// simulated cycle of a run is binned into an exhaustive category taxonomy
// (MAC-active streaming, fold ramp/drain, DRAM-bandwidth stalls,
// vector-unit passes, partition skew wait) under the hard invariant
//
//	sum(bins) == TotalCycles
//
// enforced per layer, per graph node and per partition. The paper's
// methodology is ultimately this accounting exercise — Eqs. 1-6 explain
// runtime as compute plus fill/drain plus memory stalls — and the ledger
// closes the books: nothing is attributed twice and nothing is left
// unattributed.
//
// Producers (the core pipeline, the partition runner) fill Ledgers from
// observational taps — systolic fold placements, closed-form vector pass
// shapes, the bounded-link stall analyzer — so attribution never perturbs
// simulation output. Consumers roll ledgers into a Report: the manifest's
// cycle_accounting block, a pprof profile over simulated time (pprof.go)
// and per-layer roofline rows (roofline.go).
//
// The taxonomy is exact by construction. A systolic fold of duration
// 2R + C + T - 2 (Eq. 3) decomposes into a 2R-2 cycle ramp (the skewed
// wavefront filling the array), T steady-state MAC-active cycles and a
// C-cycle drain (outputs shifting off the edge); under edge trimming the
// mapped extents replace R and C. Vector nodes decompose into their
// passes, each ceil(elems/lanes) cycles. A bounded DRAM link appends its
// stall cycles; a scale-out grid appends each partition's wait on the
// slowest partition. There is no SRAM stall category: the modeled SRAMs
// are double-buffered and stall-free (Sec. II-C); a banked-SRAM conflict
// model would add real bins with the cycles it computes.
package cycleacct

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Category names. Every simulated cycle lands in exactly one.
const (
	// MACActive is the steady-state streaming portion of a fold: the T
	// cycles per fold during which the wavefront performs useful MACs.
	MACActive = "mac_active"
	// FoldRamp is the array fill: the 2R-2 cycle skew before a fold's
	// steady state (2*rows-2 under edge trimming).
	FoldRamp = "fold_ramp"
	// FoldDrain is the output shift-out at the end of a fold (C cycles,
	// or the mapped columns under edge trimming).
	FoldDrain = "fold_drain"
	// DRAMBwStall is the extra runtime a bounded DRAM link inflicts
	// (trace.StallAnalyzer over both DRAM streams).
	DRAMBwStall = "dram_bw_stall"
	// VectorPass is a vector-unit pass (softmax/layernorm/eltwise).
	VectorPass = "vector_pass"
	// PartitionSkew is a scale-out partition's idle wait on the slowest
	// partition of its layer (the imbalance of Eq. 5's uneven slices).
	PartitionSkew = "partition_skew_wait"
)

// Phase names group bins for the pprof stack level between op-kind and
// category. Vector bins use their pass label ("max", "exp-sum", ...) as
// the phase.
const (
	// PhaseArray marks cycles attributed on the systolic array.
	PhaseArray = "array"
	// PhaseLink marks cycles attributed to the DRAM link.
	PhaseLink = "link"
	// PhaseGrid marks cycles attributed to the scale-out grid.
	PhaseGrid = "grid"
)

// Categories returns the full taxonomy in canonical order.
func Categories() []string {
	return []string{
		MACActive, FoldRamp, FoldDrain,
		DRAMBwStall, VectorPass, PartitionSkew,
	}
}

// KnownCategory reports whether name is part of the taxonomy.
func KnownCategory(name string) bool {
	for _, c := range Categories() {
		if c == name {
			return true
		}
	}
	return false
}

// Bin is one (phase, category) cell of a ledger.
type Bin struct {
	// Phase groups the bin (PhaseArray, PhaseLink, PhaseGrid, or a
	// vector pass label).
	Phase string `json:"phase"`
	// Category is the taxonomy bin.
	Category string `json:"category"`
	// Cycles attributed to this cell.
	Cycles int64 `json:"cycles"`
}

// Ledger is one unit's cycle account: a total and the bins that must sum
// to it. The zero value is an empty ledger ready for Add.
type Ledger struct {
	// Total is the unit's simulated runtime in cycles.
	Total int64 `json:"total_cycles"`
	// Bins partition Total; Check enforces the sum invariant.
	Bins []Bin `json:"bins"`
}

// Add merges cycles into the (phase, category) bin, creating it on first
// use. Zero and negative additions are dropped — absent work is absent
// from the account. Bin order is first-Add order, which producers keep
// deterministic.
func (l *Ledger) Add(phase, category string, cycles int64) {
	if cycles <= 0 {
		return
	}
	for i := range l.Bins {
		if l.Bins[i].Phase == phase && l.Bins[i].Category == category {
			l.Bins[i].Cycles += cycles
			return
		}
	}
	l.Bins = append(l.Bins, Bin{Phase: phase, Category: category, Cycles: cycles})
}

// Sum returns the cycles accounted across all bins.
func (l Ledger) Sum() int64 {
	var n int64
	for _, b := range l.Bins {
		n += b.Cycles
	}
	return n
}

// Category returns the cycles attributed to one category across phases.
func (l Ledger) Category(name string) int64 {
	var n int64
	for _, b := range l.Bins {
		if b.Category == name {
			n += b.Cycles
		}
	}
	return n
}

// Check enforces the sum invariant: every cycle of Total is attributed
// to exactly one bin, every bin names a taxonomy category, and no bin is
// negative.
func (l Ledger) Check() error {
	for _, b := range l.Bins {
		if !KnownCategory(b.Category) {
			return fmt.Errorf("cycleacct: unknown category %q", b.Category)
		}
		if b.Cycles < 0 {
			return fmt.Errorf("cycleacct: negative bin %s/%s = %d", b.Phase, b.Category, b.Cycles)
		}
	}
	if s := l.Sum(); s != l.Total {
		return fmt.Errorf("cycleacct: bins sum to %d, total is %d (unattributed %d)",
			s, l.Total, l.Total-s)
	}
	return nil
}

// Merge folds another ledger into this one: totals add and same-celled
// bins coalesce. Used by sweep rows and scale-out aggregation.
func (l *Ledger) Merge(o Ledger) {
	l.Total += o.Total
	for _, b := range o.Bins {
		l.Add(b.Phase, b.Category, b.Cycles)
	}
}

// Clone returns a deep copy.
func (l Ledger) Clone() Ledger {
	c := l
	c.Bins = append([]Bin(nil), l.Bins...)
	return c
}

// PartitionLedger is one scale-out partition's account. Its Total is the
// layer's full runtime: the partition's own fold cycles plus its skew
// wait on the slowest partition, so every partition's books close on the
// same clock.
type PartitionLedger struct {
	// Pi and Pj locate the partition in the grid.
	Pi int64 `json:"pi"`
	Pj int64 `json:"pj"`
	Ledger
}

// NodeLedger is one layer or operator-graph node's account. For scale-out
// nodes, Partitions carries the per-partition detail and the node ledger
// is their aggregate — Total counts provisioned array-cycles (partitions
// x runtime), not wall cycles.
type NodeLedger struct {
	// Index is the node's position in execution order.
	Index int `json:"index"`
	// Name is the node's display name.
	Name string `json:"name"`
	// Op is the operator kind ("conv", "softmax", ...).
	Op string `json:"op,omitempty"`
	Ledger
	// Partitions holds per-partition ledgers for scale-out nodes.
	Partitions []PartitionLedger `json:"partitions,omitempty"`
}

// Check enforces the invariant on the node and every partition, and —
// when partitions are present — that the node total equals the sum of
// partition totals.
func (n NodeLedger) Check() error {
	if err := n.Ledger.Check(); err != nil {
		return fmt.Errorf("node %d %q: %w", n.Index, n.Name, err)
	}
	if len(n.Partitions) == 0 {
		return nil
	}
	var sum int64
	for _, p := range n.Partitions {
		if err := p.Check(); err != nil {
			return fmt.Errorf("node %d %q partition (%d,%d): %w", n.Index, n.Name, p.Pi, p.Pj, err)
		}
		sum += p.Total
	}
	if sum != n.Total {
		return fmt.Errorf("node %d %q: partition totals sum to %d, node total is %d",
			n.Index, n.Name, sum, n.Total)
	}
	return nil
}

// Report is a whole run's cycle account: the node ledgers, their
// category rollup, and optional roofline rows. It is the manifest's
// cycle_accounting block.
type Report struct {
	// TotalCycles sums the node totals. For single-array runs this is
	// the serialized runtime including stalls; for scale-out nodes it
	// counts provisioned array-cycles.
	TotalCycles int64 `json:"total_cycles"`
	// Categories rolls every bin up by category across all nodes.
	Categories map[string]int64 `json:"categories"`
	// Nodes holds one ledger per layer/node in execution order.
	Nodes []NodeLedger `json:"nodes"`
	// Roofline holds per-layer operational-intensity rows when the
	// producer computed them.
	Roofline []RooflineRow `json:"roofline,omitempty"`
}

// NewReport checks every node ledger and rolls them into a Report. Node
// bins already aggregate their partitions' bins, so the rollup reads
// node bins only — partitions carry detail, never extra cycles.
func NewReport(nodes []NodeLedger) (*Report, error) {
	r := &Report{Categories: map[string]int64{}, Nodes: nodes}
	for _, n := range nodes {
		if err := n.Check(); err != nil {
			return nil, err
		}
		r.TotalCycles += n.Total
		for _, b := range n.Bins {
			r.Categories[b.Category] += b.Cycles
		}
	}
	return r, nil
}

// Check re-validates a report (e.g. one decoded from a manifest): every
// node invariant plus the rollup consistency.
func (r *Report) Check() error {
	var total int64
	cats := map[string]int64{}
	for _, n := range r.Nodes {
		if err := n.Check(); err != nil {
			return err
		}
		total += n.Total
		for _, b := range n.Bins {
			cats[b.Category] += b.Cycles
		}
	}
	if total != r.TotalCycles {
		return fmt.Errorf("cycleacct: node totals sum to %d, report total is %d", total, r.TotalCycles)
	}
	for c, v := range cats {
		if r.Categories[c] != v {
			return fmt.Errorf("cycleacct: category %s rollup is %d, bins sum to %d", c, r.Categories[c], v)
		}
	}
	for c, v := range r.Categories {
		if v != cats[c] {
			return fmt.Errorf("cycleacct: category %s rollup is %d, bins sum to %d", c, v, cats[c])
		}
	}
	return nil
}

// WriteLedgers renders the report as a text table: one row per node with
// a column for every category that appears anywhere in the run, then a
// TOTAL row. Partition detail is summarized in the node rows.
func (r *Report) WriteLedgers(w io.Writer) error {
	var cats []string
	for _, c := range Categories() {
		if r.Categories[c] != 0 {
			cats = append(cats, c)
		}
	}
	// Categories outside the rollup (never populated) are omitted; an
	// empty run still renders its header.
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "node\top\tcycles")
	for _, c := range cats {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, n := range r.Nodes {
		fmt.Fprintf(tw, "%s\t%s\t%d", n.Name, n.Op, n.Total)
		for _, c := range cats {
			fmt.Fprintf(tw, "\t%d", n.Category(c))
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "TOTAL\t\t%d", r.TotalCycles)
	for _, c := range cats {
		fmt.Fprintf(tw, "\t%d", r.Categories[c])
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

// CategoryFractions returns each category's share of the report total,
// sorted descending (ties by name), for ranked summaries.
func (r *Report) CategoryFractions() []CategoryShare {
	out := make([]CategoryShare, 0, len(r.Categories))
	for c, v := range r.Categories {
		s := CategoryShare{Category: c, Cycles: v}
		if r.TotalCycles > 0 {
			s.Fraction = float64(v) / float64(r.TotalCycles)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Category < out[j].Category
	})
	return out
}

// CategoryShare is one category's rollup with its share of the total.
type CategoryShare struct {
	Category string
	Cycles   int64
	Fraction float64
}
