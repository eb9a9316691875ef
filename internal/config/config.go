// Package config defines the hardware configuration consumed by the
// simulator and a parser for the INI-style configuration files used by the
// original SCALE-Sim tool.
//
// A configuration captures Table I of the paper: the systolic array
// dimensions, the three double-buffered SRAM sizes (IFMAP, filter, OFMAP),
// address offsets for the three operand regions, the dataflow, and the path
// to the topology file.
package config

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Dataflow selects the mapping strategy of the systolic array.
type Dataflow int

const (
	// OutputStationary keeps each output pixel's accumulation pinned to one
	// PE ("os" in config files).
	OutputStationary Dataflow = iota
	// WeightStationary pre-fills filter elements into the array ("ws").
	WeightStationary
	// InputStationary pre-fills IFMAP elements into the array ("is").
	InputStationary
)

// ParseDataflow converts the textual config value ("os", "ws", "is") to a
// Dataflow. Matching is case-insensitive.
func ParseDataflow(s string) (Dataflow, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "os":
		return OutputStationary, nil
	case "ws":
		return WeightStationary, nil
	case "is":
		return InputStationary, nil
	}
	return 0, fmt.Errorf("config: unknown dataflow %q (legal values: os, ws, is)", s)
}

// ParseInts parses s as exactly n integers separated by sep: the one
// parser behind "RxC" shapes (arrays and partition grids, either case) and
// SRAM triples ("i,f,o" on the CLI and the wire, "i/f/o" on a sweep axis).
// A missing, extra or non-numeric field fails — "8x8x3" is not 8x8.
func ParseInts(s, sep string, n int) ([]int, error) {
	fields := strings.Split(strings.ToLower(s), sep)
	out := make([]int, 0, n)
	for _, f := range fields {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			break
		}
		out = append(out, v)
	}
	if len(fields) != n || len(out) != n {
		return nil, fmt.Errorf("config: invalid shape %q (want %d integers separated by %q)", s, n, sep)
	}
	return out, nil
}

// SplitList splits a comma-separated list, trimming blanks and dropping
// empty items.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// ParseIntList parses s as a comma-separated list of at least one integer
// — MAC budgets, partition counts, array sizes, buffer capacities: the one
// parser behind every list-valued flag. Blanks around and between items
// are skipped; any other item that is not exactly an integer fails —
// "64x" is not 64.
func ParseIntList(s string) ([]int64, error) {
	var out []int64
	for _, part := range SplitList(s) {
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("config: invalid number %q in list %q", part, s)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("config: empty number list %q", s)
	}
	return out, nil
}

// String returns the config-file spelling of the dataflow.
func (d Dataflow) String() string {
	switch d {
	case OutputStationary:
		return "os"
	case WeightStationary:
		return "ws"
	case InputStationary:
		return "is"
	}
	return fmt.Sprintf("Dataflow(%d)", int(d))
}

// Dataflows lists all supported dataflows in the order the paper introduces
// them.
var Dataflows = []Dataflow{OutputStationary, WeightStationary, InputStationary}

// Config holds every architectural parameter of a single simulated
// accelerator instance (Table I of the paper).
type Config struct {
	// RunName tags output files and reports.
	RunName string

	// ArrayHeight is the number of rows (R) of the MAC systolic array.
	ArrayHeight int
	// ArrayWidth is the number of columns (C) of the MAC systolic array.
	ArrayWidth int

	// IfmapSRAMKB is the size of the working-set SRAM for IFMAP in KiB.
	IfmapSRAMKB int
	// FilterSRAMKB is the size of the working-set SRAM for filters in KiB.
	FilterSRAMKB int
	// OfmapSRAMKB is the size of the working-set SRAM for OFMAP in KiB.
	OfmapSRAMKB int

	// IfmapOffset is added to every generated IFMAP address.
	IfmapOffset int64
	// FilterOffset is added to every generated filter address.
	FilterOffset int64
	// OfmapOffset is added to every generated OFMAP address.
	OfmapOffset int64

	// Dataflow selects the mapping strategy for the run.
	Dataflow Dataflow

	// TopologyPath is the path to the topology CSV file, when the run is
	// driven from files rather than in-memory workloads.
	TopologyPath string

	// WordBytes is the size of one operand element in bytes. The original
	// tool addresses whole words; one word per address is the default.
	WordBytes int

	// EdgeTrim, when set, charges the final partial fold only for the rows
	// and columns it actually uses (2r + c + T - 2) instead of the full
	// array dimensions of Eq. 3. Off by default to match the paper's
	// analytical model exactly.
	EdgeTrim bool

	// VectorLanes is the vector unit's width in words per cycle, used by
	// the non-matmul operators of operator-graph workloads (softmax,
	// layernorm, element-wise). Zero defaults to ArrayWidth — one lane per
	// array column, the common SIMD-alongside-systolic provisioning.
	VectorLanes int
}

// Default values applied by New and by the file parser for absent keys.
const (
	DefaultArrayHeight  = 32
	DefaultArrayWidth   = 32
	DefaultIfmapSRAMKB  = 512
	DefaultFilterSRAMKB = 512
	DefaultOfmapSRAMKB  = 256
	DefaultIfmapOffset  = 0
	DefaultFilterOffset = 10_000_000
	DefaultOfmapOffset  = 20_000_000
	DefaultWordBytes    = 1
)

// New returns a Config populated with the defaults the paper's evaluation
// uses (32x32 array, 512/512/256 KiB SRAM, output stationary).
func New() Config {
	return Config{
		RunName:      "scale_sim",
		ArrayHeight:  DefaultArrayHeight,
		ArrayWidth:   DefaultArrayWidth,
		IfmapSRAMKB:  DefaultIfmapSRAMKB,
		FilterSRAMKB: DefaultFilterSRAMKB,
		OfmapSRAMKB:  DefaultOfmapSRAMKB,
		IfmapOffset:  DefaultIfmapOffset,
		FilterOffset: DefaultFilterOffset,
		OfmapOffset:  DefaultOfmapOffset,
		Dataflow:     OutputStationary,
		WordBytes:    DefaultWordBytes,
	}
}

// WithArray returns a copy of c with the array dimensions replaced.
func (c Config) WithArray(rows, cols int) Config {
	c.ArrayHeight = rows
	c.ArrayWidth = cols
	return c
}

// WithDataflow returns a copy of c with the dataflow replaced.
func (c Config) WithDataflow(d Dataflow) Config {
	c.Dataflow = d
	return c
}

// WithSRAM returns a copy of c with the three SRAM sizes (KiB) replaced.
func (c Config) WithSRAM(ifmapKB, filterKB, ofmapKB int) Config {
	c.IfmapSRAMKB = ifmapKB
	c.FilterSRAMKB = filterKB
	c.OfmapSRAMKB = ofmapKB
	return c
}

// MACs returns the total number of multiply-accumulate units in the array.
func (c Config) MACs() int { return c.ArrayHeight * c.ArrayWidth }

// Lanes returns the effective vector-unit width: VectorLanes, or
// ArrayWidth when unset.
func (c Config) Lanes() int {
	if c.VectorLanes > 0 {
		return c.VectorLanes
	}
	return c.ArrayWidth
}

// IfmapSRAMWords returns the IFMAP SRAM capacity in elements.
func (c Config) IfmapSRAMWords() int64 {
	return int64(c.IfmapSRAMKB) * 1024 / int64(c.WordBytes)
}

// FilterSRAMWords returns the filter SRAM capacity in elements.
func (c Config) FilterSRAMWords() int64 {
	return int64(c.FilterSRAMKB) * 1024 / int64(c.WordBytes)
}

// OfmapSRAMWords returns the OFMAP SRAM capacity in elements.
func (c Config) OfmapSRAMWords() int64 {
	return int64(c.OfmapSRAMKB) * 1024 / int64(c.WordBytes)
}

// CanonicalKey serializes every simulation-relevant parameter in a fixed
// field order: the array shape, the three SRAM sizes, the three address
// offsets, the dataflow, the word size and the edge-trim mode. Labels
// that do not influence simulation results — RunName and TopologyPath —
// are excluded, so two configurations that simulate identically share one
// key regardless of how their files were written: key order in the INI
// source, explicit-versus-defaulted fields, and naming all collapse to
// the same canonical string. This is the identity the result cache and
// the run manifest group runs by.
func (c Config) CanonicalKey() string {
	return fmt.Sprintf("a%dx%d;s%d/%d/%d;o%d/%d/%d;df=%s;wb%d;et=%t;vl%d",
		c.ArrayHeight, c.ArrayWidth,
		c.IfmapSRAMKB, c.FilterSRAMKB, c.OfmapSRAMKB,
		c.IfmapOffset, c.FilterOffset, c.OfmapOffset,
		c.Dataflow, c.WordBytes, c.EdgeTrim, c.Lanes())
}

// Hash returns "sha256:<hex>" over the canonical key: a stable identifier
// for the simulated architecture. Equal configurations always hash equal,
// even when parsed from differently-ordered or differently-defaulted
// files; see CanonicalKey for what participates.
func (c Config) Hash() string {
	sum := sha256.Sum256([]byte(c.CanonicalKey()))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Validate reports the first structural problem with the configuration, or
// nil if it can be simulated.
func (c Config) Validate() error {
	switch {
	case c.ArrayHeight < 1:
		return fmt.Errorf("config: ArrayHeight must be >= 1, got %d", c.ArrayHeight)
	case c.ArrayWidth < 1:
		return fmt.Errorf("config: ArrayWidth must be >= 1, got %d", c.ArrayWidth)
	case c.IfmapSRAMKB < 1:
		return fmt.Errorf("config: IfmapSRAMSz must be >= 1 KB, got %d", c.IfmapSRAMKB)
	case c.FilterSRAMKB < 1:
		return fmt.Errorf("config: FilterSRAMSz must be >= 1 KB, got %d", c.FilterSRAMKB)
	case c.OfmapSRAMKB < 1:
		return fmt.Errorf("config: OfmapSRAMSz must be >= 1 KB, got %d", c.OfmapSRAMKB)
	case c.WordBytes < 1:
		return fmt.Errorf("config: WordBytes must be >= 1, got %d", c.WordBytes)
	case c.VectorLanes < 0:
		return fmt.Errorf("config: VectorLanes must be >= 0, got %d", c.VectorLanes)
	case c.IfmapOffset < 0 || c.FilterOffset < 0 || c.OfmapOffset < 0:
		return fmt.Errorf("config: address offsets must be non-negative")
	case c.Dataflow != OutputStationary && c.Dataflow != WeightStationary && c.Dataflow != InputStationary:
		return fmt.Errorf("config: unknown dataflow %d", int(c.Dataflow))
	}
	if overlap := c.offsetOverlap(); overlap != "" {
		return fmt.Errorf("config: operand address regions %s overlap", overlap)
	}
	return nil
}

// offsetOverlap detects equal region base offsets, the only overlap the
// simulator can detect without knowing the workload extent.
func (c Config) offsetOverlap() string {
	switch {
	case c.IfmapOffset == c.FilterOffset:
		return "ifmap/filter"
	case c.IfmapOffset == c.OfmapOffset:
		return "ifmap/ofmap"
	case c.FilterOffset == c.OfmapOffset:
		return "filter/ofmap"
	}
	return ""
}
