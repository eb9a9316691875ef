// Package scalesim is a Go implementation of SCALE-Sim — the SystoliC
// AcceLErator SIMulator of Samajdar et al. (ISPASS 2020) — together with
// the paper's analytical runtime model and its scale-up versus scale-out
// methodology.
//
// The package is a façade over the internal implementation:
//
//   - Config / Topology describe the hardware (Table I) and the workload
//     (Table II); both parse the original tool's file formats and both can
//     be built programmatically. Built-in workloads include ResNet50 and
//     the paper's Table IV language-model GEMMs.
//   - Simulator runs layers cycle-accurately: a stall-free systolic array
//     (OS, WS or IS dataflow) in front of three double-buffered SRAMs,
//     producing SRAM/DRAM traces, bandwidth profiles and energy estimates.
//     Layers execute concurrently on a bounded worker pool
//     (Options.Workers) with results joined in layer order, so output is
//     identical to a sequential run; custom per-layer trace sinks attach
//     through Options.Sinks factories.
//   - The analytical entry points (Map, Runtime, BestScaleUp,
//     BestScaleOut) implement the paper's runtime model (Table III,
//     Eqs. 4-6) for fast design-space exploration.
//   - SweetSpot sweeps one layer cycle-accurately across partitioned
//     (multi-array) systems of a MAC budget, reproducing the paper's
//     runtime/bandwidth/energy trade-off study; a whole network on a grid
//     is a job (scalesim -parts, the daemon's "parts") whose manifest is
//     rolled up by the same function as a Simulator's (Simulator.Manifest).
//
// A minimal session:
//
//	cfg := scalesim.NewConfig()                  // 32x32, OS, 512/512/256 KiB
//	topo, _ := scalesim.BuiltInTopology("TinyNet")
//	sim, _ := scalesim.NewSimulator(cfg, scalesim.Options{})
//	run, _ := sim.Simulate(topo)
//	fmt.Println(run.TotalCycles, run.AvgBandwidth())
package scalesim

import (
	"io"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/dataflow"
	"scalesim/internal/dram"
	"scalesim/internal/energy"
	"scalesim/internal/engine"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/cycleacct"
	"scalesim/internal/obsv/timeline"
	"scalesim/internal/partition"
	"scalesim/internal/simcache"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
	"scalesim/internal/vector"
)

// Core configuration and workload types.
type (
	// Config is the hardware description (Table I).
	Config = config.Config
	// Dataflow selects OS, WS or IS mapping.
	Dataflow = config.Dataflow
	// Layer is one network layer (one topology CSV row, Table II).
	Layer = topology.Layer
	// Topology is an ordered list of layers.
	Topology = topology.Topology
	// OpKind names an operator kind (conv/GEMM, attention score,
	// attention value, softmax, layernorm, element-wise).
	OpKind = topology.OpKind
	// GraphNode is one operator-graph node: a kind, a layer shape and
	// named input edges.
	GraphNode = topology.Node
	// Graph is an operator dependency DAG.
	Graph = topology.Graph
	// BERTConfig parameterizes a built-in BERT encoder block graph.
	BERTConfig = topology.BERTConfig
)

// Operator kinds.
const (
	OpConv           = topology.OpConv
	OpAttentionScore = topology.OpAttentionScore
	OpAttentionValue = topology.OpAttentionValue
	OpSoftmax        = topology.OpSoftmax
	OpLayerNorm      = topology.OpLayerNorm
	OpElementwise    = topology.OpElementwise
)

// Dataflow values.
const (
	OutputStationary = config.OutputStationary
	WeightStationary = config.WeightStationary
	InputStationary  = config.InputStationary
)

// Simulation types.
type (
	// Simulator executes topologies cycle-accurately.
	Simulator = core.Simulator
	// Options tunes tracing, DRAM-timing and energy modeling.
	Options = core.Options
	// LayerResult is one layer's simulation outcome.
	LayerResult = core.LayerResult
	// VectorResult is a vector-unit node's simulation outcome
	// (LayerResult.Vector for softmax/layernorm/element-wise nodes).
	VectorResult = vector.Result
	// RunResult aggregates a topology run.
	RunResult = core.RunResult
	// DRAMConfig parameterizes the DRAM timing substrate, a DDR3-class
	// single-channel device.
	DRAMConfig = dram.Config
	// EnergyModel holds per-event energy costs.
	EnergyModel = energy.Model
	// EnergyBreakdown is an energy result split by component.
	EnergyBreakdown = energy.Breakdown
)

// Execution-engine types: per-layer trace sinks plug into the simulator
// through factories, so each concurrent layer gets its own consumers.
type (
	// TraceStream names one of the five per-layer trace streams.
	TraceStream = engine.Stream
	// TraceConsumer receives (cycle, addresses) trace events.
	TraceConsumer = trace.Consumer
	// TraceConsumerFunc adapts a function to a TraceConsumer.
	TraceConsumerFunc = trace.ConsumerFunc
	// TraceRun is a strided address segment: Count addresses starting at
	// Base with constant Stride. The simulator generates and consumes
	// per-cycle batches in this compressed form.
	TraceRun = trace.Run
	// TraceRunConsumer receives trace events in run form; consumers that
	// implement it alongside TraceConsumer are fed runs directly, without
	// batch materialization.
	TraceRunConsumer = trace.RunConsumer
	// SinkJob identifies the run and layer a sink factory is building for.
	SinkJob = engine.Job
	// SinkSet collects one layer's trace consumers and finish/close hooks.
	SinkSet = engine.SinkSet
	// SinkFactory builds one layer's sinks; supply via Options.Sinks.
	SinkFactory = engine.Factory
	// SinkRegistry is an ordered list of sink factories.
	SinkRegistry = engine.Registry
)

// Trace stream names, as SinkSet.Attach targets and trace file suffixes.
const (
	StreamSRAMReadIfmap  = engine.SRAMReadIfmap
	StreamSRAMReadFilter = engine.SRAMReadFilter
	StreamSRAMWriteOfmap = engine.SRAMWriteOfmap
	StreamDRAMRead       = engine.DRAMRead
	StreamDRAMWrite      = engine.DRAMWrite
)

// CSVTraceSink returns a factory that writes each layer's selected streams
// (default: all) as CSV files under dir — the factory behind
// Options.TraceDir, exposed for custom registries.
func CSVTraceSink(dir string, streams ...TraceStream) SinkFactory {
	return engine.CSVTrace(dir, streams...)
}

// Analytical-model types.
type (
	// Mapping is a workload's spatio-temporal shape (S_R, S_C, T).
	Mapping = dataflow.Mapping
	// Shape is a systolic array's dimensions.
	Shape = analytical.Shape
	// Partitioning is a scale-out grid.
	Partitioning = analytical.Partitioning
	// SystemConfig is one point of the scaling design space.
	SystemConfig = analytical.SystemConfig
	// Eval is an analytically evaluated configuration.
	Eval = analytical.Eval
	// ScaleOutSpec describes a partitioned system for cycle-accurate runs.
	ScaleOutSpec = partition.Spec
	// ScaleOutResult is a cycle-accurate scale-out run summary.
	ScaleOutResult = partition.Result
	// ScaleOutOptions tunes cycle-accurate scale-out runs.
	ScaleOutOptions = partition.Options
)

// NewConfig returns the default configuration (32x32 array, OS dataflow,
// 512/512/256 KiB SRAM).
func NewConfig() Config { return config.New() }

// LoadConfig reads a SCALE-Sim configuration file.
func LoadConfig(path string) (Config, error) { return config.Load(path) }

// LoadTopology reads a topology CSV file.
func LoadTopology(path string) (Topology, error) { return topology.LoadCSV(path) }

// BuiltInTopology returns a bundled workload: "Resnet50",
// "LanguageModels", "AlexNet", "GoogLeNet", "YoloTiny" or "TinyNet".
func BuiltInTopology(name string) (Topology, bool) { return topology.BuiltIn(name) }

// BuiltInTopologyNames lists the names BuiltInTopology accepts.
func BuiltInTopologyNames() []string { return topology.BuiltInNames() }

// GEMMLayer expresses an M x K by K x N matrix multiplication as a layer.
func GEMMLayer(name string, m, k, n int) Layer { return topology.FromGEMM(name, m, k, n) }

// ChainGraph lifts a flat topology into a linear-chain operator graph:
// every layer becomes a conv node depending on its predecessor.
func ChainGraph(t Topology) Graph { return topology.ChainGraph(t) }

// LoadGraph reads an operator-graph JSON file (scalesim.graph/v1).
func LoadGraph(path string) (Graph, error) { return topology.LoadGraph(path) }

// WriteGraph writes a graph as indented scalesim.graph/v1 JSON.
func WriteGraph(w io.Writer, g Graph) error { return topology.WriteGraph(w, g) }

// BuiltInGraph returns a bundled operator graph by name — the native
// graphs from BuiltInGraphNames, or any BuiltInTopology name lifted
// through ChainGraph.
func BuiltInGraph(name string) (Graph, error) { return topology.BuiltInGraph(name) }

// BuiltInGraphNames lists the native operator-graph workloads
// ("BERTTiny", "BERTBase").
func BuiltInGraphNames() []string { return topology.BuiltInGraphNames() }

// BERTEncoder builds one transformer encoder block (QKV projections,
// per-head attention, softmax, residuals, layernorms, FFN) as an
// operator graph.
func BERTEncoder(name string, c BERTConfig) (Graph, error) { return topology.BERTEncoder(name, c) }

// GoogLeNetCells returns the parallel-branch structure of GoogLeNet's nine
// inception modules, for cell-level schedulers (package pipeline).
func GoogLeNetCells() map[string][][]string { return topology.GoogLeNetCellBranches() }

// Observability types: attach a Metrics recorder through Options.Obs (or
// the ScaleOutOptions / sweep-spec equivalents) to collect phase timings,
// engine spans and runtime stats, then snapshot them as a Manifest.
// Instrumentation is purely additive — results and traces are
// byte-identical with or without a recorder, and a nil recorder costs
// nothing.
type (
	// Metrics records counters, gauges, timing histograms, phases and
	// engine spans for one run.
	Metrics = obsv.Recorder
	// Manifest is the machine-readable summary of an instrumented run.
	Manifest = obsv.Manifest
	// Progress reports live per-unit completion to a writer.
	Progress = obsv.Progress
)

// Cycle-accounting types: every simulated cycle of a run attributed to an
// exhaustive taxonomy (MAC-active, fold ramp/drain, DRAM-bandwidth stall,
// vector passes, partition skew), with sum(bins) == total enforced per
// unit. A run's report is its manifest's CycleAccounting block
// (Simulator.Manifest fails rather than publish open books); it renders
// as ledgers, a pprof profile over simulated cycles
// (CycleReport.WritePprof) or per-layer roofline rows.
type (
	// CycleLedger is one unit's cycle account (total + bins).
	CycleLedger = cycleacct.Ledger
	// CycleBin is one (phase, category) cell of a ledger.
	CycleBin = cycleacct.Bin
	// CycleReport is a whole run's account plus its roofline rows.
	CycleReport = cycleacct.Report
)

// Timeline types: attach a TimelineWriter through Options.Timeline (or
// the ScaleOutOptions / sweep-spec equivalents) to export the run as
// Chrome Trace Event JSON — per-layer and per-fold spans, stall
// intervals and windowed bandwidth counters on the simulated-cycle axis,
// plus the engine's scheduler spans on the host wall-clock axis. View the
// output in Perfetto (ui.perfetto.dev) or chrome://tracing.
type (
	// TimelineWriter streams Chrome Trace Event JSON.
	TimelineWriter = timeline.Writer
	// TimelineOptions tunes the export (counter window).
	TimelineOptions = timeline.Options
)

// NewTimeline wraps w in a timeline writer for Options.Timeline. Call
// Close after the run to terminate the JSON array and flush.
func NewTimeline(w io.Writer, opt TimelineOptions) *TimelineWriter { return timeline.New(w, opt) }

// NewMetrics returns an enabled metrics recorder for Options.Obs.
func NewMetrics() *Metrics { return obsv.NewRecorder() }

// NewProgress returns a progress reporter for Options.Progress; lines are
// prefixed with label.
func NewProgress(w io.Writer, label string) *Progress { return obsv.NewProgress(w, label) }

// NewSimulator builds a cycle-accurate simulator for the configuration.
func NewSimulator(cfg Config, opt Options) (*Simulator, error) { return core.New(cfg, opt) }

// Cache memoizes pure per-layer compute results under canonical keys
// (config hash x layer shape x memory/DRAM bounds). Attach one through
// Options.Cache (or the ScaleOutOptions / sweep-spec equivalents): layers
// whose identity was already simulated replay their recorded cycles,
// traffic, stall and DRAM statistics, byte-identical to a live run. One
// cache may be shared across simulators, sweeps and goroutines. Any
// option demanding a live per-layer consumer (trace files, timelines,
// custom sinks) bypasses the cache automatically.
type Cache = simcache.Cache

// CacheStats snapshots a cache's hit/miss counters.
type CacheStats = simcache.Stats

// NewCache returns an empty in-memory result cache.
func NewCache() *Cache { return simcache.New() }

// DDR3 returns the default DRAM timing parameters.
func DDR3() DRAMConfig { return dram.DDR3() }

// Map computes a layer's (S_R, S_C, T) under a dataflow (Table III).
func Map(l Layer, df Dataflow) Mapping { return dataflow.Map(l, df) }

// Runtime is Eq. 4: the stall-free runtime of a mapping on an R x C array.
func Runtime(m Mapping, r, c int64) int64 { return analytical.Runtime(m, r, c) }

// BestScaleUp finds the fastest monolithic array shape for a MAC budget.
func BestScaleUp(m Mapping, macs, minDim int64) (Eval, bool) {
	return analytical.BestScaleUp(m, macs, minDim)
}

// BestScaleOut finds the fastest partitioned configuration for a MAC budget.
func BestScaleOut(m Mapping, macs, minDim, maxParts int64) (Eval, bool) {
	return analytical.BestScaleOut(m, macs, minDim, maxParts)
}

// SweetSpot picks the fastest partitioning of a MAC budget whose average
// DRAM bandwidth demand fits the given budget (bytes/cycle) — the paper's
// "sweet spot" at the intersection of the runtime and bandwidth curves. The
// full sweep is returned alongside for reporting, also when no point fits.
func SweetSpot(l Layer, base Config, totalMACs int64, partCounts []int64, minDim int64, bwBudget float64, opt ScaleOutOptions) (ScaleOutResult, []ScaleOutResult, error) {
	sweep, err := partition.Sweep([]partition.Series{{Name: l.Name, Layer: l, MACs: totalMACs}},
		partCounts, base, minDim, opt)
	if err != nil {
		return ScaleOutResult{}, nil, err
	}
	pick, err := partition.SweetSpot(sweep[0], bwBudget)
	return pick, sweep[0], err
}
