package main

// This file is the one list of names the benchmark speaks: workloads,
// end-to-end metrics and per-layer metrics. BENCHMARK.json repeats it for
// the driver and bench_test.go pins the two against each other.

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
	// daemon marks the workloads that drive scalesimd over HTTP; the rest
	// execute a CLI binary once per op.
	daemon bool
	// gated marks the workloads BENCHMARK.json lists, which the driver runs
	// twenty times each and holds to the bounds. The other four run by
	// name and under "go run ./bench" like the rest, but two sets of ten
	// runs of the same code disagreed on them by more than the widest
	// bound the driver allows (README.md has the numbers).
	gated bool
}

var workloads = []workloadDef{
	{Name: "resnet50_cold", Why: "scalesim -net Resnet50 with no live trace consumer: the cold path, memory ~75% and systolic ~18% of CPU", gated: true},
	{Name: "bertbase_dram_cold", Why: "BERTBase operator graph with the DDR3 model and a 4 words/cycle link: dram.Model, stall analyzer and DAG scheduling carry the run", gated: true},
	{Name: "tableiv_traced", Why: "Table IV GEMMs clamped to 512 with -traces: live CSV consumers, cache bypassed, 234 MB of trace per op"},
	{Name: "fig12_scaleout", Why: "scalestudy fig12 on CB2a_3: analytical search then cycle-accurate partition.Run up to 256 partitions, the second execution path"},
	{Name: "daemon_warm_sat", Why: "scalesimd closed loop on one connection over a prewarmed set of six specs: all cache hits, so job, simcache.Get, report render and HTTP are the whole cost", daemon: true},
	{Name: "daemon_open_mix", Why: "scalesimd open loop at 150 req/s, 95% warm and 5% novel BERTTiny specs: cache writes and evictions beside reads, cold jobs sharing two workers with warm ones", daemon: true},
}

// metricDef is one metric's name, unit and good direction; Bound is the
// share of the baseline by which an end-to-end metric may worsen.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the gated metrics. Each is defined on all six workloads
// and is never zero.
//
// On the CLI workloads a run is a series of process executions, and the
// timings are quartiles over them on the good side, not medians: this
// 2-vCPU sandbox shares its memory system with other tenants, for a minute
// at a time every op runs 25-40% slower, and interference only ever adds
// time. Over ten runs of the same code the lower quartile of ResNet50's op
// wall spread by 3% where the median spread by 7% and the mean by 9%. On
// the daemon workloads the run is one sample (see runDaemon).
//
// The bounds are as wide as the driver allows, for the same reason: when
// a slow spell covers whole runs no statistic of one run escapes it, and
// ten-run spreads of 13% were seen on every CPU-bound workload (README.md
// has the table). A tighter claim needs paired runs of parent and change,
// not a tighter number here.
var endToEnd = []metricDef{
	{"wall_op_s", "s", lower, 0.25},
	{"cpu_op_s", "s", lower, 0.25},
	{"sim_cycles_per_s", "cycles/s", higher, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// perLayer are the traced run's metrics, grouped by the module they
// measure. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"gen.lag_p50_s", "s", lower, 0},
	{"gen.lag_p99_s", "s", lower, 0},
	{"gen.sent", "count", higher, 0},
	{"gen.conns", "count", higher, 0},

	{"cli.exec_overhead_s", "s", lower, 0},

	{"topology.load_s", "s", lower, 0},
	{"topology.nodes", "count", lower, 0},
	{"dataflow.map_s", "s", lower, 0},
	{"dataflow.map_calls", "count", lower, 0},

	{"systolic.self_s", "s", lower, 0},
	{"systolic.run_calls", "count", lower, 0},
	{"systolic.cycles", "cycles", lower, 0},
	{"systolic.folds", "count", lower, 0},
	{"systolic.sink_calls", "count", lower, 0},
	{"systolic.runs_out", "count", lower, 0},
	{"systolic.words_out", "words", lower, 0},
	{"systolic.ns_per_cycle", "ns", lower, 0},

	{"memory.setup_s", "s", lower, 0},
	{"memory.self_s", "s", lower, 0},
	{"memory.sram_words_in", "words", lower, 0},
	{"memory.dram_words_out", "words", lower, 0},
	{"memory.miss_ratio", "ratio", lower, 0},
	{"memory.region_fallbacks", "count", lower, 0},
	{"memory.ns_per_sram_word", "ns", lower, 0},

	{"trace.csv_self_s", "s", lower, 0},
	{"trace.csv_bytes", "B", lower, 0},
	{"trace.csv_mb_per_s", "MB/s", higher, 0},
	{"trace.stall_self_s", "s", lower, 0},
	{"trace.stall_cycles", "cycles", lower, 0},

	{"dram.self_s", "s", lower, 0},
	{"dram.requests", "count", lower, 0},
	{"dram.row_hit_ratio", "ratio", higher, 0},
	{"dram.ns_per_request", "ns", lower, 0},

	{"vector.self_s", "s", lower, 0},
	{"vector.run_calls", "count", lower, 0},
	{"vector.cycles", "cycles", lower, 0},

	{"engine.queue_wait_s", "s", lower, 0},
	{"engine.exec_s", "s", lower, 0},
	{"engine.join_s", "s", lower, 0},
	{"engine.parallel_eff", "ratio", higher, 0},

	{"core.stage_map_s", "s", lower, 0},
	{"core.stage_sinks_s", "s", lower, 0},
	{"core.stage_compute_s", "s", lower, 0},
	{"core.stage_analyze_s", "s", lower, 0},
	{"core.layers", "count", lower, 0},
	{"core.alloc_mb_per_op", "MiB", lower, 0},
	{"core.allocs_per_op", "count", lower, 0},
	{"core.coverage_ratio", "ratio", higher, 0},

	{"simcache.mem_get_ns", "ns", lower, 0},
	{"simcache.disk_get_us", "us", lower, 0},
	{"simcache.put_us", "us", lower, 0},
	{"simcache.hit_ratio", "ratio", higher, 0},
	{"simcache.entries", "count", lower, 0},
	{"simcache.disk_entries", "count", lower, 0},
	{"simcache.disk_mb", "MiB", lower, 0},
	{"simcache.evicted", "count", lower, 0},

	{"report.render_s", "s", lower, 0},
	{"report.bytes", "B", lower, 0},
	{"obsv.manifest_s", "s", lower, 0},
	{"obsv.manifest_bytes", "B", lower, 0},

	{"job.spec_decode_us", "us", lower, 0},
	{"job.run_warm_us", "us", lower, 0},
	{"job.wall_mean_s", "s", lower, 0},
	{"job.submitted", "count", higher, 0},
	{"job.rejected", "count", lower, 0},
	{"job.failed", "count", lower, 0},

	{"analytical.search_s", "s", lower, 0},
	{"analytical.search_calls", "count", lower, 0},
	{"partition.run_s", "s", lower, 0},
	{"partition.run_calls", "count", lower, 0},
	{"partition.parts_total", "count", lower, 0},
	{"partition.cycles_total", "cycles", lower, 0},
	{"partition.ns_per_part_cycle", "ns", lower, 0},
	{"experiments.fig12_s", "s", lower, 0},

	{"scalesimd.lat_p50_s", "s", lower, 0},
	{"scalesimd.lat_p99_s", "s", lower, 0},
	{"scalesimd.lat_warm_p50_s", "s", lower, 0},
	{"scalesimd.lat_cold_p50_s", "s", lower, 0},
	{"scalesimd.sat_rps", "1/s", higher, 0},
	{"scalesimd.post_p50_s", "s", lower, 0},
	{"scalesimd.poll_p50_s", "s", lower, 0},
	{"scalesimd.polls_per_req", "count", lower, 0},
	{"scalesimd.result_p50_s", "s", lower, 0},
	{"scalesimd.result_bytes", "B", lower, 0},
	{"scalesimd.http_overhead_s", "s", lower, 0},
	{"scalesimd.late_share", "ratio", lower, 0},
	{"scalesimd.start_s", "s", lower, 0},
	{"scalesimd.prewarm_s", "s", lower, 0},

	{"bench.trace_overhead_ratio", "ratio", lower, 0},
	{"bench.failed_share", "ratio", lower, 0},
	{"bench.ref_rel_err_max", "ratio", lower, 0},
}

// value is one measured metric: the number, its unit and, for sampled
// timings, how many samples stand behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]value

// set records a metric; the unit comes from the tables above so a name
// can never be printed with two units.
func (m metricSet) set(name string, v float64) { m.setN(name, v, 0) }

func (m metricSet) setN(name string, v float64, n int) {
	m[name] = value{Value: v, Unit: unitOf(name), N: n}
}

func (m metricSet) add(name string, v float64) {
	m.set(name, m[name].Value+v)
}

var units = func() map[string]string {
	u := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		u[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		u[d.Name] = d.Unit
	}
	return u
}()

func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not in the tables of metrics.go")
	}
	return u
}

// complete fills every metric of defs that the run did not measure with
// an explicit zero, so each run prints the full list.
func (m metricSet) complete(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m.set(d.Name, 0)
		}
	}
}
