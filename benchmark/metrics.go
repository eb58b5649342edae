package main

// Metric sources. A "sim" or "counter" value is a simulated quantity: a
// pure function of (code, seed) that must repeat exactly between two runs
// of one commit. "timed", "process", "profile" and "replay" values are
// host measurements and carry host noise.
const (
	srcTimed   = "timed"   // wall time / allocations of the timed rounds
	srcSim     = "sim"     // simulated outcome of the timed rounds' seeds
	srcProcess = "process" // the benchmark process itself (set-up, RSS, walls)
	srcProfile = "profile" // CPU-profile leaf samples attributed by package
	srcReplay  = "replay"  // fixed-corpus calls into one layer's public API
	srcCounter = "counter" // modelled-component counters of seed base
)

// metricDef names one reported metric. The two tables below are the
// single definition: BENCHMARK.json lists exactly these (pinned by the
// smoke test), a run emits exactly these, and -compare gates on Bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's value an end-to-end metric may
	// worsen by; zero for per-layer metrics, which are not gated.
	Bound  float64
	Source string
}

// exact reports whether two runs of one commit at one seed must agree
// bit for bit on the metric.
func (m metricDef) exact() bool { return m.Source == srcSim || m.Source == srcCounter }

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are reported for every workload with tracing and profiling
// off. host_* use the host clock; sim_* are simulated.
var endToEnd = []metricDef{
	{"host_ns_per_query", "ns", lower, 0.25, srcTimed},
	{"host_allocs_per_query", "allocs", lower, 0.10, srcTimed},
	{"sim_queries_per_vhour", "queries/vhour", higher, 0.25, srcSim},
	{"sim_success_share", "fraction", higher, 0.25, srcSim},
	{"setup_s", "s", lower, 0.25, srcProcess},
}

// perLayer are reported by the traced run. The layer is the part of the
// name before the first dot and is the module (package) name.
var perLayer = []metricDef{
	// Compile path: moves host_ns_per_query on the DSS and mix workloads,
	// must not move oltp-fleet (hit rate ~1).
	{"optimizer.cpu_share", "fraction", lower, 0, srcProfile},
	{"memo.cpu_share", "fraction", lower, 0, srcProfile},
	{"u64hash.cpu_share", "fraction", lower, 0, srcProfile},
	{"optimizer.optimize_ns", "ns", lower, 0, srcReplay},
	{"optimizer.compile_mb_per_stmt", "MiB", lower, 0, srcCounter},

	// Per-query engine path: moves host_* on oltp-fleet first.
	{"math_rand.cpu_share", "fraction", lower, 0, srcProfile},
	{"engine.cpu_share", "fraction", lower, 0, srcProfile},
	{"engine.submit_ns", "ns", lower, 0, srcReplay},
	{"executor.cpu_share", "fraction", lower, 0, srcProfile},
	{"plan.cpu_share", "fraction", lower, 0, srcProfile},
	{"storage.cpu_share", "fraction", lower, 0, srcProfile},

	// Per-query fixed costs: visible on oltp-fleet, invisible on DSS.
	{"sqlparser.cpu_share", "fraction", lower, 0, srcProfile},
	{"sqlparser.parse_ns", "ns", lower, 0, srcReplay},
	{"sqlparser.fingerprint_ns", "ns", lower, 0, srcReplay},
	{"plancache.cpu_share", "fraction", lower, 0, srcProfile},
	{"workload.cpu_share", "fraction", lower, 0, srcProfile},
	{"workload.next_ns", "ns", lower, 0, srcReplay},
	{"metrics.cpu_share", "fraction", lower, 0, srcProfile},
	{"metrics.record_ns", "ns", lower, 0, srcReplay},
	{"cluster.cpu_share", "fraction", lower, 0, srcProfile},

	// Event core: moves host_ns_per_query everywhere.
	{"vtime.cpu_share", "fraction", lower, 0, srcProfile},
	{"vtime.event_ns", "ns", lower, 0, srcReplay},
	{"vtime.host_ns_per_event", "ns", lower, 0, srcTimed},
	{"vtime.events_per_query", "events", lower, 0, srcCounter},
	{"go_runtime.cpu_share", "fraction", lower, 0, srcProfile},

	// The paper's mechanism: moves sim_* on dss-governed and
	// mix-nodeloss, zero / unchanged on dss-collapse and oltp-fleet.
	{"gateway.cpu_share", "fraction", lower, 0, srcProfile},
	{"core.cpu_share", "fraction", lower, 0, srcProfile},
	{"core.alloc_ns", "ns", lower, 0, srcReplay},
	{"broker.cpu_share", "fraction", lower, 0, srcProfile},
	{"broker.tick_ns", "ns", lower, 0, srcReplay},
	{"gateway.timeouts", "count", lower, 0, srcCounter},
	{"core.best_effort_plans", "count", lower, 0, srcCounter},
	{"core.brownout_ticks", "count", lower, 0, srcCounter},
	{"engine.compile_p50_vs", "vs", lower, 0, srcCounter},
	{"engine.compile_p90_vs", "vs", lower, 0, srcCounter},
	{"engine.active_compiles_avg", "count", lower, 0, srcCounter},

	// Memory model: moves sim_* on dss-collapse and dss-governed.
	{"mem.cpu_share", "fraction", lower, 0, srcProfile},
	{"mem.overcommit_avg", "ratio", lower, 0, srcCounter},
	{"mem.compile_avg_mb", "MiB", lower, 0, srcCounter},
	{"mem.exec_avg_mb", "MiB", lower, 0, srcCounter},
	{"mem.pool_avg_mb", "MiB", higher, 0, srcCounter},
	{"engine.compile_mem_mean_mb", "MiB", lower, 0, srcCounter},
	{"engine.compile_mem_max_mb", "MiB", lower, 0, srcCounter},
	{"bufferpool.cpu_share", "fraction", lower, 0, srcProfile},
	{"bufferpool.hit_rate", "fraction", higher, 0, srcCounter},
	{"bufferpool.page_steal_mb", "MiB", lower, 0, srcCounter},
	{"engine.exec_p50_vs", "vs", lower, 0, srcCounter},

	// Cache and client driver: moves sim_queries_per_vhour on mix-nodeloss.
	{"plancache.hit_rate", "fraction", higher, 0, srcCounter},
	{"workload.retries_per_query", "ratio", lower, 0, srcCounter},
	{"workload.giveups", "count", lower, 0, srcCounter},
	{"harness.attempt_error_share", "fraction", lower, 0, srcCounter},

	// Fleet and fault plane: moves sim_* on mix-nodeloss.
	{"cluster.routed_imbalance", "ratio", lower, 0, srcCounter},
	{"cluster.rerouted", "count", lower, 0, srcCounter},
	{"cluster.resubmitted", "count", lower, 0, srcCounter},
	{"cluster.breaker_trips", "count", lower, 0, srcCounter},
	{"fault.cpu_share", "fraction", lower, 0, srcProfile},
	{"fault.downtime_vs", "vs", lower, 0, srcCounter},
	{"harness.recovery_vs", "vs", lower, 0, srcCounter},

	// Context for reading host_*.
	{"harness.cpu_share", "fraction", lower, 0, srcProfile},
	{"harness.peak_rss_mb", "MiB", lower, 0, srcProcess},
	{"harness.run_wall_ms_p50", "ms", lower, 0, srcProcess},
	{"harness.run_wall_spread", "ratio", lower, 0, srcProcess},
	{"harness.tracing_overhead", "ratio", lower, 0, srcProcess},
	{"scenario.sweep_speedup", "ratio", higher, 0, srcProcess},
}

// value is one reported number with its unit, the shape the driver reads.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit builds the reported metric map: every metric of defs, by name,
// with its unit.
func emit(defs []metricDef, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
