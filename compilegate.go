// Package compilegate is a reproduction of "Managing Query Compilation
// Memory Consumption to Improve DBMS Throughput" (Baryshnikov et al.,
// CIDR 2007): a Memory Broker that arbitrates memory among DBMS
// subcomponents, and a chain of memory monitors (gateways) that throttles
// concurrent query compilations under memory pressure.
//
// The package is the library surface, kept to what its callers use:
//
//   - The governance primitives (Broker, Governor over a Budget) — usable
//     on their own to throttle any memory-hungry admission problem.
//   - A complete simulated DBMS (Server) — parser, Cascades-style
//     optimizer, buffer pool, plan cache, execution engine with memory
//     grants — running on a deterministic virtual clock.
//   - The paper's experiments as registered scenarios (ScenarioByName),
//     run singly (Scenario.Run) or concurrently (RunSweep) and compared
//     against their unthrottled baselines (CompareRuns).
//
// example_test.go shows each in use. The commands under cmd/ and the
// repository benchmark drive the internal packages directly; see
// DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package compilegate

import (
	"compilegate/internal/broker"
	"compilegate/internal/catalog"
	"compilegate/internal/cluster"
	"compilegate/internal/core"
	"compilegate/internal/engine"
	"compilegate/internal/harness"
	"compilegate/internal/mem"
	"compilegate/internal/scenario"
	"compilegate/internal/vtime"
)

type (
	// Broker is the Memory Broker (§3): it samples component usage,
	// detects trends, and issues grow/stable/shrink notifications with
	// per-component targets when memory pressure is predicted.
	Broker = broker.Broker
	// BrokerConfig tunes trend detection and pressure thresholds.
	BrokerConfig = broker.Config
	// Notification is a broker verdict delivered to one component.
	Notification = broker.Notification

	// Governor binds the broker and the gateway ladder (§4, Figure 1)
	// into the compilation throttling policy; compilations allocate
	// through it.
	Governor = core.Governor
	// GovernorOptions selects throttling features (§4.1 extensions
	// included).
	GovernorOptions = core.Options

	// Budget is the simulated machine memory budget.
	Budget = mem.Budget
	// Tracker accounts one component's memory against a Budget.
	Tracker = mem.Tracker

	// Scheduler is the deterministic virtual-time scheduler that hosts
	// simulations.
	Scheduler = vtime.Scheduler
	// Task is a cooperative thread of execution under a Scheduler.
	Task = vtime.Task

	// Server is the fully assembled simulated DBMS.
	Server = engine.Server
	// ServerConfig assembles a Server.
	ServerConfig = engine.Config
	// Catalog describes a database schema.
	Catalog = catalog.Catalog
	// RouterPolicy selects how a cluster run routes statements to its
	// nodes.
	RouterPolicy = cluster.Policy

	// Scenario declaratively describes one experiment: workload, catalog
	// scale, client population, measurement window, server-config
	// deltas, fault plan, and fleet shape. Run executes it; Baseline and
	// the With* methods derive variants.
	Scenario = scenario.Scenario
	// SweepResult is one scenario's outcome within a RunSweep.
	SweepResult = scenario.SweepResult
	// BenchmarkResult carries one run's measurements.
	BenchmarkResult = harness.Result
)

// Byte-size helpers for configuration literals.
const (
	MiB = mem.MiB
	GiB = mem.GiB
)

// ErrKindOOM is the BenchmarkResult.ErrorsByKind key of queries that
// failed with the simulated machine's out-of-memory error.
const ErrKindOOM = engine.ErrKindOOM

// The cluster routing policies (Scenario.Router).
const (
	RouteRoundRobin  = cluster.RoundRobin
	RouteLeastLoaded = cluster.LeastLoaded
)

// NewScheduler creates a virtual-time scheduler.
func NewScheduler() *Scheduler { return vtime.NewScheduler() }

// NewBudget creates a simulated memory budget of total bytes.
func NewBudget(total int64) *Budget { return mem.NewBudget(total) }

// NewBroker creates a Memory Broker over budget.
func NewBroker(cfg BrokerConfig, budget *Budget) *Broker { return broker.New(cfg, budget) }

// DefaultBrokerConfig returns the calibrated broker tuning.
func DefaultBrokerConfig() BrokerConfig { return broker.DefaultConfig() }

// NewGovernor creates a compilation governor charging tracker.
func NewGovernor(opts GovernorOptions, tracker *Tracker) (*Governor, error) {
	return core.NewGovernor(opts, tracker)
}

// DefaultGovernorOptions enables the full §4 + §4.1 feature set: the
// paper's three-monitor ladder for a machine with the given CPU count
// and memory.
func DefaultGovernorOptions(cpus int, totalMem int64) GovernorOptions {
	return core.DefaultOptions(cpus, totalMem)
}

// NewServer assembles a simulated DBMS over cat inside sched.
func NewServer(cfg ServerConfig, cat *Catalog, sched *Scheduler) (*Server, error) {
	return engine.NewShared(cfg, cat, engine.Prebuilt{}, sched)
}

// DefaultServerConfig reproduces the paper's testbed with throttling on.
func DefaultServerConfig() ServerConfig { return engine.DefaultConfig() }

// NewSalesCatalog builds the SALES data-mart schema at the given scale
// (1.0 = the paper's 524 GB mart with a >400M-row fact table).
func NewSalesCatalog(scale float64) *Catalog {
	return catalog.NewSales(catalog.SalesConfig{Scale: scale, ExtentBytes: 8 * MiB})
}

// ScenarioByName resolves a registered experiment ("figure3",
// "oltp-mix", ...); `go run ./cmd/figures -list` prints the registry.
func ScenarioByName(name string) (Scenario, bool) { return scenario.Get(name) }

// RunSweep executes independent scenarios concurrently on a bounded
// worker pool (workers <= 0 uses GOMAXPROCS). Every run owns a private
// scheduler, so results are identical to running each scenario serially.
func RunSweep(scenarios []Scenario, workers int) []SweepResult {
	return scenario.RunSweep(scenarios, workers)
}

// CompareRuns renders the throttled-vs-baseline comparison of Figures 3-5
// and returns the throughput improvement ratio.
func CompareRuns(throttled, baseline *BenchmarkResult) (float64, string) {
	return harness.Compare(throttled, baseline)
}
