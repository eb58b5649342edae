// Package harness runs complete benchmark configurations — the virtual
// equivalent of the paper's test lab. It owns the run: the Scenario type
// that describes one (the only declaration of a run's settings, as a
// value with Key as its encoding, and the only validator), the one path
// that executes it — a scheduler, a fleet of simulated servers over the
// chosen catalog behind a router (a single server is a one-node fleet
// with the router elided), a closed-loop client population and the fault
// plane, all in virtual time — and the Result carrying the measurements
// the paper's figures plot, audited before it is returned. Package
// scenario owns what is run: the registry of named experiments, sweeps,
// replications and the claims table.
package harness

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"compilegate/internal/cluster"
	"compilegate/internal/engine"
	"compilegate/internal/fault"
	"compilegate/internal/metrics"
	"compilegate/internal/optimizer"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// Result is one run's measurements.
type Result struct {
	// Options is the scenario the run executed.
	Options Scenario
	// Series is completions per slice inside the measurement window —
	// the curve Figures 3-5 plot.
	Series []metrics.Point
	// Completed/Errors are totals inside the measurement window.
	Completed int64
	Errors    int64
	// ErrorsByKind covers the whole run.
	ErrorsByKind map[string]int64
	// Load is the client-side view.
	Load workload.LoadStats
	// CompileMemMean/Max profile per-query compile memory.
	CompileMemMean, CompileMemMax int64
	// BufferPoolHitRate is the end-of-run hit rate (cluster runs:
	// pooled over nodes as Σhits / Σ(hits+misses)).
	BufferPoolHitRate float64
	// PlanCacheHitRate is the end-of-run plan-cache hit rate, pooled
	// the same way for cluster runs — the fingerprint-affinity routing
	// claim reads this.
	PlanCacheHitRate float64
	// GatewayTimeouts / BestEffortPlans count throttling outcomes.
	GatewayTimeouts uint64
	BestEffortPlans uint64
	// BrownoutEntries / BrownoutTicks are the governor's brown-out
	// telemetry (summed across nodes on cluster runs): how many times
	// sustained pressure escalated admission to best-effort-only, and
	// for how many broker ticks in total.
	BrownoutEntries uint64
	BrownoutTicks   uint64
	// Rerouted / Resubmitted count the cluster router's health actions:
	// submissions steered away from their policy's first choice, and
	// failover resubmissions after crashed responses. RouterAllExcluded
	// counts submissions that found every node excluded and went to the
	// policy's first choice anyway. All zero for single-server runs.
	Rerouted          uint64
	Resubmitted       uint64
	RouterAllExcluded uint64
	// CompileP50/ExecP50 are median latencies; CompileP90 bounds the
	// compile-latency tail (the §5.2 profile claims).
	CompileP50, ExecP50 time.Duration
	CompileP90          time.Duration
	// Mid-run averages sampled inside the measurement window.
	AvgPoolBytes, AvgCompileBytes, AvgExecBytes int64
	AvgActiveCompiles                           float64
	// AvgOvercommitRatio is the mean wired-memory overcommit ratio inside
	// the window (>1 means the machine spent the window thrashing).
	AvgOvercommitRatio float64
	// PageStealBytes is buffer-pool memory the pager stole over the run.
	PageStealBytes int64
	// SimEvents is how many scheduler events the run dispatched — the
	// numerator of the simulator's own sim-events/sec throughput metric.
	SimEvents uint64
	// Work is what the fleet's optimizers did, summed over nodes: exact
	// counts, functions of the code and the seed alone, beside host time.
	Work optimizer.Work
	// Fault reports what the fault plane did (nil for clean runs).
	Fault *fault.Stats
	// PreFaultThroughput is the mean completions per slice over full
	// slices before the first injection (0 when unmeasurable).
	PreFaultThroughput float64
	// Recovered reports whether, after the last injection cleared,
	// throughput came back within 10% of PreFaultThroughput before the
	// horizon; RecoveryTime is virtual time from fault clear to the end
	// of the first recovered slice — the graceful-degradation metric.
	Recovered    bool
	RecoveryTime time.Duration
	// Report is the engine's diagnostic dump (cluster runs: the router
	// distribution followed by every node's dump).
	Report string
	// NodeResults is the per-node breakdown of a cluster run, in node
	// order; nil for single-server runs.
	NodeResults []NodeResult
}

// NodeResult is one cluster node's share of a run.
type NodeResult struct {
	// Node is the index in router order (fixed at construction).
	Node int
	// Routed counts submissions the router forwarded here.
	Routed uint64
	// Completed/Errors are the node's totals inside the measurement
	// window.
	Completed int64
	Errors    int64
	// PlanCacheHits/Misses/HitRate are the node's plan-cache counters —
	// affinity routing shows up as a higher per-node hit rate.
	PlanCacheHits, PlanCacheMisses uint64
	PlanCacheHitRate               float64
	// BestEffortPlans / GatewayTimeouts count the node's throttling
	// outcomes; Crashes counts fault-plane crash onsets on this node.
	BestEffortPlans uint64
	GatewayTimeouts uint64
	Crashes         uint64
	// BrownoutEntries / BrownoutTicks are the node governor's brown-out
	// telemetry.
	BrownoutEntries uint64
	BrownoutTicks   uint64
	// BreakerState / BreakerTrips / BreakerTransitions describe the
	// node's circuit breaker at end of run (zero values when breakers
	// are disabled; BreakerState is then "").
	BreakerState       string
	BreakerTrips       uint64
	BreakerTransitions []cluster.BreakerTransition
}

// Throughput returns completions per hour inside the window.
func (r *Result) Throughput() float64 {
	window := (r.Options.Horizon - r.Options.Warmup).Hours()
	if window <= 0 {
		return 0
	}
	return float64(r.Completed) / window
}

// seams are what tests substitute on the one run path (export_test.go);
// the zero value is the production run.
type seams struct {
	// Drive spawns the client population (nil: workload.Run). Tests
	// substitute the blocking reference driver.
	Drive func(*vtime.Scheduler, workload.Submitter, workload.Generator, workload.LoadConfig, func()) *workload.LoadStats
	// Snap replaces the process-wide snapshot of the scenario's shape.
	Snap *Snapshot
	// Tap wraps each node as the router, a lone server's clients and the
	// fault plane's storm queries submit to it, so a test sees every
	// submission a recorder does.
	Tap func(cluster.Node) cluster.Node
}

// run is the one run path. It builds the fleet — fleet() engine instances
// in fixed order on one scheduler, sharing one immutable snapshot — puts
// the router in front of it when there is more than one node, spawns the
// client population and the fault plane, runs the simulation to the end
// and audits it. A single server is a one-node fleet whose clients submit
// to it directly: no router exists, so no routing step, task or event is
// added to what a lone server would do. Determinism: node order is fixed
// at construction, every router decision is a pure function of the
// statement text and per-node counters, and all tasks live on the run's
// single event loop.
func (s Scenario) run(sched *vtime.Scheduler, test seams) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}

	ecfg := s.ServerConfig()
	lcfg := workload.DefaultLoadConfig(s.Clients)
	if s.ThinkTime > 0 {
		lcfg.ThinkTime = s.ThinkTime
	}
	if s.Retry {
		lcfg.MaxRetries, lcfg.RetryBudget, lcfg.NoRetryShed = 6, 40, true
		lcfg.BackoffBase, lcfg.BackoffCap, lcfg.BackoffJitter = 500*time.Millisecond, 10*time.Second, 0.3
	}
	if s.Load != nil {
		s.Load(&lcfg)
	}
	lcfg.Clients = s.Clients
	lcfg.Horizon, lcfg.Warmup = s.Horizon, s.Warmup
	lcfg.Seed = s.Seed

	snap, drive := test.Snap, test.Drive
	if snap == nil {
		snap = SnapshotFor(s.Workload, s.Scale)
	}
	if drive == nil {
		drive = workload.Run
	}
	if sched == nil {
		sched = vtime.NewScheduler()
	}

	nodes := make([]*engine.Server, s.fleet())
	for i := range nodes {
		srv, err := engine.NewShared(ecfg, snap.Catalog, snap.prebuilt(), sched)
		if err != nil {
			return nil, fmt.Errorf("harness: node %d: %w", i, err)
		}
		nodes[i] = srv
	}
	// routed is the fleet as submissions reach it.
	routed := make([]cluster.Node, len(nodes))
	for i, srv := range nodes {
		routed[i] = srv
		if test.Tap != nil {
			routed[i] = test.Tap(srv)
		}
	}
	var router *cluster.Router
	var front workload.Submitter = routed[0]
	if len(nodes) > 1 {
		var err error
		router, err = cluster.NewRouter(cluster.Config{
			Policy: s.Router, Health: s.Health, Breaker: s.Breaker, FailoverHops: s.FailoverHops,
		}, routed, snap.Statements)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		front = router
	}

	gen := s.Workload.Generator()
	loadStats := drive(sched, front, gen, lcfg, func() {
		for _, srv := range nodes {
			srv.Close()
		}
	})

	// The fault plane spawns after the client population so task creation
	// order — and with it the whole event schedule — is a pure function
	// of the scenario.
	var faultStats *fault.Stats
	if !s.Fault.Empty() {
		heavy := heavyFor(gen)
		stormRNG := vtime.NewRand(s.Fault.Seed)
		surfaces := make([]fault.Surface, len(nodes))
		for i, srv := range nodes {
			surfaces[i] = surfaceFor(srv, routed[i], heavy, stormRNG)
		}
		faultStats = fault.InjectCluster(sched, *s.Fault, surfaces)
	}

	if err := sched.Run(); err != nil {
		return nil, fmt.Errorf("harness: simulation error: %w", err)
	}
	for i, srv := range nodes {
		if err := srv.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("harness: node %d: post-run invariant violation: %w", i, err)
		}
	}

	res := aggregate(s, nodes, router, loadStats, faultStats, sched.Events())
	if err := res.audit(); err != nil {
		return nil, fmt.Errorf("harness: post-run audit: %w", err)
	}
	return res, nil
}

// heavyFor resolves the generator's compile-storm query source: the
// dedicated heavy-template draw when the generator has one, the plain
// draw otherwise.
func heavyFor(gen workload.Generator) func(*rand.Rand) string {
	if hg, ok := gen.(interface {
		NextHeavy(*rand.Rand) string
	}); ok {
		return hg.NextHeavy
	}
	return gen.Next
}

// surfaceFor wires one server's fault-plane hooks. Storm queries go to
// the server directly (not through a router) — as sub, the server as
// submissions reach it: the injection targets that node.
func surfaceFor(srv *engine.Server, sub workload.Submitter, heavy func(*rand.Rand) string, stormRNG *rand.Rand) fault.Surface {
	return fault.Surface{
		SetDiskStall: srv.SetDiskFault,
		Leak:         srv.LeakBallast,
		DropLeak:     srv.DropBallast,
		Crash:        srv.Crash,
		Restart:      srv.Restart,
		StormQuery: func(t *vtime.Task, errp *error, k vtime.Step) {
			sub.SubmitThen(t, heavy(stormRNG), errp, k)
		},
	}
}

// measureRecovery computes the graceful-degradation metric: pre-fault
// throughput as the mean over full slices before the first injection
// (slice 0 excluded — it is ramp-up), then the first slice at or after
// the last clear whose completions are back within 10% of that mean.
// The series is the run's full completion series, summed over the fleet.
func measureRecovery(res *Result, series []metrics.Point, sliceDur time.Duration) {
	o := &res.Options
	onset, clear := o.Fault.FirstOnset(), o.Fault.LastClear()
	var sum, n int64
	for _, p := range series {
		if p.T > 0 && p.T+sliceDur <= onset {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return
	}
	pre := float64(sum) / float64(n)
	res.PreFaultThroughput = pre
	for _, p := range series {
		if p.T < clear {
			continue
		}
		// Only full slices count, matching the pre-fault mean: when the
		// horizon is not a multiple of the slice width, the truncated
		// final slice holds a fraction of a slice's completions and must
		// not decide recovery off a short sample.
		if p.T+sliceDur > o.Horizon {
			continue
		}
		if float64(p.V) >= 0.9*pre {
			res.Recovered = true
			res.RecoveryTime = p.T + sliceDur - clear
			return
		}
	}
}

// Compare renders the throttled-vs-unthrottled comparison the paper's
// figures make, returning the improvement ratio. A starved baseline
// (zero completions) has no finite ratio: the ratio is +Inf when the
// throttled run completed anything and NaN when both completed
// nothing, and the summary says so instead of printing the
// improvement as -100%.
func Compare(throttled, baseline *Result) (ratio float64, summary string) {
	improvement := "undefined (both runs completed 0)"
	switch {
	case baseline.Completed > 0:
		ratio = float64(throttled.Completed) / float64(baseline.Completed)
		improvement = fmt.Sprintf("%.1f%%", (ratio-1)*100)
	case throttled.Completed > 0:
		ratio = math.Inf(1)
		improvement = "+inf (baseline completed 0)"
	default:
		ratio = math.NaN()
	}
	summary = fmt.Sprintf(
		"clients=%d window=[%v,%v): throttled=%d baseline=%d improvement=%s errors(throttled)=%d errors(baseline)=%d",
		throttled.Options.Clients, throttled.Options.Warmup, throttled.Options.Horizon,
		throttled.Completed, baseline.Completed, improvement,
		throttled.Errors, baseline.Errors)
	return ratio, summary
}
