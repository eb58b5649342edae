// Package harness runs complete benchmark configurations — the virtual
// equivalent of the paper's test lab. One Run builds a scheduler, a
// simulated server over the chosen catalog, and a closed-loop client
// population, executes the whole run in virtual time, and reports the
// same measurements the paper's figures plot.
package harness

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"compilegate/internal/cluster"
	"compilegate/internal/engine"
	"compilegate/internal/fault"
	"compilegate/internal/lazyrand"
	"compilegate/internal/metrics"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// Options selects a benchmark configuration.
type Options struct {
	// Clients is the concurrent user count (paper: 30 / 35 / 40).
	Clients int
	// Horizon is how long clients submit queries.
	Horizon time.Duration
	// Warmup excludes the initial portion from measurement, as §5.2 does
	// ("the data starts at an intermediate time index").
	Warmup time.Duration
	// Throttled toggles compilation throttling (the paper's comparison).
	Throttled bool
	// Scale scales the catalog (DESIGN.md: 0.04 keeps page counts
	// tractable while preserving the DB ≫ RAM ratio).
	Scale float64
	// Workload resolves the query generator and catalog; the zero value
	// is workload.SpecSales.
	Workload workload.Spec
	// Seed drives all randomness.
	Seed int64
	// Engine overrides the default engine config when non-nil (ablations
	// use this).
	Engine *engine.Config
	// Load overrides the default load config when non-nil.
	Load *workload.LoadConfig
	// Fault, when non-nil and non-empty, injects the scripted failure
	// plan into the run. Injections execute as ordinary scheduler tasks,
	// so determinism and sweep invariance are unaffected. The plan must
	// clear before Horizon.
	Fault *fault.Plan
	// Snapshot, when non-nil, supplies the shared immutable run state
	// (catalog, estimator, layout, statement identities) instead of the
	// process-wide cache. Its shape must match Workload and Scale. Runs
	// produce byte-identical results with shared, private, or absent
	// snapshots; the field exists for tests proving exactly that.
	Snapshot *Snapshot
	// Nodes runs the experiment as a cluster: that many independent
	// engine instances (each with its own budget, governor, plan cache,
	// and buffer pool) share one scheduler and one snapshot behind a
	// deterministic router. 0 and 1 both mean the classic single-server
	// run.
	Nodes int
	// Router picks the cluster routing policy (zero value:
	// round-robin). Ignored when Nodes <= 1.
	Router cluster.Policy
	// Health, when non-nil, turns on health-aware node exclusion in the
	// cluster router: nodes past the overcommit/thrash thresholds are
	// skipped like crashed ones. Cluster runs only.
	Health *cluster.HealthConfig
	// Breaker, when non-nil, arms a per-node circuit breaker in the
	// cluster router, driven by the errclass outcomes of routed
	// submissions. Cluster runs only.
	Breaker *cluster.BreakerConfig
	// FailoverHops bounds router-level failover resubmission on
	// crashed responses (0 disables it). Cluster runs only.
	FailoverHops int
}

// DefaultOptions returns the SALES configuration at the given client
// count with throttling enabled.
func DefaultOptions(clients int) Options {
	return Options{
		Clients:   clients,
		Horizon:   8 * time.Hour, // the paper measures t = 10800 s .. 28800 s
		Warmup:    3 * time.Hour,
		Throttled: true,
		Scale:     0.04,
		Workload:  workload.SpecSales,
		Seed:      1,
	}
}

// Result is one run's measurements.
type Result struct {
	Options Options
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

// traceWindowAvg averages trace samples with T in [from, to).
func traceWindowAvg(tr *metrics.Trace, from, to time.Duration) int64 {
	var sum, n int64
	for _, p := range tr.Points {
		if p.T < from || p.T >= to {
			continue
		}
		sum += p.V
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// Throughput returns completions per hour inside the window.
func (r *Result) Throughput() float64 {
	window := (r.Options.Horizon - r.Options.Warmup).Hours()
	if window <= 0 {
		return 0
	}
	return float64(r.Completed) / window
}

// Run executes one configuration to completion in virtual time.
func Run(o Options) (*Result, error) {
	return RunOn(nil, o)
}

// RunOn is Run on a caller-supplied scheduler, which must be idle (nil
// builds a private one). Sweep shards pass their pooled scheduler here
// so back-to-back runs reuse its run queue, timer wheel, and task slab;
// results are bit-identical either way.
func RunOn(sched *vtime.Scheduler, o Options) (*Result, error) {
	return runOn(sched, o, workload.Run)
}

// loadDriver is workload.Run's signature: what spawns the client
// population. Tests substitute the blocking reference driver.
type loadDriver func(*vtime.Scheduler, workload.Submitter, workload.Generator, workload.LoadConfig, func()) *workload.LoadStats

func runOn(sched *vtime.Scheduler, o Options, drive loadDriver) (*Result, error) {
	if o.Clients <= 0 {
		return nil, fmt.Errorf("harness: no clients")
	}
	if !o.Workload.Valid() {
		return nil, fmt.Errorf("harness: unknown workload %q", string(o.Workload))
	}
	if o.Scale <= 0 {
		o.Scale = 0.04
	}
	if o.Horizon <= 0 {
		o.Horizon = 2 * time.Hour
	}
	if o.Warmup >= o.Horizon {
		return nil, fmt.Errorf("harness: warmup %v >= horizon %v", o.Warmup, o.Horizon)
	}
	injecting := o.Fault != nil && !o.Fault.Empty()
	if injecting {
		if err := o.Fault.Validate(); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		if lc := o.Fault.LastClear(); lc > o.Horizon {
			return nil, fmt.Errorf("harness: fault plan clears at %v, past horizon %v", lc, o.Horizon)
		}
		nodes := o.Nodes
		if nodes < 1 {
			nodes = 1
		}
		if mx := o.Fault.MaxNode(); mx >= nodes {
			return nil, fmt.Errorf("harness: fault plan targets node %d of a %d-node run", mx, nodes)
		}
	}
	if o.Nodes > 1 && !o.Router.Valid() {
		return nil, fmt.Errorf("harness: unknown router policy %q", string(o.Router))
	}
	if o.Nodes <= 1 && (o.Health != nil || o.Breaker != nil || o.FailoverHops != 0) {
		return nil, fmt.Errorf("harness: router health/breaker/failover options require a cluster run (nodes = %d)", o.Nodes)
	}
	if o.FailoverHops < 0 {
		return nil, fmt.Errorf("harness: negative failover hops %d", o.FailoverHops)
	}

	var ecfg engine.Config
	if o.Engine != nil {
		ecfg = *o.Engine
	} else {
		ecfg = engine.DefaultConfig()
	}
	ecfg.Throttle = o.Throttled
	if !o.Throttled {
		ecfg.DynamicThresholds = false
		ecfg.BestEffort = false
	}

	snap := o.Snapshot
	if snap == nil {
		snap = SnapshotFor(o.Workload, o.Scale)
	} else if snap.Workload.String() != o.Workload.String() || snap.Scale != o.Scale {
		return nil, fmt.Errorf("harness: snapshot shape %s/%g does not match options %s/%g",
			snap.Workload, snap.Scale, o.Workload, o.Scale)
	}

	if sched == nil {
		sched = vtime.NewScheduler()
	}

	var lcfg workload.LoadConfig
	if o.Load != nil {
		lcfg = *o.Load
	} else {
		lcfg = workload.DefaultLoadConfig(o.Clients)
	}
	lcfg.Clients = o.Clients
	lcfg.Horizon = o.Horizon
	lcfg.Seed = o.Seed

	if o.Nodes > 1 {
		return runCluster(sched, o, ecfg, snap, lcfg, drive)
	}

	srv, err := engine.NewShared(ecfg, snap.Catalog, snap.prebuilt(), sched)
	if err != nil {
		return nil, err
	}

	gen := o.Workload.Generator()
	loadStats := drive(sched, srv, gen, lcfg, srv.Close)

	// The fault plane spawns after the client population so task creation
	// order — and with it the whole event schedule — is a pure function
	// of the options.
	var faultStats *fault.Stats
	if injecting {
		heavy := heavyFor(gen)
		stormRNG := rand.New(lazyrand.New(o.Fault.Seed))
		faultStats = fault.Inject(sched, *o.Fault, surfaceFor(srv, heavy, stormRNG))
	}

	if err := sched.Run(); err != nil {
		return nil, fmt.Errorf("harness: simulation error: %w", err)
	}
	if err := srv.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("harness: post-run invariant violation: %w", err)
	}

	rec := srv.Recorder()
	meanMem, maxMem := srv.CompileMemProfile()
	res := &Result{
		Options:           o,
		Series:            rec.CompletionSeries(o.Warmup, o.Horizon),
		Completed:         rec.CompletionsIn(o.Warmup, o.Horizon),
		Errors:            rec.ErrorsIn(o.Warmup, o.Horizon),
		ErrorsByKind:      rec.Errors(),
		Load:              *loadStats,
		CompileMemMean:    meanMem,
		CompileMemMax:     maxMem,
		BufferPoolHitRate: srv.BufferPool().HitRate(),
		PlanCacheHitRate:  srv.PlanCache().HitRate(),
		BestEffortPlans:   srv.Governor().BestEffortCount(),
		BrownoutEntries:   srv.Governor().BrownoutEntries(),
		BrownoutTicks:     srv.Governor().BrownoutTicks(),
		CompileP50:        srv.CompileTimes().Quantile(0.5),
		CompileP90:        srv.CompileTimes().Quantile(0.9),
		ExecP50:           srv.ExecTimes().Quantile(0.5),
		SimEvents:         sched.Events(),
		Report:            srv.Report(),
	}
	poolTr, compTr, execTr, activeTr := srv.Traces()
	res.AvgPoolBytes = traceWindowAvg(poolTr, o.Warmup, o.Horizon)
	res.AvgCompileBytes = traceWindowAvg(compTr, o.Warmup, o.Horizon)
	res.AvgExecBytes = traceWindowAvg(execTr, o.Warmup, o.Horizon)
	res.AvgActiveCompiles = float64(traceWindowAvg(activeTr, o.Warmup, o.Horizon))
	res.AvgOvercommitRatio = float64(traceWindowAvg(srv.OvercommitTrace(), o.Warmup, o.Horizon)) / 1000
	res.PageStealBytes = srv.PageStealBytes()
	if chain := srv.Governor().Chain(); chain != nil {
		res.GatewayTimeouts = chain.Timeouts()
	}
	if faultStats != nil {
		res.Fault = faultStats
		measureRecovery(res, rec.CompletionSeries(0, o.Horizon), rec.SliceDur(), o)
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
// the server directly (not through a router): the injection targets
// that node.
func surfaceFor(srv *engine.Server, heavy func(*rand.Rand) string, stormRNG *rand.Rand) fault.Surface {
	return fault.Surface{
		SetDiskStall: srv.SetDiskFault,
		Leak:         srv.LeakBallast,
		DropLeak:     srv.DropBallast,
		Crash:        srv.Crash,
		Restart:      srv.Restart,
		StormQuery: func(t *vtime.Task) error {
			return srv.Submit(t, heavy(stormRNG))
		},
	}
}

// measureRecovery computes the graceful-degradation metric: pre-fault
// throughput as the mean over full slices before the first injection
// (slice 0 excluded — it is ramp-up), then the first slice at or after
// the last clear whose completions are back within 10% of that mean.
// The series is the run's full completion series (cluster runs pass
// the node sum).
func measureRecovery(res *Result, series []metrics.Point, sliceDur time.Duration, o Options) {
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

// SeriesString renders a completion series like the paper's figures.
func SeriesString(points []metrics.Point) string {
	var sb strings.Builder
	for _, p := range points {
		fmt.Fprintf(&sb, "  t=%6.0fs  completed=%d\n", p.T.Seconds(), p.V)
	}
	return sb.String()
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
