package harness

import (
	"fmt"
	"math/rand"
	"strings"

	"compilegate/internal/cluster"
	"compilegate/internal/engine"
	"compilegate/internal/fault"
	"compilegate/internal/lazyrand"
	"compilegate/internal/metrics"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// runCluster executes a multi-node configuration: o.Nodes independent
// engine instances built in fixed order on one scheduler, sharing one
// immutable snapshot, fronted by the routing policy in o.Router. The
// client population submits through the router; the fault plane drives
// per-node surfaces. Determinism matches the single-server path: node
// order is fixed at construction, every router decision is a pure
// function of the statement text and per-node counters, and all tasks
// live on the run's single event loop.
func runCluster(sched *vtime.Scheduler, o Options, ecfg engine.Config, snap *Snapshot, lcfg workload.LoadConfig, drive loadDriver) (*Result, error) {
	nodes := make([]*engine.Server, o.Nodes)
	routed := make([]cluster.Node, o.Nodes)
	for i := range nodes {
		srv, err := engine.NewShared(ecfg, snap.Catalog, snap.prebuilt(), sched)
		if err != nil {
			return nil, fmt.Errorf("harness: node %d: %w", i, err)
		}
		nodes[i] = srv
		routed[i] = srv
	}
	rcfg := cluster.Config{Policy: o.Router, FailoverHops: o.FailoverHops}
	if o.Health != nil {
		rcfg.Health = *o.Health
	}
	if o.Breaker != nil {
		rcfg.Breaker = *o.Breaker
	}
	router, err := cluster.NewRouter(rcfg, routed, snap.Statements)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}

	gen := o.Workload.Generator()
	closeAll := func() {
		for _, srv := range nodes {
			srv.Close()
		}
	}
	loadStats := drive(sched, router, gen, lcfg, closeAll)

	// As in the single-server path, fault tasks spawn after the client
	// population so the event schedule is a pure function of the options.
	injecting := o.Fault != nil && !o.Fault.Empty()
	var faultStats *fault.Stats
	if injecting {
		heavy := heavyFor(gen)
		stormRNG := rand.New(lazyrand.New(o.Fault.Seed))
		surfaces := make([]fault.Surface, len(nodes))
		for i, srv := range nodes {
			surfaces[i] = surfaceFor(srv, heavy, stormRNG)
		}
		faultStats = fault.InjectCluster(sched, *o.Fault, surfaces)
	}

	if err := sched.Run(); err != nil {
		return nil, fmt.Errorf("harness: simulation error: %w", err)
	}
	for i, srv := range nodes {
		if err := srv.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("harness: node %d: post-run invariant violation: %w", i, err)
		}
	}

	res := aggregateCluster(o, nodes, router, loadStats)
	res.SimEvents = sched.Events()
	if faultStats != nil {
		res.Fault = faultStats
		series := make([][]metrics.Point, len(nodes))
		for i, srv := range nodes {
			series[i] = srv.Recorder().CompletionSeries(0, o.Horizon)
		}
		measureRecovery(res, metrics.SumSeries(series...), nodes[0].Recorder().SliceDur(), o)
	}
	return res, nil
}

// aggregateCluster folds per-node measurements into one cluster-level
// Result plus the per-node breakdown. Counters sum; rates pool
// (Σhits / Σaccesses); latency quantiles come from merged histograms;
// the overcommit ratio averages across nodes (each node is a whole
// machine).
func aggregateCluster(o Options, nodes []*engine.Server, router *cluster.Router, loadStats *workload.LoadStats) *Result {
	res := &Result{
		Options:           o,
		ErrorsByKind:      make(map[string]int64),
		Load:              *loadStats,
		NodeResults:       make([]NodeResult, len(nodes)),
		Rerouted:          router.Rerouted(),
		Resubmitted:       router.Resubmitted(),
		RouterAllExcluded: router.AllExcluded(),
	}

	var (
		windowSeries                  [][]metrics.Point
		compileHists, execHists       []*metrics.Histogram
		poolHits, poolAccess          uint64
		cacheHits, cacheMisses        uint64
		memSum, memWeight, overcommit int64
	)
	for i, srv := range nodes {
		rec := srv.Recorder()
		nr := NodeResult{
			Node:             i,
			Routed:           router.Routed(i),
			Completed:        rec.CompletionsIn(o.Warmup, o.Horizon),
			Errors:           rec.ErrorsIn(o.Warmup, o.Horizon),
			PlanCacheHits:    srv.PlanCache().Hits(),
			PlanCacheMisses:  srv.PlanCache().Misses(),
			PlanCacheHitRate: srv.PlanCache().HitRate(),
			BestEffortPlans:  srv.Governor().BestEffortCount(),
			Crashes:          srv.Crashes(),
			BrownoutEntries:  srv.Governor().BrownoutEntries(),
			BrownoutTicks:    srv.Governor().BrownoutTicks(),
			BreakerTrips:     router.BreakerTrips(i),
		}
		if chain := srv.Governor().Chain(); chain != nil {
			nr.GatewayTimeouts = chain.Timeouts()
		}
		if st, ok := router.BreakerState(i); ok {
			nr.BreakerState = st.String()
			nr.BreakerTransitions = router.BreakerTransitions(i)
		}
		res.NodeResults[i] = nr

		res.Completed += nr.Completed
		res.Errors += nr.Errors
		for kind, n := range rec.Errors() {
			res.ErrorsByKind[kind] += n
		}
		res.BestEffortPlans += nr.BestEffortPlans
		res.GatewayTimeouts += nr.GatewayTimeouts
		res.BrownoutEntries += nr.BrownoutEntries
		res.BrownoutTicks += nr.BrownoutTicks
		windowSeries = append(windowSeries, rec.CompletionSeries(o.Warmup, o.Horizon))
		compileHists = append(compileHists, srv.CompileTimes())
		execHists = append(execHists, srv.ExecTimes())

		mean, max := srv.CompileMemProfile()
		if w := srv.CompileTimes().Count(); w > 0 {
			memSum += mean * w
			memWeight += w
		}
		if max > res.CompileMemMax {
			res.CompileMemMax = max
		}
		poolHits += srv.BufferPool().Hits()
		poolAccess += srv.BufferPool().Hits() + srv.BufferPool().Misses()
		cacheHits += nr.PlanCacheHits
		cacheMisses += nr.PlanCacheMisses

		poolTr, compTr, execTr, activeTr := srv.Traces()
		res.AvgPoolBytes += traceWindowAvg(poolTr, o.Warmup, o.Horizon)
		res.AvgCompileBytes += traceWindowAvg(compTr, o.Warmup, o.Horizon)
		res.AvgExecBytes += traceWindowAvg(execTr, o.Warmup, o.Horizon)
		res.AvgActiveCompiles += float64(traceWindowAvg(activeTr, o.Warmup, o.Horizon))
		overcommit += traceWindowAvg(srv.OvercommitTrace(), o.Warmup, o.Horizon)
		res.PageStealBytes += srv.PageStealBytes()
	}

	res.Series = metrics.SumSeries(windowSeries...)
	if memWeight > 0 {
		res.CompileMemMean = memSum / memWeight
	}
	if poolAccess > 0 {
		res.BufferPoolHitRate = float64(poolHits) / float64(poolAccess)
	}
	if t := cacheHits + cacheMisses; t > 0 {
		res.PlanCacheHitRate = float64(cacheHits) / float64(t)
	}
	res.AvgOvercommitRatio = float64(overcommit) / float64(len(nodes)) / 1000
	res.CompileP50 = metrics.MergedHistogram(compileHists...).Quantile(0.5)
	res.CompileP90 = metrics.MergedHistogram(compileHists...).Quantile(0.9)
	res.ExecP50 = metrics.MergedHistogram(execHists...).Quantile(0.5)

	var sb strings.Builder
	sb.WriteString(router.Report())
	for i, srv := range nodes {
		fmt.Fprintf(&sb, "--- node %d ---\n", i)
		sb.WriteString(srv.Report())
	}
	res.Report = sb.String()
	return res
}
