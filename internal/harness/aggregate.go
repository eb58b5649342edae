package harness

import (
	"fmt"
	"strings"
	"time"

	"compilegate/internal/cluster"
	"compilegate/internal/engine"
	"compilegate/internal/fault"
	"compilegate/internal/metrics"
	"compilegate/internal/workload"
)

// aggregate fills the run's Result from the fleet's measurements. Counters
// and window-mean gauges sum; rates pool (Σhits / Σaccesses); latency
// quantiles come from merged histograms; the overcommit ratio averages
// across nodes (each node is a whole machine). One node takes the same
// path, which pools to the server's own figures; with no router (router is
// nil) there is no per-node breakdown. faultStats is nil for a clean run.
func aggregate(s Scenario, nodes []*engine.Server, router *cluster.Router, loadStats *workload.LoadStats, faultStats *fault.Stats, events uint64) *Result {
	res := &Result{
		Options:      s,
		Series:       fleetSeries(nodes, s.Warmup, s.Horizon),
		ErrorsByKind: make(map[string]int64),
		Load:         *loadStats,
		SimEvents:    events,
		Fault:        faultStats,
	}
	if router == nil {
		res.Report = nodes[0].Report()
	} else {
		res.NodeResults = make([]NodeResult, len(nodes))
		res.Rerouted = router.Rerouted()
		res.Resubmitted = router.Resubmitted()
		res.RouterAllExcluded = router.AllExcluded()
		var sb strings.Builder
		sb.WriteString(router.Report())
		for i, srv := range nodes {
			fmt.Fprintf(&sb, "--- node %d ---\n", i)
			sb.WriteString(srv.Report())
		}
		res.Report = sb.String()
	}

	var (
		poolHits, poolAccess          uint64
		cacheHits, cacheMisses        uint64
		memSum, memWeight, overcommit int64
	)
	for i, srv := range nodes {
		rec := srv.Recorder()
		nr := NodeResult{
			Node:             i,
			Completed:        rec.CompletionsIn(s.Warmup, s.Horizon),
			Errors:           rec.ErrorsIn(s.Warmup, s.Horizon),
			PlanCacheHits:    srv.PlanCache().Hits(),
			PlanCacheMisses:  srv.PlanCache().Misses(),
			PlanCacheHitRate: srv.PlanCache().HitRate(),
			BestEffortPlans:  srv.Governor().BestEffortCount(),
			Crashes:          srv.Crashes(),
			BrownoutEntries:  srv.Governor().BrownoutEntries(),
			BrownoutTicks:    srv.Governor().BrownoutTicks(),
		}
		if chain := srv.Governor().Chain(); chain != nil {
			nr.GatewayTimeouts = chain.Timeouts()
		}
		if router != nil {
			nr.Routed = router.Routed(i)
			nr.BreakerTrips = router.BreakerTrips(i)
			if st, ok := router.BreakerState(i); ok {
				nr.BreakerState = st.String()
				nr.BreakerTransitions = router.BreakerTransitions(i)
			}
			res.NodeResults[i] = nr
		}
		for kind, n := range rec.Errors() {
			res.ErrorsByKind[kind] += n
		}

		res.Completed += nr.Completed
		res.Errors += nr.Errors
		res.BestEffortPlans += nr.BestEffortPlans
		res.GatewayTimeouts += nr.GatewayTimeouts
		res.BrownoutEntries += nr.BrownoutEntries
		res.BrownoutTicks += nr.BrownoutTicks

		mean, max := srv.CompileMemProfile()
		if w := srv.CompileTimes().Count(); w > 0 {
			memSum += mean * w
			memWeight += w
		}
		if max > res.CompileMemMax {
			res.CompileMemMax = max
		}
		res.Work.Add(srv.Optimizer().Work())
		poolHits += srv.BufferPool().Hits()
		poolAccess += srv.BufferPool().Hits() + srv.BufferPool().Misses()
		cacheHits += nr.PlanCacheHits
		cacheMisses += nr.PlanCacheMisses

		g := rec.GaugeMeans(s.Warmup, s.Horizon)
		res.AvgPoolBytes += g.PoolBytes
		res.AvgCompileBytes += g.CompileBytes
		res.AvgExecBytes += g.ExecBytes
		res.AvgActiveCompiles += float64(g.ActiveCompiles)
		overcommit += g.OvercommitPermille
		res.PageStealBytes += srv.PageStealBytes()
	}

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
	compile := fleetHistogram(nodes, (*engine.Server).CompileTimes)
	res.CompileP50 = compile.Quantile(0.5)
	res.CompileP90 = compile.Quantile(0.9)
	res.ExecP50 = fleetHistogram(nodes, (*engine.Server).ExecTimes).Quantile(0.5)
	if faultStats != nil {
		measureRecovery(res, fleetSeries(nodes, 0, s.Horizon), nodes[0].Recorder().SliceDur())
	}
	return res
}

// fleetSeries is the fleet's completion series over [from, to): the
// per-slice sum over nodes.
func fleetSeries(nodes []*engine.Server, from, to time.Duration) []metrics.Point {
	per := make([][]metrics.Point, len(nodes))
	for i, srv := range nodes {
		per[i] = srv.Recorder().CompletionSeries(from, to)
	}
	return metrics.SumSeries(per...)
}

// fleetHistogram is one latency histogram for the whole fleet: the
// bucket-wise merge over nodes.
func fleetHistogram(nodes []*engine.Server, of func(*engine.Server) *metrics.Histogram) *metrics.Histogram {
	per := make([]*metrics.Histogram, len(nodes))
	for i, srv := range nodes {
		per[i] = of(srv)
	}
	return metrics.MergedHistogram(per...)
}

// audit checks the bookkeeping identities every run must satisfy, on the
// finished Result: every submitted query was answered one way or the
// other, the series and the windowed total count the same completions,
// and — when a router fronted the fleet — every client submission, retry
// and failover resubmission was forwarded to exactly one node. Storm
// queries reach their node directly and are in none of the three terms.
func (r *Result) audit() error {
	if l := r.Load; l.Succeeded+l.Failed != l.Submitted {
		return fmt.Errorf("client conservation: succeeded %d + failed %d != submitted %d", l.Succeeded, l.Failed, l.Submitted)
	}
	var series int64
	for _, p := range r.Series {
		series += p.V
	}
	if series != r.Completed {
		return fmt.Errorf("window conservation: series sum %d != completed %d", series, r.Completed)
	}
	if r.NodeResults != nil {
		var routed uint64
		for _, n := range r.NodeResults {
			routed += n.Routed
		}
		if want := uint64(r.Load.Submitted+r.Load.Retries) + r.Resubmitted; routed != want {
			return fmt.Errorf("routing conservation: routed %d != submitted %d + retries %d + resubmitted %d",
				routed, r.Load.Submitted, r.Load.Retries, r.Resubmitted)
		}
	}
	return nil
}
