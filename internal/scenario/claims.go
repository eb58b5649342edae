package scenario

import (
	"fmt"
	"math"
	"strings"
	"time"

	"compilegate/internal/cluster"
	"compilegate/internal/engine"
	"compilegate/internal/harness"
	"compilegate/internal/workload"
)

// Claim is a paper claim as a band over a replicated metric: it holds
// when the bootstrap 95% confidence interval of the metric's mean lies
// inside [Lo, Hi], so one lucky seed cannot pass it, nor one unlucky
// seed fail it.
type Claim struct {
	// Text names the claim in verdicts and failure output.
	Text     string
	Scenario Scenario
	// Twin is the replication's Twin: the run each seed compares against.
	Twin   func(Scenario) Scenario
	Metric Metric
	// Lo/Hi bound the band (inclusive); claims with no upper bound write
	// Hi: math.Inf(1). A [0, 0] band claims "exactly zero on every seed".
	Lo, Hi float64
	// MinSeeds raises the seed population for a claim whose verdict
	// moved when only the random source did (EXPERIMENTS.md, "The one
	// golden break"). The floor is 3 either way.
	MinSeeds int
}

// Check evaluates the claim over per-seed samples. It fails unless the
// interval is inside the band, so a NaN sample never holds.
func (c Claim) Check(xs []float64) (Summary, error) {
	if c.Hi < c.Lo {
		return Summary{}, fmt.Errorf("claim %q: invalid band [%g, %g]", c.Text, c.Lo, c.Hi)
	}
	s := Summarize(xs, 0.95)
	if floor := max(c.MinSeeds, 3); s.N < floor {
		return s, fmt.Errorf("claim %q: %d seeds < the %d-seed floor", c.Text, s.N, floor)
	}
	if !(s.CI.Lo >= c.Lo && s.CI.Hi <= c.Hi) {
		return s, fmt.Errorf("claim %q: %s CI [%.3f, %.3f] not within [%g, %g] (%s); per-seed samples %v",
			c.Text, c.Metric.Name, s.CI.Lo, s.CI.Hi, c.Lo, c.Hi, s, xs)
	}
	return s, nil
}

// Verdict is one claim checked over its replication.
type Verdict struct {
	Claim
	Report  *ReplicationReport
	Summary Summary
	Err     error // nil when the claim holds
}

// RunClaims replicates each distinct (scenario, twin, seed count) among
// the claims once, all in one sweep, and checks every claim over its
// replication. Scenarios and twins are told apart by Key; a row with no
// key (a closure) shares with none. A claim runs at seeds, or at
// Seeds(MinSeeds) when that is more.
func RunClaims(claims []Claim, seeds []int64) []Verdict {
	var rps []Replication
	at := map[string]int{}
	idx := make([]int, len(claims))
	for i, c := range claims {
		rp := Replication{Scenario: c.Scenario, Seeds: seeds, Twin: c.Twin}
		if len(seeds) < c.MinSeeds {
			rp.Seeds = Seeds(c.MinSeeds)
		}
		key, ok := c.Scenario.Key()
		if c.Twin != nil {
			twin, twinOK := c.Twin(c.Scenario).Key()
			key, ok = key+"\n"+twin, ok && twinOK
		}
		key = fmt.Sprintf("%d seeds\n%s", len(rp.Seeds), key)
		if !ok {
			key = fmt.Sprintf("row %d", i) // a closure compares with nothing
		}
		j, shared := at[key]
		if !shared {
			j, at[key] = len(rps), len(rps)
			rps = append(rps, rp)
		}
		idx[i] = j
	}
	reports := RunReplications(rps, 0)
	out := make([]Verdict, len(claims))
	for i, c := range claims {
		v := Verdict{Claim: c, Report: reports[idx[i]], Err: reports[idx[i]].Err}
		if v.Err == nil {
			v.Summary, v.Err = c.Check(v.Report.Samples(c.Metric))
		}
		out[i] = v
	}
	return out
}

// Claims returns every simulated paper claim the repository pins, at the
// paper's full windows. (The §5.1 compile-memory ratio is an optimizer
// measurement, checked in harness's tests.)
func Claims() []Claim {
	type band struct {
		text   string
		metric Metric
		lo, hi float64
	}
	var out []Claim
	add := func(s Scenario, twin func(Scenario) Scenario, minSeeds int, bands ...band) {
		for _, b := range bands {
			out = append(out, Claim{b.text, s, twin, b.metric, b.lo, b.hi, minSeeds})
		}
	}
	inf, base := math.Inf(1), Scenario.Baseline

	// Figures 3-5 (§5): the throttled server against its unthrottled twin
	// at 30, 35 and 40 clients; at 40, baseline starvation reads as
	// RatioCap. figure3's five-seed interval reaches down to 1.17 under
	// PCG, so it runs at least ten seeds. Its compile-duration rows pin
	// §5.2's 10-90 s profile at the same calibration; Histogram.Quantile
	// reports a bucket's upper bound, so the lower edge sits just above
	// the 10 s bucket.
	add(registry["figure3"], base, 10,
		band{"figure3: throttled sustains >= 1.2x baseline throughput at 30 clients", MetricThroughputRatio, 1.2, inf},
		band{"figure3: the unthrottled baseline is overcommitted (thrash regime)", twinMetric("ba-overcommit",
			func(_, twin *harness.Result) float64 { return twin.AvgOvercommitRatio }), 1.0, inf},
		band{"figure3: governance keeps the throttled server cooler than baseline", MetricOvercommitMargin, 0.02, inf},
		band{"figure3: compile p50 stays in the §5.2 10-90 s ad-hoc band", MetricCompileP50, 10.5, 90},
		band{"figure3: compile p90 stays minutes, not the pre-stage tens of minutes", MetricCompileP90, 10.5, 300})
	add(registry["figure4"], base, 0,
		band{"figure4: throttled sustains >= 1.3x baseline throughput at 35 clients", MetricThroughputRatio, 1.3, inf})
	add(registry["figure5"], base, 0,
		band{"figure5: throttled sustains >= 2x baseline throughput at 40 clients", MetricThroughputRatio, 2, inf},
		band{"figure5: the collapsing baseline fails hundreds more queries", MetricErrorMargin, 500, inf})

	// Fault plane: under a compile storm the baseline's timeouts amplify
	// into retries; after a fault clears, the throttled server alone
	// promises bounded recovery (an unrecovered run scores the remaining
	// horizon). One crash seed that never recovers moves a three-seed
	// interval, so fault-crash-restart runs at least ten.
	add(registry["retry-storm"], base, 0,
		band{"retry-storm: throttled sustains >= 3x baseline throughput under the storm", MetricThroughputRatio, 3, inf},
		band{"retry-storm: baseline clients re-inject >= 4x the retries of the cooperating driver", twinMetric("retry-amp",
			func(r, twin *harness.Result) float64 {
				if r.Load.Retries == 0 {
					return RatioCap
				}
				return math.Min(RatioCap, float64(twin.Load.Retries)/float64(r.Load.Retries))
			}), 4, inf})
	add(registry["fault-diskstall"], nil, 0,
		band{"fault-diskstall: throttled throughput recovers within 40 min of the stall clearing", MetricRecoveryTime, 0, 2400})
	add(registry["fault-crash-restart"], nil, 10,
		band{"fault-crash-restart: throttled throughput recovers within 60 min of restart", MetricRecoveryTime, 0, 3600})

	// Cluster plane. Fingerprint affinity compiles each statement on one
	// home node; round-robin pays cold compilations on all four. A blind
	// router (health, breakers and failover off) keeps feeding a thrashing
	// node. The storm's completions band, [600, 900] scaled by 65/60, was
	// fitted when the recorder counted 60 of the window's 65 minutes
	// (EXPERIMENTS.md, "The one golden break").
	add(registry["cluster-affinity"], func(s Scenario) Scenario {
		s.Name, s.Description, s.Router = s.Name+"-roundrobin", "round-robin twin of "+s.Description, cluster.RoundRobin
		return s
	}, 0,
		band{"cluster-affinity: fleet plan-cache hit rate stays above 0.93", MetricPlanCacheHitRate, 0.93, 1},
		band{"cluster-affinity: hit-rate margin over the round-robin twin is 0.10-0.20 per seed", twinMetric("hit-margin",
			func(r, twin *harness.Result) float64 { return r.PlanCacheHitRate - twin.PlanCacheHitRate }), 0.10, 0.20})
	add(registry["cluster-thrash-shed"], func(s Scenario) Scenario {
		s.Name, s.Description = s.Name+"-blind", "blind-router twin of "+s.Description
		s.Health, s.Breaker, s.FailoverHops = false, false, 0
		return s
	}, 0,
		band{"cluster-thrash-shed: health-aware routing completes 20-300 more queries than the blind twin per seed", twinMetric("done-margin",
			func(r, twin *harness.Result) float64 { return float64(r.Completed - twin.Completed) }), 20, 300},
		band{"cluster-thrash-shed: the router actively steers around the thrashing node", MetricRerouted, 40, 400})
	add(registry["cluster-compile-storm"], nil, 0,
		band{"cluster-compile-storm: correlated storms never leave the router with zero admitting nodes", MetricRouterAllExcluded, 0, 0},
		band{"cluster-compile-storm: the stormed fleet keeps completing work", MetricCompleted, 650, 975})
	add(registry["cluster-breaker-recovery"], nil, 0,
		band{"cluster-breaker-recovery: throughput recovers within 20 min of restart (unrecovered runs score the remaining horizon)", MetricRecoveryTime, 0, 1200},
		band{"cluster-breaker-recovery: failover masks the whole outage — clients never retry", MetricRetries, 0, 0},
		band{"cluster-breaker-recovery: the crashed node's breaker trips and re-trips across the outage", Metric{"node1-trips",
			func(r SeedRun) float64 { return float64(r.Result.NodeResults[1].BreakerTrips) }}, 1, 30})

	// §5.2 on the uncalibrated machine: the latency profile (medians, with
	// slack for histogram bucketing), errors rising past saturation, and a
	// mixed workload's point queries never blocking at the gates.
	add(defaults("latency-profile", 30, 90*time.Minute, 15*time.Minute), nil, 0,
		band{"§5.2: compile p50 within the 10-90 s band (bucketed)", MetricCompileP50, 5, 180},
		band{"§5.2: exec p50 within the 30 s - 10 min band (bucketed)", MetricExecP50, 20, 900})
	add(defaults("overload-30", 30, 90*time.Minute, 15*time.Minute), func(s Scenario) Scenario {
		s.Name, s.Clients = strings.Replace(s.Name, "30", "40", 1), 40 // keeps a knob twin's suffix
		return s
	}, 0, band{"§5.2: errors rise when pushed past saturation (40 vs 30 clients)", MetricErrorMargin, 1, inf})
	mix := defaults("small-query-bypass", 16, 40*time.Minute, 5*time.Minute)
	mix.Workload = workload.SpecMix
	add(mix, nil, 0,
		band{"bypass: a mixed workload never times out at the gates", MetricGatewayTimeouts, 0, 0},
		band{"bypass: the mixed workload still completes work", MetricCompleted, 1, inf})
	return out
}

// defaults is SALES on the uncalibrated machine (engine.DefaultConfig but
// for the recorder's slice, which is the warm-up).
func defaults(name string, clients int, horizon, warmup time.Duration) Scenario {
	s := Sales(clients)
	s.Name, s.Description, s.Server = name, "harness defaults at "+name, engine.Config{}
	return s.WithWindow(horizon, warmup).WithSlice(warmup)
}
