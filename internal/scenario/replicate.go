package scenario

import (
	"fmt"
	"math"
	"os"

	"compilegate/internal/harness"
)

// This file is the multi-seed runner behind the claims table. Seeds become sweep jobs, so a replication's per-seed
// results are byte-identical at any worker count, as a sweep's are.

// Seeds returns the canonical replication seed list {1..n}. Claims run
// over ClaimSeeds().
func Seeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// DefaultClaimSeeds is the seed count every claim asserts over unless
// CLAIMS_SEEDS narrows it (PR CI runs a 3-seed subset; nightly runs
// the full population).
const DefaultClaimSeeds = 5

// ClaimSeeds resolves the claim seed list: CLAIMS_SEEDS when set
// to a positive integer, DefaultClaimSeeds otherwise.
func ClaimSeeds() []int64 {
	if v := os.Getenv("CLAIMS_SEEDS"); v != "" {
		var n int
		if _, err := fmt.Sscanf(v, "%d", &n); err == nil && n > 0 {
			return Seeds(n)
		}
	}
	return Seeds(DefaultClaimSeeds)
}

// Replication describes a multi-seed run of one scenario.
type Replication struct {
	// Scenario is the experiment to replicate; its own Seed field is
	// ignored in favor of Seeds.
	Scenario Scenario
	// Seeds is the replication population (one full run per entry).
	Seeds []int64
	// Twin, when set, builds the run each seed's scenario is compared
	// with under the same seed (Scenario.Baseline for the unthrottled
	// twin), so twin metrics compare the pair within a seed.
	Twin func(Scenario) Scenario
}

// SeedRun is one seed's outcome within a replication.
type SeedRun struct {
	Seed   int64
	Result *harness.Result
	Twin   *harness.Result // nil unless the replication has a Twin
}

// ReplicationReport holds a finished replication in seed order.
type ReplicationReport struct {
	Runs []SeedRun
	// Err is the first failed run, named by scenario and seed; the runs
	// then hold only their seeds and the results that did finish.
	Err error
}

// RunReplications runs every replication's jobs (each seed's scenario,
// then its twin) in one RunSweep at the given worker count (0 = all
// cores) and returns the reports in order.
func RunReplications(rps []Replication, workers int) []*ReplicationReport {
	var jobs []Scenario
	for _, rp := range rps {
		for _, seed := range rp.Seeds {
			s := rp.Scenario.WithSeed(seed)
			jobs = append(jobs, s)
			if rp.Twin != nil {
				jobs = append(jobs, rp.Twin(s))
			}
		}
	}
	results := RunSweep(jobs, workers)
	out := make([]*ReplicationReport, len(rps))
	for i, rp := range rps {
		rep := &ReplicationReport{}
		if len(rp.Seeds) == 0 {
			rep.Err = fmt.Errorf("replicate %s: no seeds", rp.Scenario.Name)
		}
		next := func() *harness.Result {
			sr := results[0]
			results = results[1:]
			if sr.Err != nil && rep.Err == nil {
				rep.Err = fmt.Errorf("replicate %s seed %d: %w", sr.Scenario.Name, sr.Scenario.Seed, sr.Err)
			}
			return sr.Result
		}
		for _, seed := range rp.Seeds {
			run := SeedRun{Seed: seed, Result: next()}
			if rp.Twin != nil {
				run.Twin = next()
			}
			rep.Runs = append(rep.Runs, run)
		}
		out[i] = rep
	}
	return out
}

// RatioCap bounds ratio metrics when the twin completed nothing: total
// starvation reads as "at least this much better", keeping the sample
// arithmetic finite while any sane lower-band claim still holds.
const RatioCap = 1000

// Metric extracts one number from a seed's outcome.
type Metric struct {
	Name string
	F    func(SeedRun) float64
}

// twinMetric is a metric over a seed's run and its twin. Without a twin
// it is NaN, which no claim band contains.
func twinMetric(name string, f func(r, twin *harness.Result) float64) Metric {
	return Metric{name, func(r SeedRun) float64 {
		if r.Twin == nil {
			return math.NaN()
		}
		return f(r.Result, r.Twin)
	}}
}

// The standard claim metrics.
var (
	// MetricCompleted is completions inside the measurement window.
	MetricCompleted = Metric{"completed", func(r SeedRun) float64 { return float64(r.Result.Completed) }}
	// MetricThroughputRatio is run/twin completions within the seed
	// (capped at RatioCap on twin starvation).
	MetricThroughputRatio = twinMetric("ratio", func(r, twin *harness.Result) float64 {
		if twin.Completed == 0 {
			return RatioCap
		}
		return math.Min(RatioCap, float64(r.Completed)/float64(twin.Completed))
	})
	// MetricErrorMargin is twin minus run errors within the seed:
	// positive means the twin failed more.
	MetricErrorMargin = twinMetric("err-margin", func(r, twin *harness.Result) float64 {
		return float64(twin.Errors - r.Errors)
	})
	// MetricOvercommitMargin is twin minus run overcommit within the
	// seed: positive means governance kept the throttled server cooler.
	MetricOvercommitMargin = twinMetric("oc-margin", func(r, twin *harness.Result) float64 {
		return twin.AvgOvercommitRatio - r.AvgOvercommitRatio
	})
	// MetricCompileP50 is the compile-latency median in seconds.
	MetricCompileP50 = Metric{"compile-p50s", func(r SeedRun) float64 { return r.Result.CompileP50.Seconds() }}
	// MetricCompileP90 is the compile-latency p90 in seconds.
	MetricCompileP90 = Metric{"compile-p90s", func(r SeedRun) float64 { return r.Result.CompileP90.Seconds() }}
	// MetricExecP50 is the execution-latency median in seconds.
	MetricExecP50 = Metric{"exec-p50s", func(r SeedRun) float64 { return r.Result.ExecP50.Seconds() }}
	// MetricGatewayTimeouts counts throttle-induced timeouts.
	MetricGatewayTimeouts = Metric{"gw-timeouts", func(r SeedRun) float64 { return float64(r.Result.GatewayTimeouts) }}
	// MetricRecoveryTime is seconds from fault clear to recovered
	// throughput (fault scenarios only). A run that never got back within
	// 10% of its pre-fault throughput scores the whole remaining horizon —
	// a penalty any bounded-recovery band rejects.
	MetricRecoveryTime = Metric{"recovery-s", func(r SeedRun) float64 {
		if !r.Result.Recovered {
			return (r.Result.Options.Horizon - r.Result.Options.Fault.LastClear()).Seconds()
		}
		return r.Result.RecoveryTime.Seconds()
	}}
	// MetricRetries counts client-side resubmissions over the run.
	MetricRetries = Metric{"retries", func(r SeedRun) float64 { return float64(r.Result.Load.Retries) }}
	// MetricPlanCacheHitRate is the end-of-run plan-cache hit rate,
	// pooled across nodes on cluster runs.
	MetricPlanCacheHitRate = Metric{"plan-hit-rate", func(r SeedRun) float64 { return r.Result.PlanCacheHitRate }}
	// MetricRerouted counts submissions the cluster router steered away
	// from the policy's first choice (down, tripped, or unhealthy node).
	MetricRerouted = Metric{"rerouted", func(r SeedRun) float64 { return float64(r.Result.Rerouted) }}
	// MetricRouterAllExcluded counts submissions that found every node
	// excluded and went to the policy's first choice anyway.
	MetricRouterAllExcluded = Metric{"all-excluded", func(r SeedRun) float64 { return float64(r.Result.RouterAllExcluded) }}
)

// Samples extracts m across the seeds, in seed order.
func (r *ReplicationReport) Samples(m Metric) []float64 {
	out := make([]float64, len(r.Runs))
	for i, run := range r.Runs {
		out[i] = m.F(run)
	}
	return out
}
