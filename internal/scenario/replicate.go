package scenario

import (
	"fmt"
	"math"
	"os"
	"strings"

	"compilegate/internal/harness"
)

// This file is the multi-seed replication runner: every paper claim the
// repository pins is asserted over a population of seeds, not a single
// lucky draw. Seeds become sweep jobs through RunSweep, so the
// worker-count invariance of the sweep carries over to replications for
// free: a replication's per-seed results are byte-identical at any worker
// count.

// Seeds returns the canonical replication seed list {1..n}. Claims
// tests default to Seeds(DefaultClaimSeeds), overridable through the
// CLAIMS_SEEDS environment variable (see ClaimSeeds).
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

// ClaimSeeds resolves the claims-test seed list: CLAIMS_SEEDS when set
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
	// Paired additionally runs the unthrottled Baseline twin under each
	// seed, so ratio metrics compare the pair within a seed.
	Paired bool
	// Workers bounds sweep concurrency (0 = all cores). The results are
	// identical at every worker count.
	Workers int
}

// SeedRun is one seed's outcome within a replication.
type SeedRun struct {
	Seed     int64
	Result   *harness.Result
	Baseline *harness.Result // nil unless the replication was Paired
}

// ReplicationReport holds a finished replication in seed order.
type ReplicationReport struct {
	Scenario Scenario
	Paired   bool
	Runs     []SeedRun
}

// Run executes the replication: one scenario run per seed (plus the
// baseline twin when Paired), all through RunSweep. The first failed
// run aborts with its scenario name and seed.
func (rp Replication) Run() (*ReplicationReport, error) {
	if len(rp.Seeds) == 0 {
		return nil, fmt.Errorf("replicate %s: no seeds", rp.Scenario.Name)
	}
	per := 1
	if rp.Paired {
		per = 2
	}
	jobs := make([]Scenario, 0, per*len(rp.Seeds))
	for _, seed := range rp.Seeds {
		s := rp.Scenario.WithSeed(seed)
		jobs = append(jobs, s)
		if rp.Paired {
			jobs = append(jobs, s.Baseline())
		}
	}
	results := RunSweep(jobs, rp.Workers)
	rep := &ReplicationReport{Scenario: rp.Scenario, Paired: rp.Paired}
	for i, seed := range rp.Seeds {
		run := SeedRun{Seed: seed}
		sr := results[per*i]
		if sr.Err != nil {
			return nil, fmt.Errorf("replicate %s seed %d: %w", sr.Scenario.Name, seed, sr.Err)
		}
		run.Result = sr.Result
		if rp.Paired {
			ba := results[per*i+1]
			if ba.Err != nil {
				return nil, fmt.Errorf("replicate %s seed %d: %w", ba.Scenario.Name, seed, ba.Err)
			}
			run.Baseline = ba.Result
		}
		rep.Runs = append(rep.Runs, run)
	}
	return rep, nil
}

// RatioCap bounds ratio metrics when the baseline completed nothing:
// total starvation reads as "at least this much better", keeping the
// sample arithmetic finite while any sane lower-band claim still holds.
const RatioCap = 1000

// Metric extracts one number from a seed's outcome.
type Metric struct {
	Name string
	F    func(SeedRun) float64
}

// The standard claim metrics.
var (
	// MetricCompleted is completions inside the measurement window.
	MetricCompleted = Metric{"completed", func(r SeedRun) float64 { return float64(r.Result.Completed) }}
	// MetricErrors is failed queries inside the window.
	MetricErrors = Metric{"errors", func(r SeedRun) float64 { return float64(r.Result.Errors) }}
	// MetricThroughputRatio is throttled/baseline completions within the
	// seed (paired replications only; capped at RatioCap on baseline
	// starvation).
	MetricThroughputRatio = Metric{"ratio", func(r SeedRun) float64 {
		if r.Baseline == nil || r.Baseline.Completed == 0 {
			return RatioCap
		}
		return math.Min(RatioCap, float64(r.Result.Completed)/float64(r.Baseline.Completed))
	}}
	// MetricErrorMargin is baseline minus throttled errors within the
	// seed (paired): positive means the baseline failed more.
	MetricErrorMargin = Metric{"err-margin", func(r SeedRun) float64 {
		return float64(r.Baseline.Errors - r.Result.Errors)
	}}
	// MetricOvercommit is the mean wired-memory overcommit ratio.
	MetricOvercommit = Metric{"overcommit", func(r SeedRun) float64 { return r.Result.AvgOvercommitRatio }}
	// MetricOvercommitMargin is baseline minus throttled overcommit
	// within the seed (paired): positive means governance kept the
	// throttled server cooler.
	MetricOvercommitMargin = Metric{"oc-margin", func(r SeedRun) float64 {
		return r.Baseline.AvgOvercommitRatio - r.Result.AvgOvercommitRatio
	}}
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
	// pooled across nodes on cluster runs — the routing-locality claim
	// compares it between affinity and round-robin twins.
	MetricPlanCacheHitRate = Metric{"plan-hit-rate", func(r SeedRun) float64 { return r.Result.PlanCacheHitRate }}
	// MetricRerouted counts submissions the cluster router steered away
	// from the policy's first choice (down, tripped, or unhealthy node).
	MetricRerouted = Metric{"rerouted", func(r SeedRun) float64 { return float64(r.Result.Rerouted) }}
	// MetricResubmitted counts router-level failover resubmissions after
	// crashed responses.
	MetricResubmitted = Metric{"resubmitted", func(r SeedRun) float64 { return float64(r.Result.Resubmitted) }}
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

// Summary is the Summarize of m's samples at the given confidence
// (0 → 0.95).
func (r *ReplicationReport) Summary(m Metric, confidence float64) Summary {
	return Summarize(r.Samples(m), confidence)
}

// Table renders the per-seed values of the given metrics — the full
// replication evidence a failed claim prints.
func (r *ReplicationReport) Table(metrics ...Metric) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s", "seed")
	for _, m := range metrics {
		fmt.Fprintf(&sb, " %14s", m.Name)
	}
	sb.WriteString("\n")
	for _, run := range r.Runs {
		fmt.Fprintf(&sb, "%-6d", run.Seed)
		for _, m := range metrics {
			fmt.Fprintf(&sb, " %14.3f", m.F(run))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// CSV renders the per-seed metric table as CSV (the nightly replication
// artifact format).
func (r *ReplicationReport) CSV(metrics ...Metric) string {
	var sb strings.Builder
	sb.WriteString("scenario,seed")
	for _, m := range metrics {
		sb.WriteString(",")
		sb.WriteString(m.Name)
	}
	sb.WriteString("\n")
	for _, run := range r.Runs {
		fmt.Fprintf(&sb, "%s,%d", r.Scenario.Name, run.Seed)
		for _, m := range metrics {
			fmt.Fprintf(&sb, ",%g", m.F(run))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// WriteCSVEnv appends the report's CSV to $REPLICATION_CSV_DIR/<name>.csv
// when that environment variable is set (the nightly workflow collects
// the directory as its artifact); otherwise it does nothing. Errors are
// returned so tests can surface them without failing the claim itself.
func (r *ReplicationReport) WriteCSVEnv(metrics ...Metric) error {
	dir := os.Getenv("REPLICATION_CSV_DIR")
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := dir + "/" + r.Scenario.Name + ".csv"
	return os.WriteFile(path, []byte(r.CSV(metrics...)), 0o644)
}

// TB is the subset of testing.TB the claim assertions use, declared
// locally so the library does not import the testing package.
type TB interface {
	Helper()
	Logf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// ClaimBand is a paper claim stated as a band over a replicated
// metric: the claim holds when the bootstrap confidence interval for
// the metric's mean lies entirely inside [Lo, Hi]. A claim is a
// statement about the distribution — a single lucky seed cannot pass
// it, and a single unlucky seed cannot fail it.
type ClaimBand struct {
	// Claim names the paper claim in failure output.
	Claim string
	// Metric is the replicated statistic under test.
	Metric Metric
	// Lo/Hi bound the band (inclusive, Hi >= Lo); claims with no upper
	// bound write Hi: math.Inf(1). A [0, 0] band claims "exactly zero
	// on every seed" (the CI of an all-zero sample is degenerate).
	Lo, Hi float64
	// Confidence is the CI coverage (0 → 0.95).
	Confidence float64
	// MinSeeds guards against accidentally thin populations
	// (0 → 3: the PR-CI subset floor; nightly runs 5+).
	MinSeeds int
}

// CheckSamples evaluates the claim band directly over per-seed samples
// — for claims whose replicated statistic is not a harness metric
// (optimizer-level measurements, cross-scenario margins).
func (b ClaimBand) CheckSamples(xs []float64) (Summary, error) {
	minSeeds := b.MinSeeds
	if minSeeds == 0 {
		minSeeds = 3
	}
	if b.Hi < b.Lo {
		return Summary{}, fmt.Errorf("claim %q: invalid band [%g, %g]", b.Claim, b.Lo, b.Hi)
	}
	s := Summarize(xs, b.Confidence)
	if s.N < minSeeds {
		return s, fmt.Errorf("claim %q: %d seeds < the %d-seed floor", b.Claim, s.N, minSeeds)
	}
	if s.CI.Lo < b.Lo || s.CI.Hi > b.Hi {
		return s, fmt.Errorf("claim %q: %s CI [%.3f, %.3f] not within [%g, %g] (%s)",
			b.Claim, b.Metric.Name, s.CI.Lo, s.CI.Hi, b.Lo, b.Hi, s)
	}
	return s, nil
}

// AssertSamples is CheckSamples wired to a test: a failed claim prints
// the per-seed samples, a passing one logs the interval.
func (b ClaimBand) AssertSamples(t TB, xs []float64) Summary {
	t.Helper()
	s, err := b.CheckSamples(xs)
	if err != nil {
		t.Fatalf("%v\nper-seed samples: %v", err, xs)
	}
	t.Logf("claim %q holds: %s = %s", b.Claim, b.Metric.Name, s)
	return s
}

// Check evaluates the claim over the replication, returning the metric
// summary and a descriptive error when the claim does not hold.
func (b ClaimBand) Check(rep *ReplicationReport) (Summary, error) {
	return b.CheckSamples(rep.Samples(b.Metric))
}

// Assert is Check wired to a test: a failed claim prints the summary
// and the full per-seed table, a passing one logs the interval.
func (b ClaimBand) Assert(t TB, rep *ReplicationReport) Summary {
	t.Helper()
	s, err := b.Check(rep)
	if err != nil {
		t.Fatalf("%v\nper-seed replication table:\n%s", err, rep.Table(b.Metric))
	}
	t.Logf("claim %q holds: %s = %s", b.Claim, b.Metric.Name, s)
	return s
}
