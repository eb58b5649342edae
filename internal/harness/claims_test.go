// The paper-claim tests live in an external test package so they can
// replicate through internal/scenario (which imports harness): every
// claim is asserted as a band over a multi-seed population with a
// bootstrap confidence interval, never a single draw.
package harness_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"compilegate/internal/catalog"
	"compilegate/internal/optimizer"
	"compilegate/internal/scenario"
	"compilegate/internal/sqlparser"
	"compilegate/internal/stats"
	"compilegate/internal/workload"
)

// defaultsScenario is SALES on the uncalibrated machine (engine.DefaultConfig
// but for the recorder's slice, which is the warm-up: every window here is
// a whole number of those), with a compressed window for test cost.
func defaultsScenario(name string, clients int, horizon, warmup time.Duration) scenario.Scenario {
	return scenario.Scenario{
		Name:        name,
		Description: "harness defaults at " + name,
		Clients:     clients,
		Scale:       0.04,
		Workload:    workload.SpecSales,
		Horizon:     horizon,
		Warmup:      warmup,
		Throttled:   true,
		Seed:        1,
	}.WithSlice(warmup)
}

// replicate runs an unpaired replication over the claim seeds.
func replicate(t *testing.T, s scenario.Scenario) *scenario.ReplicationReport {
	t.Helper()
	rep, err := scenario.Replication{Scenario: s, Seeds: scenario.ClaimSeeds()}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSVEnv(scenario.MetricCompleted, scenario.MetricErrors,
		scenario.MetricCompileP50, scenario.MetricExecP50, scenario.MetricGatewayTimeouts); err != nil {
		t.Logf("replication CSV artifact: %v", err)
	}
	return rep
}

// TestClaimCompileMemoryRatio pins §5.1: SALES compilations use one to
// two orders of magnitude more memory than TPC-H queries. The ratio is
// replicated over workload-generator seeds — each seed draws a fresh
// 20-query sample from both generators.
func TestClaimCompileMemoryRatio(t *testing.T) {
	salesCat := catalog.NewSales(catalog.SalesConfig{Scale: 0.04, ExtentBytes: 8 << 20})
	tpchCat := catalog.NewTPCHLike(0.0004, 8<<20)
	salesOpt := optimizer.New(stats.NewEstimator(salesCat), optimizer.DefaultConfig())
	tpchOpt := optimizer.New(stats.NewEstimator(tpchCat), optimizer.DefaultConfig())

	compileBytes := func(opt *optimizer.Optimizer, sql string) int64 {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := opt.Optimize(q, optimizer.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		return p.CompileBytes
	}

	var ratios []float64
	for _, seed := range scenario.ClaimSeeds() {
		rng := rand.New(rand.NewSource(seed))
		salesGen, tpchGen := workload.NewSales(), workload.NewTPCH()
		var salesBytes, tpchBytes int64
		for i := 0; i < 20; i++ {
			salesBytes += compileBytes(salesOpt, salesGen.Next(rng))
			tpchBytes += compileBytes(tpchOpt, tpchGen.Next(rng))
		}
		ratios = append(ratios, float64(salesBytes)/float64(tpchBytes))
	}
	scenario.ClaimBand{
		Claim:  "§5.1: SALES/TPC-H compile memory ratio is 1-2 orders of magnitude",
		Metric: scenario.Metric{Name: "mem-ratio"}, Lo: 10, Hi: 300,
	}.AssertSamples(t, ratios)
}

// TestClaimLatencyProfile pins §5.2: compiles of 10-90 s, executions of
// 30 s - 10 min (medians, with slack for the simulation's histogram
// bucketing), across the seed population at the harness defaults.
func TestClaimLatencyProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	rep := replicate(t, defaultsScenario("latency-profile", 30, 90*time.Minute, 15*time.Minute))
	scenario.ClaimBand{
		Claim:  "§5.2: compile p50 within the 10-90 s band (bucketed)",
		Metric: scenario.MetricCompileP50, Lo: 5, Hi: 180,
	}.Assert(t, rep)
	scenario.ClaimBand{
		Claim:  "§5.2: exec p50 within the 30 s - 10 min band (bucketed)",
		Metric: scenario.MetricExecP50, Lo: 20, Hi: 900,
	}.Assert(t, rep)
}

// TestClaimErrorsRiseWithOverload pins the §5.2 observation that pushing
// past the saturation point causes resource failures: within every
// seed, 40 clients produce more errors than 30.
func TestClaimErrorsRiseWithOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	at30 := replicate(t, defaultsScenario("overload-30", 30, 90*time.Minute, 15*time.Minute))
	at40 := replicate(t, defaultsScenario("overload-40", 40, 90*time.Minute, 15*time.Minute))
	e30 := at30.Samples(scenario.MetricErrors)
	e40 := at40.Samples(scenario.MetricErrors)
	margins := make([]float64, len(e30))
	for i := range margins {
		margins[i] = e40[i] - e30[i]
	}
	scenario.ClaimBand{
		Claim:  "§5.2: errors rise when pushed past saturation (40 vs 30 clients)",
		Metric: scenario.Metric{Name: "overload-err-margin"}, Lo: 1, Hi: math.Inf(1),
	}.AssertSamples(t, margins)
}

// TestClaimSmallQueryBypass pins the diagnostic-query property: a mixed
// workload's point queries never block at the gates — zero gateway
// timeouts on every seed, while work still completes.
func TestClaimSmallQueryBypass(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	s := defaultsScenario("small-query-bypass", 16, 40*time.Minute, 5*time.Minute)
	s.Workload = workload.SpecMix
	rep := replicate(t, s)
	scenario.ClaimBand{
		Claim:  "bypass: a mixed workload never times out at the gates",
		Metric: scenario.MetricGatewayTimeouts, Lo: 0, Hi: 0,
	}.Assert(t, rep)
	scenario.ClaimBand{
		Claim:  "bypass: the mixed workload still completes work",
		Metric: scenario.MetricCompleted, Lo: 1, Hi: math.Inf(1),
	}.Assert(t, rep)
}
