// The simulated paper claims are rows of scenario.Claims(); the tests
// below assert the §5.2 rows on the uncalibrated machine (scenario's
// TestClaims checks each row has one test). The §5.1 compile-memory ratio
// is an optimizer measurement, replicated over workload-generator seeds
// and checked as a scenario.Claim band. This external test package can
// use internal/scenario, which imports harness.
package harness_test

import (
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
	c := scenario.Claim{
		Text:   "§5.1: SALES/TPC-H compile memory ratio is 1-2 orders of magnitude",
		Metric: scenario.Metric{Name: "mem-ratio"}, Lo: 10, Hi: 300,
	}
	s, err := c.Check(ratios)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("claim %q holds: %s = %s", c.Text, c.Metric.Name, s)
}

// assertClaims asserts the rows of scenario.Claims() on the named
// scenario, replicated over scenario.ClaimSeeds().
func assertClaims(t *testing.T, name string) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	var rows []scenario.Claim
	for _, c := range scenario.Claims() {
		if c.Scenario.Name == name {
			rows = append(rows, c)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("no rows of scenario.Claims() on %q", name)
	}
	for _, v := range scenario.RunClaims(rows, scenario.ClaimSeeds()) {
		if v.Err != nil {
			t.Error(v.Err)
			continue
		}
		t.Logf("claim %q holds: %s = %s", v.Text, v.Metric.Name, v.Summary)
	}
}

// TestClaimLatencyProfile pins §5.2: compiles of 10-90 s, executions of
// 30 s - 10 min (medians, with slack for the simulation's histogram
// bucketing), across the seed population at the harness defaults.
func TestClaimLatencyProfile(t *testing.T) { assertClaims(t, "latency-profile") }

// TestClaimErrorsRiseWithOverload pins the §5.2 observation that pushing
// past the saturation point causes resource failures: 40 clients produce
// more errors than 30 (the row's 40-client twin), seed by seed.
func TestClaimErrorsRiseWithOverload(t *testing.T) { assertClaims(t, "overload-30") }

// TestClaimSmallQueryBypass pins the diagnostic-query property: a mixed
// workload's point queries never block at the gates — zero gateway
// timeouts on every seed, while work still completes.
func TestClaimSmallQueryBypass(t *testing.T) { assertClaims(t, "small-query-bypass") }
