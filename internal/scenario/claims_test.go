package scenario

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// The paper-claim tests assert distributions, not draws: each names its
// rows of Claims() in claimTests, and every row replicates its scenario
// over ClaimSeeds() (5 by default; PR CI narrows to 3 through
// CLAIMS_SEEDS; rows with MinSeeds keep at least that many) at the
// paper's full windows, holding only when the bootstrap confidence
// interval of its metric sits inside the band. Compressed windows are
// deliberately not used: at 3 h/45 min the figure3 separation genuinely
// fails on some seeds (seed 3 gives 0.99x), which is exactly the
// lucky-draw failure mode replication exists to expose.

// claimTests gives each claim test of this package its rows of Claims().
// The §5.2 rows on the uncalibrated machine (harnessClaims) are asserted
// by internal/harness's tests.
var claimTests = map[string]func(Claim) bool{
	// figure3's headline separation at 30 clients: the ratio, the
	// baseline's thrash regime and the throttled server's cooler margin.
	"TestClaimThroughputSeparation": func(c Claim) bool { return c.Scenario.Name == "figure3" && !compileQuantile(c) },
	// §5.2's compile-duration profile at figure3's calibration.
	"TestClaimCompileDurationBand":        func(c Claim) bool { return c.Scenario.Name == "figure3" && compileQuantile(c) },
	"TestClaimMidloadSeparation":          onScenario("figure4"),
	"TestClaimCollapseAtForty":            onScenario("figure5"),
	"TestClaimRetryStorm":                 onScenario("retry-storm"),
	"TestClaimBoundedRecovery":            onScenario("fault-diskstall", "fault-crash-restart"),
	"TestClaimAffinityPlanCacheLocality":  onScenario("cluster-affinity"),
	"TestClaimThrashShedThroughputMargin": onScenario("cluster-thrash-shed"),
	"TestClaimStormDoesNotTripFleet":      onScenario("cluster-compile-storm"),
	"TestClaimBreakerBoundedRecovery":     onScenario("cluster-breaker-recovery"),
}

var harnessClaims = onScenario("latency-profile", "overload-30", "small-query-bypass")

func onScenario(names ...string) func(Claim) bool {
	return func(c Claim) bool {
		for _, n := range names {
			if c.Scenario.Name == n {
				return true
			}
		}
		return false
	}
}

func compileQuantile(c Claim) bool {
	return c.Metric.Name == MetricCompileP50.Name || c.Metric.Name == MetricCompileP90.Name
}

// claimRun holds the verdicts of every row claimTests names, replicated
// in one sweep by the first claim test that runs.
var claimRun struct {
	sync.Once
	verdicts []Verdict
}

// assertClaims asserts the calling test's rows of Claims().
func assertClaims(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	claimRun.Do(func() {
		var rows []Claim
		for _, c := range Claims() {
			if !harnessClaims(c) {
				rows = append(rows, c)
			}
		}
		claimRun.verdicts = RunClaims(rows, ClaimSeeds())
	})
	owns, n := claimTests[t.Name()], 0
	for _, v := range claimRun.verdicts {
		if !owns(v.Claim) {
			continue
		}
		n++
		if v.Err != nil {
			t.Error(v.Err)
			continue
		}
		t.Logf("claim %q holds: %s = %s", v.Text, v.Metric.Name, v.Summary)
	}
	if n == 0 {
		t.Fatal("no rows of Claims() belong to this test")
	}
}

// TestClaims checks the table itself, under -short too: 26 well-formed,
// unique rows, each asserted by exactly one claim test.
func TestClaims(t *testing.T) {
	claims := Claims()
	if len(claims) != 26 {
		t.Fatalf("Claims() has %d rows, want 26", len(claims))
	}
	seen := map[string]bool{}
	for _, c := range claims {
		if seen[c.Text] || c.Metric.F == nil || !(c.Lo <= c.Hi) || c.Scenario.Validate() != nil {
			t.Fatalf("malformed or duplicate claim row %q", c.Text)
		}
		seen[c.Text] = true
		var owners []string
		for name, owns := range claimTests {
			if owns(c) {
				owners = append(owners, name)
			}
		}
		if harnessClaims(c) {
			owners = append(owners, "internal/harness")
		}
		if len(owners) != 1 {
			t.Errorf("claim %q is asserted by %v, want exactly one test", c.Text, owners)
		}
	}
}

func TestClaimThroughputSeparation(t *testing.T)       { assertClaims(t) }
func TestClaimCompileDurationBand(t *testing.T)        { assertClaims(t) }
func TestClaimMidloadSeparation(t *testing.T)          { assertClaims(t) }
func TestClaimCollapseAtForty(t *testing.T)            { assertClaims(t) }
func TestClaimRetryStorm(t *testing.T)                 { assertClaims(t) }
func TestClaimBoundedRecovery(t *testing.T)            { assertClaims(t) }
func TestClaimAffinityPlanCacheLocality(t *testing.T)  { assertClaims(t) }
func TestClaimThrashShedThroughputMargin(t *testing.T) { assertClaims(t) }
func TestClaimStormDoesNotTripFleet(t *testing.T)      { assertClaims(t) }
func TestClaimBreakerBoundedRecovery(t *testing.T)     { assertClaims(t) }

// claimCheck checks a synthetic claim over xs.
func claimCheck(c Claim, xs []float64) error {
	c.Text, c.Metric = "synthetic", MetricCompleted
	_, err := c.Check(xs)
	return err
}

// TestClaimBandCheck: a claim's band holds only when the CI is inside it.
func TestClaimBandCheck(t *testing.T) {
	xs := []float64{10, 12, 11, 13, 9}
	// Holds: the CI of mean≈11 sits inside a generous band, or one
	// unbounded above.
	if err := claimCheck(Claim{Lo: 5, Hi: 20}, xs); err != nil {
		t.Fatalf("claim should hold: %v", err)
	}
	if err := claimCheck(Claim{Lo: 5, Hi: math.Inf(1)}, xs); err != nil {
		t.Fatalf("unbounded claim should hold: %v", err)
	}
	// Fails: band above the sample.
	if claimCheck(Claim{Lo: 50, Hi: 60}, xs) == nil {
		t.Fatal("claim above the sample held")
	}
	// Invalid band.
	if claimCheck(Claim{Lo: 2, Hi: 1}, xs) == nil {
		t.Fatal("inverted band accepted")
	}
	// Seed floors: 2 samples < the default 3; 5 < MinSeeds 10.
	if claimCheck(Claim{Lo: 0, Hi: 100}, xs[:2]) == nil {
		t.Fatal("2-seed replication passed the 3-seed floor")
	}
	if claimCheck(Claim{Lo: 0, Hi: 100, MinSeeds: 10}, xs) == nil {
		t.Fatal("5-seed replication passed a 10-seed floor")
	}
	// Exactly-zero band over an all-zero sample.
	if err := claimCheck(Claim{Lo: 0, Hi: 0}, []float64{0, 0, 0}); err != nil {
		t.Fatalf("all-zero sample failed the [0,0] band: %v", err)
	}
	// A NaN sample makes a NaN interval, which is inside no band.
	if claimCheck(Claim{Lo: 1, Hi: 2}, []float64{1.5, math.NaN(), 1.5}) == nil {
		t.Fatal("NaN sample held a [1, 2] band")
	}
}

// TestClaimBandAssertPrintsPerSeedTable: a failing claim's error names
// the claim and metric and carries the per-seed samples.
func TestClaimBandAssertPrintsPerSeedTable(t *testing.T) {
	err := claimCheck(Claim{Lo: 50, Hi: 60}, []float64{10, 12, 11})
	if err == nil {
		t.Fatal("claim above the sample held")
	}
	for _, want := range []string{"synthetic", "completed", "per-seed samples [10 12 11]"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("failure output missing %q: %v", want, err)
		}
	}
}

// TestRunClaimsSharesReplications: rows on the same scenario, twin and
// seed count share one report, whose runs happen once; a row with no
// twin or more seeds gets its own.
func TestRunClaimsSharesReplications(t *testing.T) {
	s := cheapScenario()
	rows := []Claim{
		{Text: "a", Scenario: s, Twin: Scenario.Baseline, Metric: MetricThroughputRatio, Lo: 0, Hi: math.Inf(1)},
		{Text: "b", Scenario: s, Twin: Scenario.Baseline, Metric: MetricCompleted, Lo: 0, Hi: math.Inf(1)},
		{Text: "c", Scenario: s, Metric: MetricCompleted, Lo: 0, Hi: math.Inf(1)},
		{Text: "d", Scenario: s, Metric: MetricCompleted, Lo: 0, Hi: math.Inf(1), MinSeeds: 4},
	}
	// The + and - twins of one knob: the scenarios differ only in the
	// knob and the name, and must not be merged.
	for _, twin := range KnobTwins()[:2] {
		rows = append(rows, Claim{Text: "knob", Scenario: twin(s), Twin: Scenario.Baseline, Metric: MetricCompleted, Lo: 0, Hi: math.Inf(1)})
	}
	vs := RunClaims(rows, Seeds(3))
	for _, v := range vs {
		if v.Err != nil {
			t.Fatalf("row %s: %v", v.Text, v.Err)
		}
	}
	if vs[0].Report != vs[1].Report {
		t.Fatal("rows on one scenario and twin replicated twice")
	}
	if vs[2].Report == vs[0].Report || vs[3].Report == vs[2].Report {
		t.Fatal("rows with a different twin or seed count shared a replication")
	}
	if up, down := vs[4].Scenario.Name, vs[5].Scenario.Name; up != s.Name+"~reserve+10%" || down != s.Name+"~reserve-10%" ||
		vs[4].Report == vs[5].Report || vs[4].Report == vs[0].Report || vs[5].Report == vs[0].Report {
		t.Fatalf("knob twins %s and %s merged with each other or with their scenario", up, down)
	}
	if n := len(vs[3].Report.Runs); n != 4 || vs[3].Summary.N != 4 {
		t.Fatalf("MinSeeds 4 ran %d seeds", n)
	}
	for i, run := range vs[0].Report.Runs {
		if run.Twin == nil || vs[2].Report.Runs[i].Twin != nil {
			t.Fatalf("seed %d: twin runs where they were not asked for, or missing", run.Seed)
		}
		if !sameResult(run.Result, vs[2].Report.Runs[i].Result) {
			t.Fatalf("seed %d: the same scenario and seed measured differently", run.Seed)
		}
	}
}
