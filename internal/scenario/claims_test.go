package scenario

import (
	"math"
	"sync"
	"testing"
)

// The paper-claim tests below assert distributions, not draws: every
// claim replicates its scenario over ClaimSeeds() (5 by default; PR CI
// narrows to 3 through CLAIMS_SEEDS; generator-sensitive claims keep at
// least 10, see generatorSensitive) at the paper's full 8 h window
// measured from 3 h, and holds only when the bootstrap confidence
// interval of the metric sits inside the claimed band. Compressed
// windows are deliberately not used here: at 3 h/45 min the figure3
// separation genuinely fails on some seeds (seed 3 gives 0.99x), which
// is exactly the lucky-draw failure mode replication exists to expose.

// generatorSensitive names the replications with a claim whose verdict
// moved when only the random source did (EXPERIMENTS.md, "Claims ×
// perturbations"): figure3's >= 1.2x separation holds over ten seeds under
// either generator but its five-seed interval reaches down to 1.17 under
// PCG, and fault-crash-restart's one-hour recovery bound needs more than
// three seeds once a single one of them never recovers. They are asserted
// over at least ten seeds, whatever CLAIMS_SEEDS says.
var generatorSensitive = map[string]bool{"figure3": true, "fault-crash-restart": true}

// claimReplication runs the named figure's paired replication over the
// claim seed population, memoized so the figure3 claims share one set
// of simulations. The CSV artifact is written when REPLICATION_CSV_DIR
// is set (the nightly workflow collects it).
var claimReps sync.Map // name -> *ReplicationReport

func claimReplication(t *testing.T, name string) *ReplicationReport {
	t.Helper()
	if rep, ok := claimReps.Load(name); ok {
		return rep.(*ReplicationReport)
	}
	seeds := ClaimSeeds()
	if generatorSensitive[name] && len(seeds) < 10 {
		seeds = Seeds(10)
	}
	rep, err := Replication{Scenario: MustGet(t, name), Seeds: seeds, Paired: true}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSVEnv(MetricCompleted, MetricErrors, MetricThroughputRatio,
		MetricOvercommit, MetricOvercommitMargin, MetricCompileP50, MetricCompileP90); err != nil {
		t.Logf("replication CSV artifact: %v", err)
	}
	claimReps.Store(name, rep)
	return rep
}

// metricBaselineOvercommit reads the unthrottled twin's overcommit —
// the thrash-regime precondition behind the throughput claims.
var metricBaselineOvercommit = Metric{"ba-overcommit", func(r SeedRun) float64 {
	return r.Baseline.AvgOvercommitRatio
}}

// TestClaimThroughputSeparation pins the paper's headline claim at the
// figure3 operating point (30 clients): across the seed population the
// throttled server sustains at least 1.2x the unthrottled baseline
// (the paper shows ~1.35x), the baseline genuinely thrashes
// (overcommit > 1), and governance keeps the throttled server cooler.
func TestClaimThroughputSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	rep := claimReplication(t, "figure3")
	ClaimBand{
		Claim:  "figure3: throttled sustains >= 1.2x baseline throughput at 30 clients",
		Metric: MetricThroughputRatio, Lo: 1.2, Hi: math.Inf(1),
	}.Assert(t, rep)
	ClaimBand{
		Claim:  "figure3: the unthrottled baseline is overcommitted (thrash regime)",
		Metric: metricBaselineOvercommit, Lo: 1.0, Hi: math.Inf(1),
	}.Assert(t, rep)
	ClaimBand{
		Claim:  "figure3: governance keeps the throttled server cooler than baseline",
		Metric: MetricOvercommitMargin, Lo: 0.02, Hi: math.Inf(1),
	}.Assert(t, rep)
}

// TestClaimMidloadSeparation pins Figure 4's point (35 clients): the
// separation grows with load — at least 1.3x across the population.
func TestClaimMidloadSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	rep := claimReplication(t, "figure4")
	ClaimBand{
		Claim:  "figure4: throttled sustains >= 1.3x baseline throughput at 35 clients",
		Metric: MetricThroughputRatio, Lo: 1.3, Hi: math.Inf(1),
	}.Assert(t, rep)
}

// TestClaimCollapseAtForty pins Figure 5's qualitative claim: at 40
// clients the unthrottled baseline collapses — the throttled server
// sustains at least twice its throughput (baseline starvation reads as
// RatioCap and counts as collapse) while the baseline drowns in
// hundreds more failures (out-of-memory under a thrashing,
// VAS-exhausted machine).
func TestClaimCollapseAtForty(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	rep := claimReplication(t, "figure5")
	ClaimBand{
		Claim:  "figure5: throttled sustains >= 2x baseline throughput at 40 clients",
		Metric: MetricThroughputRatio, Lo: 2, Hi: math.Inf(1),
	}.Assert(t, rep)
	ClaimBand{
		Claim:  "figure5: the collapsing baseline fails hundreds more queries",
		Metric: MetricErrorMargin, Lo: 500, Hi: math.Inf(1),
	}.Assert(t, rep)
}

// TestClaimCompileDurationBand pins the unification the staged
// compile-memory model buys: at the *same* calibration that produces
// the Figures 3-5 separation (figure3's operating point), the
// throttled server's compile-duration distribution still matches
// §5.2's 10-90 s ad-hoc profile — the median inside the band and the
// tail bounded. Histogram.Quantile reports the upper bound of the
// median's bucket (bounds ... 1s, 10s, 30s ...), so a median anywhere
// at or below the 10 s bucket reads as exactly 10 s — the band's lower
// edge sits just above 10 to reject sub-band medians.
func TestClaimCompileDurationBand(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	rep := claimReplication(t, "figure3")
	ClaimBand{
		Claim:  "figure3: compile p50 stays in the §5.2 10-90 s ad-hoc band",
		Metric: MetricCompileP50, Lo: 10.5, Hi: 90,
	}.Assert(t, rep)
	ClaimBand{
		Claim:  "figure3: compile p90 stays minutes, not the pre-stage tens of minutes",
		Metric: MetricCompileP90, Lo: 10.5, Hi: 300,
	}.Assert(t, rep)
}
