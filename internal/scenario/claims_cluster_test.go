package scenario

import (
	"testing"

	"compilegate/internal/cluster"
)

// Cluster-plane claims. The headline is routing locality: on a
// statement pool four times too wide to stay hot on every node,
// fingerprint-affinity routing compiles each statement on one home node
// while round-robin pays the cold-compilation bill on all four, so the
// affinity fleet's pooled plan-cache hit rate sits measurably higher.
// Calibration (5 seeds, registered window): affinity 0.953 vs
// round-robin 0.813, a ~0.14 margin with negligible seed variance.

// TestClaimAffinityPlanCacheLocality replicates cluster-affinity against
// its round-robin twin under each claim seed and pins the per-seed
// hit-rate margin to [0.10, 0.20], plus the affinity fleet's absolute
// hit rate.
func TestClaimAffinityPlanCacheLocality(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	aff := MustGet(t, "cluster-affinity")
	rr := aff
	rr.Name = "cluster-affinity-roundrobin"
	rr.Description = "round-robin twin of " + aff.Description
	rr.Router = cluster.RoundRobin

	seeds := ClaimSeeds()
	repAff, err := Replication{Scenario: aff, Seeds: seeds}.Run()
	if err != nil {
		t.Fatal(err)
	}
	repRR, err := Replication{Scenario: rr, Seeds: seeds}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := repAff.WriteCSVEnv(MetricCompleted, MetricErrors, MetricPlanCacheHitRate); err != nil {
		t.Logf("replication CSV artifact: %v", err)
	}

	ClaimBand{
		Claim:  "cluster-affinity: fleet plan-cache hit rate stays above 0.93",
		Metric: MetricPlanCacheHitRate, Lo: 0.93, Hi: 1,
	}.Assert(t, repAff)

	affHit := repAff.Samples(MetricPlanCacheHitRate)
	rrHit := repRR.Samples(MetricPlanCacheHitRate)
	margins := make([]float64, len(seeds))
	for i := range seeds {
		margins[i] = affHit[i] - rrHit[i]
	}
	ClaimBand{
		Claim:  "cluster-affinity: hit-rate margin over the round-robin twin is 0.10-0.20 per seed",
		Metric: MetricPlanCacheHitRate, Lo: 0.10, Hi: 0.20,
	}.AssertSamples(t, margins)
}

// TestClaimThrashShedThroughputMargin replicates cluster-thrash-shed
// against a blind twin (health envelope, breakers, and failover all
// off) under each claim seed. While the leak thrashes node 1, the
// blind router keeps feeding it work that crawls at the paging
// slowdown; the health-aware router reads the node's overcommit and
// thrash score and steers around it, so the fleet completes measurably
// more. Calibration (5 seeds): margins +38..+110 completions on a
// ~700-completion run, rerouted 95-138.
func TestClaimThrashShedThroughputMargin(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	on := MustGet(t, "cluster-thrash-shed")
	off := on
	off.Name = "cluster-thrash-shed-blind"
	off.Description = "blind-router twin of " + on.Description
	off.Health, off.Breaker, off.FailoverHops = false, false, 0

	seeds := ClaimSeeds()
	repOn, err := Replication{Scenario: on, Seeds: seeds}.Run()
	if err != nil {
		t.Fatal(err)
	}
	repOff, err := Replication{Scenario: off, Seeds: seeds}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := repOn.WriteCSVEnv(MetricCompleted, MetricErrors, MetricRerouted, MetricResubmitted); err != nil {
		t.Logf("replication CSV artifact: %v", err)
	}

	onC := repOn.Samples(MetricCompleted)
	offC := repOff.Samples(MetricCompleted)
	margins := make([]float64, len(seeds))
	for i := range seeds {
		margins[i] = onC[i] - offC[i]
	}
	ClaimBand{
		Claim:  "cluster-thrash-shed: health-aware routing completes 20-300 more queries than the blind twin per seed",
		Metric: MetricCompleted, Lo: 20, Hi: 300,
	}.AssertSamples(t, margins)
	ClaimBand{
		Claim:  "cluster-thrash-shed: the router actively steers around the thrashing node",
		Metric: MetricRerouted, Lo: 40, Hi: 400,
	}.Assert(t, repOn)
}

// TestClaimStormDoesNotTripFleet replicates cluster-compile-storm: a
// correlated compile-storm burst hits all four nodes at once. Client
// queries keep succeeding between sheds, so the consecutive-failure
// streak behind each breaker keeps resetting — the router must never
// find itself with zero admitting nodes. A breaker design that tripped
// the whole fleet open under correlated stress would fail this at the
// first seed. The completions band is the one PR 10 fitted, [600, 900],
// scaled by 65/60: it was fitted when the recorder counted 60 of the
// declared window's 65 minutes (EXPERIMENTS.md, "The one golden break").
func TestClaimStormDoesNotTripFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	rep, err := Replication{Scenario: MustGet(t, "cluster-compile-storm"), Seeds: ClaimSeeds()}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSVEnv(MetricCompleted, MetricErrors, MetricRouterAllExcluded); err != nil {
		t.Logf("replication CSV artifact: %v", err)
	}
	ClaimBand{
		Claim:  "cluster-compile-storm: correlated storms never leave the router with zero admitting nodes",
		Metric: MetricRouterAllExcluded, Lo: 0, Hi: 0,
	}.Assert(t, rep)
	ClaimBand{
		Claim:  "cluster-compile-storm: the stormed fleet keeps completing work",
		Metric: MetricCompleted, Lo: 650, Hi: 975,
	}.Assert(t, rep)
}

// TestClaimBreakerBoundedRecovery replicates cluster-breaker-recovery:
// the router has no liveness oracle, so node 1's 6-minute outage is
// discovered by fail-fast responses tripping its breaker, masked by
// failover resubmission, and healed through half-open probes after
// restart. Calibration (5 seeds): the breaker trips within a handful
// of submissions (7-8 trips across the outage as probes re-trip),
// failover masks every crashed response (zero client retries), and
// cluster throughput is back inside 10% of its pre-fault mean 14
// minutes after restart on every seed.
func TestClaimBreakerBoundedRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	rep, err := Replication{Scenario: MustGet(t, "cluster-breaker-recovery"), Seeds: ClaimSeeds()}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSVEnv(MetricCompleted, MetricErrors, MetricResubmitted, MetricRetries, MetricRecoveryTime); err != nil {
		t.Logf("replication CSV artifact: %v", err)
	}
	ClaimBand{
		Claim:  "cluster-breaker-recovery: throughput recovers within 20 min of restart (unrecovered runs score the remaining horizon)",
		Metric: MetricRecoveryTime, Lo: 0, Hi: 1200,
	}.Assert(t, rep)
	ClaimBand{
		Claim:  "cluster-breaker-recovery: failover masks the whole outage — clients never retry",
		Metric: MetricRetries, Lo: 0, Hi: 0,
	}.Assert(t, rep)
	trips := make([]float64, len(rep.Runs))
	for i, run := range rep.Runs {
		trips[i] = float64(run.Result.NodeResults[1].BreakerTrips)
	}
	ClaimBand{
		Claim:  "cluster-breaker-recovery: the crashed node's breaker trips and re-trips across the outage",
		Metric: Metric{Name: "node1-trips"}, Lo: 1, Hi: 30,
	}.AssertSamples(t, trips)
}
