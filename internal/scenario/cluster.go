package scenario

import (
	"time"

	"compilegate/internal/cluster"
	"compilegate/internal/fault"
	"compilegate/internal/mem"
	"compilegate/internal/workload"
)

// This file registers the cluster-plane scenarios: N engine instances
// on one event loop behind a deterministic router. They exercise the
// three routing policies — even spreading at a four-digit client
// population, fingerprint affinity on a wide statement pool (the
// plan-cache locality experiment), and least-loaded routing through a
// scripted node loss.

func init() {
	// The scale probe: a 1000-client population spread round-robin over
	// four nodes. The point is the population itself — the router, the
	// per-node recorders, and the aggregation have to stay deterministic
	// and even-handed at four digits of concurrent clients.
	rr := Scenario{
		Name:        "cluster-roundrobin",
		Description: "1000 OLTP clients round-robin over 4 nodes — even spread at scale",
		Clients:     1000,
		Scale:       0.04,
		Workload:    workload.SpecOLTP,
		Horizon:     15 * time.Minute,
		Warmup:      5 * time.Minute,
		Throttled:   true,
		Seed:        1,
		Nodes:       4,
		Router:      cluster.RoundRobin,
		Load: func(l *workload.LoadConfig) {
			l.ThinkTime = 15 * time.Second
		},
	}
	Default.MustRegister(rr.WithSlice(5 * time.Minute))

	// The locality experiment: a 2000-statement point-query pool over
	// four nodes. Round-robin pays the pool's cold-compilation bill on
	// every node; fingerprint affinity pays it once across the fleet, so
	// its pooled plan-cache hit rate is measurably higher. The claim test
	// replicates this scenario against its round-robin twin per seed.
	aff := Scenario{
		Name:        "cluster-affinity",
		Description: "wide OLTP pool, fingerprint-affinity routing over 4 nodes — plan-cache locality",
		Clients:     120,
		Scale:       0.04,
		Workload:    workload.SpecOLTPWide,
		Horizon:     30 * time.Minute,
		Warmup:      10 * time.Minute,
		Throttled:   true,
		Seed:        1,
		Nodes:       4,
		Router:      cluster.Affinity,
		Load: func(l *workload.LoadConfig) {
			l.ThinkTime = 5 * time.Second
		},
	}
	Default.MustRegister(aff)

	// The degradation experiment: least-loaded routing through a scripted
	// loss of node 1. While the node is down the router carries its share
	// on the survivors and clients retry lost in-flight work with backoff;
	// recovery is measured on the cluster-level completion sum.
	loss := Scenario{
		Name:        "cluster-nodeloss",
		Description: "mixed workload on 3 nodes, least-loaded routing, node 1 lost for 6 min",
		Clients:     36,
		Scale:       0.04,
		Workload:    workload.SpecMix,
		Horizon:     70 * time.Minute,
		Warmup:      10 * time.Minute,
		Throttled:   true,
		Seed:        1,
		Nodes:       3,
		Router:      cluster.LeastLoaded,
		Load: func(l *workload.LoadConfig) {
			retryDriver(l)
			l.ThinkTime = 5 * time.Second
		},
		Fault: &fault.Plan{Seed: 105, Injections: []fault.Injection{
			{Kind: fault.CrashRestart, Node: 1, At: 40 * time.Minute, Duration: 6 * time.Minute},
		}},
	}
	Default.MustRegister(loss)

	// The thrash-shedding experiment: a wired-memory leak squeezes node 1
	// into the paging regime while the rest of the fleet stays healthy.
	// With the health envelope on, the router reads the node's overcommit
	// and thrash score and steers traffic around it; the breaker converts
	// its shed/timeout responses into an open circuit; failover masks the
	// stragglers. The claim test replicates this scenario against a twin
	// with all three mechanisms off and holds a per-seed throughput
	// margin.
	thrash := Scenario{
		Name:        "cluster-thrash-shed",
		Description: "memory leak thrashes node 1 of 3; health-aware routing sheds around it",
		Clients:     24,
		Scale:       0.04,
		Workload:    workload.SpecSales,
		Horizon:     100 * time.Minute,
		Warmup:      15 * time.Minute,
		Throttled:   true,
		Seed:        1,
		Nodes:       3,
		Router:      cluster.RoundRobin,
		Engine:      calibrated(brownout),
		Load: func(l *workload.LoadConfig) {
			retryDriver(l)
		},
		Health:       true,
		Breaker:      true,
		FailoverHops: 2,
		Fault: &fault.Plan{Seed: 106, Injections: []fault.Injection{
			{Kind: fault.MemLeak, Node: 1, At: 25 * time.Minute, Duration: 35 * time.Minute,
				RateBytes: 64 * mem.MiB, Interval: 10 * time.Second, Release: true},
		}},
	}
	Default.MustRegister(thrash.WithSlice(5 * time.Minute))

	// The correlated-storm control: a compile-storm burst hits every node
	// at the same instant. Storms raise pressure fleet-wide, but client
	// queries keep succeeding between sheds, so no breaker may accumulate
	// its consecutive-failure threshold — a breaker design that tripped
	// the whole fleet open under correlated stress would be worse than no
	// breaker at all. The claim test holds all-excluded at exactly zero
	// on every seed.
	storm := Scenario{
		Name:        "cluster-compile-storm",
		Description: "correlated compile storm on all 4 nodes — breakers must not trip the fleet open",
		Clients:     48,
		Scale:       0.04,
		Workload:    workload.SpecSales,
		Horizon:     80 * time.Minute,
		Warmup:      15 * time.Minute,
		Throttled:   true,
		Seed:        1,
		Nodes:       4,
		Router:      cluster.RoundRobin,
		Engine:      calibrated(brownout),
		Load: func(l *workload.LoadConfig) {
			retryDriver(l)
		},
		Breaker:      true,
		FailoverHops: 2,
		Fault: &fault.Plan{Seed: 107, Injections: []fault.Injection{
			{Kind: fault.CompileStorm, Node: 0, At: 40 * time.Minute, Burst: 16, Interval: 2 * time.Second},
			{Kind: fault.CompileStorm, Node: 1, At: 40 * time.Minute, Burst: 16, Interval: 2 * time.Second},
			{Kind: fault.CompileStorm, Node: 2, At: 40 * time.Minute, Burst: 16, Interval: 2 * time.Second},
			{Kind: fault.CompileStorm, Node: 3, At: 40 * time.Minute, Burst: 16, Interval: 2 * time.Second},
		}},
	}
	Default.MustRegister(storm.WithSlice(5 * time.Minute))

	// The recovery experiment: cluster-nodeloss re-run with the router's
	// liveness oracle replaced by circuit breakers. The router discovers
	// the crash through fail-fast responses (tripping node 1's breaker
	// within a handful of submissions), masks them with failover, and
	// re-admits the restarted node through half-open probes. The claim
	// test bounds cluster-level recovery time across seeds.
	recovery := Scenario{
		Name:        "cluster-breaker-recovery",
		Description: "node 1 of 3 lost for 6 min; breakers discover, shed, and re-admit it",
		Clients:     48,
		Scale:       0.04,
		Workload:    workload.SpecOLTP,
		Horizon:     70 * time.Minute,
		Warmup:      10 * time.Minute,
		Throttled:   true,
		Seed:        1,
		Nodes:       3,
		Router:      cluster.RoundRobin,
		Load: func(l *workload.LoadConfig) {
			retryDriver(l)
			l.ThinkTime = 5 * time.Second
		},
		Breaker:      true,
		FailoverHops: 2,
		Fault: &fault.Plan{Seed: 108, Injections: []fault.Injection{
			{Kind: fault.CrashRestart, Node: 1, At: 40 * time.Minute, Duration: 6 * time.Minute},
		}},
	}
	Default.MustRegister(recovery)
}
