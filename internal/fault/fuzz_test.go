package fault_test

import (
	"testing"
	"time"

	"compilegate/internal/cluster"
	"compilegate/internal/fault"
	"compilegate/internal/harness"
	"compilegate/internal/mem"
	"compilegate/internal/workload"
)

// fuzzInjection derives one bounded, always-valid injection from raw fuzz
// words. at/dur are clamped inside the fuzz harness horizon so the plan
// passes validation and the run always ends.
func fuzzInjection(kind uint8, at, dur uint16, param uint8) fault.Injection {
	const horizon = 30 * time.Minute
	in := fault.Injection{
		Kind: fault.Kind(kind % 4),
		At:   time.Duration(at%1200) * time.Second,
	}
	maxDur := horizon - in.At - time.Minute
	in.Duration = time.Duration(1+int(dur)%600) * time.Second
	if in.Duration > maxDur {
		in.Duration = maxDur
	}
	switch in.Kind {
	case fault.DiskStall:
		in.Factor = 2 + float64(param%8)
	case fault.MemLeak:
		in.RateBytes = int64(1+param%64) * 4 * mem.MiB
		in.Interval = time.Duration(5+param%30) * time.Second
		in.Release = param%2 == 0
	case fault.CompileStorm:
		in.Duration = 0
		in.Burst = 1 + int(param%8)
		in.Interval = time.Duration(param%4) * time.Second
	case fault.CrashRestart:
		// keep default duration
	}
	return in
}

// FuzzFaultPlan runs arbitrary two-injection schedules through a small
// harness configuration. The harness checks the memory invariant suite
// (budget/tracker/group conservation, no leaked compile memory or
// executor grants, no open compilations) after every run, so any
// schedule that breaks reserve/spill/release conservation surfaces as a
// run error here.
func FuzzFaultPlan(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(300), uint16(120), uint8(3), uint8(1), uint16(700), uint16(60), uint8(7))
	f.Add(int64(2), uint8(1), uint16(100), uint16(500), uint8(10), uint8(3), uint16(900), uint16(200), uint8(0))
	f.Add(int64(3), uint8(2), uint16(0), uint16(1), uint8(255), uint8(2), uint16(1199), uint16(599), uint8(128))
	f.Add(int64(4), uint8(3), uint16(600), uint16(240), uint8(42), uint8(3), uint16(650), uint16(240), uint8(42))
	f.Fuzz(func(t *testing.T, seed int64,
		k1 uint8, at1, dur1 uint16, p1 uint8,
		k2 uint8, at2, dur2 uint16, p2 uint8) {
		plan := fault.Plan{Seed: seed, Injections: []fault.Injection{
			fuzzInjection(k1, at1, dur1, p1),
		}}
		second := fuzzInjection(k2, at2, dur2, p2)
		plan.Injections = append(plan.Injections, second)
		if plan.Validate() != nil {
			// Same-kind overlap: drop the second injection instead of
			// discarding the case.
			plan.Injections = plan.Injections[:1]
		}
		o := harness.Scenario{
			Name:      "fuzz",
			Clients:   3,
			Horizon:   30 * time.Minute,
			Warmup:    10 * time.Minute,
			Throttled: seed%2 == 0,
			Scale:     0.02,
			Workload:  workload.SpecSales,
			Seed:      seed,
			Fault:     &plan,
		}
		if _, err := o.Run(); err != nil {
			t.Fatalf("faulted run failed: %v\nplan:\n%s", err, plan.String())
		}
	})
}

// FuzzClusterFaultPlan drives node-targeted two-injection schedules
// through a three-node cluster with the whole health plane armed —
// health exclusion, the shipped circuit breakers (5 / 45 s / 3), and failover
// resubmission — under a routing policy picked by the seed. On top of
// the harness's per-node memory invariant suite, every run is audited
// for routing-plane conservation: the per-node routed counts must sum
// to client submissions plus failover resubmissions, and each breaker
// must land in a legal state.
func FuzzClusterFaultPlan(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(300), uint16(120), uint8(3), uint8(1), uint8(1), uint16(700), uint16(60), uint8(7), uint8(2))
	f.Add(int64(2), uint8(3), uint16(100), uint16(500), uint8(10), uint8(0), uint8(3), uint16(900), uint16(200), uint8(0), uint8(0))
	f.Add(int64(3), uint8(2), uint16(0), uint16(1), uint8(255), uint8(2), uint8(1), uint16(1199), uint16(599), uint8(128), uint8(1))
	f.Add(int64(4), uint8(3), uint16(600), uint16(240), uint8(42), uint8(1), uint8(3), uint16(650), uint16(240), uint8(42), uint8(1))
	policies := []cluster.Policy{cluster.RoundRobin, cluster.LeastLoaded, cluster.Affinity}
	f.Fuzz(func(t *testing.T, seed int64,
		k1 uint8, at1, dur1 uint16, p1, n1 uint8,
		k2 uint8, at2, dur2 uint16, p2, n2 uint8) {
		const nodes = 3
		first := fuzzInjection(k1, at1, dur1, p1)
		first.Node = int(n1 % nodes)
		second := fuzzInjection(k2, at2, dur2, p2)
		second.Node = int(n2 % nodes)
		plan := fault.Plan{Seed: seed, Injections: []fault.Injection{first, second}}
		if plan.Validate() != nil {
			// Same-kind overlap on one node: drop the second injection
			// instead of discarding the case.
			plan.Injections = plan.Injections[:1]
		}
		o := harness.Scenario{
			Name:         "fuzz-cluster",
			Clients:      6,
			Horizon:      30 * time.Minute,
			Warmup:       10 * time.Minute,
			Throttled:    true,
			Scale:        0.02,
			Workload:     workload.SpecSales,
			Seed:         seed,
			Fault:        &plan,
			Nodes:        nodes,
			Router:       policies[int(uint64(seed)%3)],
			Health:       true,
			Breaker:      true,
			FailoverHops: 2,
		}
		r, err := o.Run()
		if err != nil {
			t.Fatalf("breaker-armed cluster run failed: %v\nplan:\n%s", err, plan.String())
		}
		var routed uint64
		for _, nr := range r.NodeResults {
			routed += nr.Routed
			switch nr.BreakerState {
			case "closed", "open", "half-open":
			default:
				t.Fatalf("node %d finished in unknown breaker state %q", nr.Node, nr.BreakerState)
			}
			for _, tr := range nr.BreakerTransitions {
				if tr.From == tr.To {
					t.Fatalf("node %d logged a self-transition %s", nr.Node, tr)
				}
			}
		}
		if want := uint64(r.Load.Submitted+r.Load.Retries) + r.Resubmitted; routed != want {
			t.Fatalf("routed sum %d != submissions+failovers %d\nplan:\n%s", routed, want, plan.String())
		}
	})
}
