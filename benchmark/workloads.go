package main

import (
	"fmt"
	"time"

	"compilegate"
	"compilegate/internal/fault"
	"compilegate/internal/harness"
	"compilegate/internal/scenario"
	"compilegate/internal/workload"
)

// sliceDur is the recorder's slice width (engine.DefaultConfig().SliceDur).
// The recorder admits a slice by its start, so a window that is not a
// multiple of it silently drops completions (ROADMAP item 4); validate
// refuses such a workload.
const sliceDur = 10 * time.Minute

// Workload is one pinned benchmark input: a full scenario literal, the
// number of seeds a run covers, and the guard that proves the run still
// loads the layers the workload exists to load.
type Workload struct {
	Name string
	// Why is the one-line reason BENCHMARK.json records.
	Why string
	// Scenario is pinned here field by field, not looked up in the
	// registry, so editing a registry scenario cannot move the instrument.
	Scenario scenario.Scenario
	// Seeds is S: a run simulates seeds base..base+S-1.
	Seeds int
	// MinRounds is the least number of interleaved rounds over the seeds;
	// more are run while the -seconds budget lasts.
	MinRounds int
	// SimBound is the share by which -compare lets the workload's sim_*
	// metrics worsen: max(5%, 3 standard errors of its seed mean), derived
	// by -calibrate. BENCHMARK.json carries one bound per metric for all
	// workloads, so it holds the largest of these.
	SimBound float64
	// Guard fails when a result no longer shows the regime the workload
	// claims (hit path, collapse, crash-restart, ...).
	Guard func(*harness.Result) error
}

func calibrated(c *compilegate.ServerConfig) { scenario.CalibratedKnobs().Apply(c) }

// retryDriver is the real-client retry model of the registry's fault and
// cluster scenarios, pinned by value.
func retryDriver(l *workload.LoadConfig) {
	l.MaxRetries = 6
	l.BackoffBase = 500 * time.Millisecond
	l.BackoffCap = 10 * time.Second
	l.BackoffJitter = 0.3
	l.RetryBudget = 40
	l.NoRetryShed = true
}

// workloads lists the four pinned workloads in report order. All are
// closed-loop: each client waits for its reply, thinks, and resubmits.
func workloads() []Workload {
	return []Workload{
		{
			Name:  "dss-governed",
			Why:   "figure3 shape, throttled: every query is a cache-missing 10-90 s compilation through gateway ladder, broker and best-effort cuts",
			Seeds: 8, MinRounds: 3, SimBound: 0.08,
			Scenario: scenario.Scenario{
				Name:        "dss-governed",
				Description: "SALES, 30 clients, throttled, calibrated knobs, single server",
				Clients:     30,
				Scale:       0.04,
				Workload:    workload.SpecSales,
				Horizon:     8 * time.Hour,
				Warmup:      3 * time.Hour,
				Throttled:   true,
				Engine:      calibrated,
			},
			Guard: func(r *harness.Result) error {
				if r.BestEffortPlans == 0 {
					return fmt.Errorf("no best-effort plans: the exhaustion path is idle")
				}
				if r.AvgOvercommitRatio >= 1.1 {
					return fmt.Errorf("overcommit %.3f >= 1.1: the governed server is thrashing", r.AvgOvercommitRatio)
				}
				return nil
			},
		},
		{
			Name: "dss-collapse",
			Why:  "figure5 baseline, unthrottled: same compile path with the gateway bypassed, so OOM-retry spiral, paging and page steal do the work",
			// Sixteen seeds: the collapsed server's throughput varies by a
			// third from seed to seed, eight would leave the mean too loose.
			Seeds: 16, MinRounds: 2, SimBound: 0.25,
			Scenario: scenario.Scenario{
				Name:        "dss-collapse",
				Description: "SALES, 40 clients, unthrottled baseline, calibrated knobs, single server",
				Clients:     40,
				Scale:       0.04,
				Workload:    workload.SpecSales,
				Horizon:     8 * time.Hour,
				Warmup:      3 * time.Hour,
				Throttled:   false,
				Engine:      calibrated,
			},
			Guard: func(r *harness.Result) error {
				if share := failedShare(r); share < 0.5 {
					return fmt.Errorf("failed share %.3f < 0.5: the baseline no longer collapses", share)
				}
				if r.AvgOvercommitRatio <= 1.2 {
					return fmt.Errorf("overcommit %.3f <= 1.2: the baseline is not thrashing", r.AvgOvercommitRatio)
				}
				return nil
			},
		},
		{
			Name:  "oltp-fleet",
			Why:   "plan-cache-hit path at 1000 clients over 4 nodes: per-query fixed costs (PRNG seeding, executor, router, recorder), optimizer idle",
			Seeds: 3, MinRounds: 2, SimBound: 0.05,
			Scenario: scenario.Scenario{
				Name:        "oltp-fleet",
				Description: "OLTP (50 statements), 1000 clients, 4 nodes, round-robin, think 5 s",
				Clients:     1000,
				Scale:       0.04,
				Workload:    workload.SpecOLTP,
				Horizon:     20 * time.Minute,
				Warmup:      10 * time.Minute,
				Throttled:   true,
				Nodes:       4,
				Router:      compilegate.RouteRoundRobin,
				Load:        func(l *workload.LoadConfig) { l.ThinkTime = 5 * time.Second },
			},
			Guard: func(r *harness.Result) error {
				if r.PlanCacheHitRate < 0.99 {
					return fmt.Errorf("plan-cache hit rate %.4f < 0.99: no longer the hit path", r.PlanCacheHitRate)
				}
				if r.Errors != 0 {
					return fmt.Errorf("%d errors on the idle-gateway path", r.Errors)
				}
				if im := routedImbalance(r); im > 1.01 {
					return fmt.Errorf("routed imbalance %.4f > 1.01 under round-robin", im)
				}
				return nil
			},
		},
		{
			Name: "mix-nodeloss",
			Why:  "3:1 OLTP:SALES on 3 nodes, least-loaded, node 1 crash-restart: hit and miss paths, ladder bypass, router liveness and client backoff side by side",
			// Sixteen seeds: per-seed throughput varies by a tenth.
			Seeds: 16, MinRounds: 2, SimBound: 0.08,
			Scenario: scenario.Scenario{
				Name:        "mix-nodeloss",
				Description: "mix (3:1 OLTP:SALES), 36 clients, 3 nodes, least-loaded, node 1 lost 40-46 min",
				Clients:     36,
				Scale:       0.04,
				Workload:    workload.SpecMix,
				Horizon:     70 * time.Minute,
				Warmup:      10 * time.Minute,
				Throttled:   true,
				Nodes:       3,
				Router:      compilegate.RouteLeastLoaded,
				Load: func(l *workload.LoadConfig) {
					retryDriver(l)
					l.ThinkTime = 5 * time.Second
				},
				Fault: &fault.Plan{Seed: 105, Injections: []fault.Injection{
					{Kind: fault.CrashRestart, Node: 1, At: 40 * time.Minute, Duration: 6 * time.Minute},
				}},
			},
			Guard: func(r *harness.Result) error {
				if r.Fault == nil || r.Fault.Crashes != 1 {
					return fmt.Errorf("fault plane did not crash exactly one node")
				}
				if r.Load.Retries == 0 {
					return fmt.Errorf("no client retries: the crash was invisible to clients")
				}
				return nil
			},
		},
	}
}

// workloadByName resolves a -workload argument.
func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// quick compresses a workload to the smoke-test size: one seed, two
// rounds, the shortest slice-aligned window.
func (w Workload) quick() Workload {
	w.Seeds, w.MinRounds = 1, 2
	w.Scenario.Horizon, w.Scenario.Warmup = 2*sliceDur, sliceDur
	if w.Scenario.Clients > 100 {
		w.Scenario.Clients = 100
	}
	w.Scenario.Fault = nil
	w.Guard = func(*harness.Result) error { return nil }
	return w
}

// validate refuses workloads that would measure something other than
// what they declare.
func (w Workload) validate() error {
	s := w.Scenario
	if s.Warmup%sliceDur != 0 || s.Horizon%sliceDur != 0 {
		return fmt.Errorf("workload %s: window [%v, %v) is not a multiple of the %v recorder slice, completions would be truncated",
			w.Name, s.Warmup, s.Horizon, sliceDur)
	}
	lcfg := workload.DefaultLoadConfig(s.Clients)
	if s.Load != nil {
		s.Load(&lcfg)
	}
	if lcfg.ThinkTime <= 0 {
		return fmt.Errorf("workload %s: zero think time (a closed loop at zero think does not terminate in bounded host time)", w.Name)
	}
	if w.Seeds < 1 || w.MinRounds < 2 {
		return fmt.Errorf("workload %s: %d seeds x %d rounds (determinism needs two rounds)", w.Name, w.Seeds, w.MinRounds)
	}
	return s.Validate()
}
