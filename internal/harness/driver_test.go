package harness_test

import (
	"reflect"
	"testing"
	"time"

	"compilegate/internal/errclass"
	"compilegate/internal/harness"
	"compilegate/internal/scenario"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// referenceRun is the client population as workload.Run spawned it before
// clients became continuation tasks: one blocking-style task per client,
// the closed loop written as a loop. It is kept as the reference the
// state-machine driver is compared against — same draws from the same
// generator in the same order, same sleeps, same counters — and it holds
// a coroutine for a client's whole life, which is the cost the state
// machine exists to avoid.
func referenceRun(sched *vtime.Scheduler, sub workload.Submitter, gen workload.Generator, cfg workload.LoadConfig, onAllDone func()) *workload.LoadStats {
	stats := &workload.LoadStats{}
	remaining := cfg.Clients
	for i := 0; i < cfg.Clients; i++ {
		sched.Go("client", func(t *vtime.Task) {
			submit := func(sql string) error {
				return t.AwaitErr(func(errp *error, k vtime.Step) { sub.SubmitThen(t, sql, errp, k) })
			}
			rng := vtime.NewRand(cfg.Seed + int64(i)*7919)
			budget := cfg.RetryBudget
			t.Sleep(time.Duration(i) * min(250*time.Millisecond, cfg.Warmup/time.Duration(2*cfg.Clients)))
			for t.Now() < cfg.Horizon {
				sql := gen.Next(rng)
				stats.Submitted++
				err := submit(sql)
				retries := 0
				for err != nil && retries < cfg.MaxRetries && t.Now() < cfg.Horizon {
					if cfg.NoRetryShed && errclass.IsShed(err) {
						stats.GiveUps++
						break
					}
					if cfg.RetryBudget > 0 {
						if budget <= 0 {
							stats.GiveUps++
							stats.BudgetExhausted++
							break
						}
						budget--
					}
					retries++
					stats.Retries++
					t.Sleep(cfg.Backoff(rng, retries))
					err = submit(sql)
				}
				if err != nil {
					stats.Failed++
				} else {
					stats.Succeeded++
				}
				t.Sleep(cfg.ThinkTime)
			}
			remaining--
			if remaining == 0 && onAllDone != nil {
				onAllDone()
			}
		})
	}
	return stats
}

func registered(t *testing.T, name string) scenario.Scenario {
	t.Helper()
	s, ok := scenario.Default.Get(name)
	if !ok {
		t.Fatalf("scenario %q is not registered", name)
	}
	return s
}

// TestContinuationClientsMatchBlockingReference runs each shape twice —
// clients as state machines on the event loop, and the blocking reference
// loop — and requires the two Results to be equal in every field: series,
// client counters, event count, per-node routing and breaker trails, the
// engines' reports. The shapes cover what the state machine and the
// continuation router and engine had to reproduce: the hit path, half-open
// probes, failover hops, a crash landing on executions and compilations
// in flight, backoff with and without jitter and the order of the PRNG
// draws, an arrival ramp squeezed into half a short warm-up, a zero think
// time and client 0's zero-length stagger (each a yield, and an event).
func TestContinuationClientsMatchBlockingReference(t *testing.T) {
	oltp := func(clients int, horizon, think time.Duration) scenario.Scenario {
		s := defaultsScenario("oltp", clients, horizon, horizon/2)
		s.Workload = workload.SpecOLTP
		s.Load = func(l *workload.LoadConfig) { l.ThinkTime = think }
		return s
	}
	failover := registered(t, "cluster-nodeloss")
	failover.FailoverHops = 2
	cases := []struct {
		name  string
		opts  scenario.Scenario
		shape func(t *testing.T, r *harness.Result)
	}{
		{"single-server OLTP", oltp(60, 20*time.Minute, 5*time.Second), func(t *testing.T, r *harness.Result) {
			if r.PlanCacheHitRate < 0.9 {
				t.Errorf("plan-cache hit rate %.3f: not the hit path", r.PlanCacheHitRate)
			}
		}},
		{"cluster-breaker-recovery", registered(t, "cluster-breaker-recovery"), func(t *testing.T, r *harness.Result) {
			probed := false
			for _, tr := range r.NodeResults[1].BreakerTransitions {
				probed = probed || tr.To.String() == "half-open"
			}
			if !probed {
				t.Errorf("node 1's breaker never went half-open: %+v", r.NodeResults[1].BreakerTransitions)
			}
		}},
		{"failover hops", failover, func(t *testing.T, r *harness.Result) {
			if r.Resubmitted == 0 {
				t.Error("the router never failed a submission over")
			}
		}},
		{"mix-nodeloss", registered(t, "cluster-nodeloss"), func(t *testing.T, r *harness.Result) {
			if r.Fault == nil || r.Fault.Crashes != 1 || r.ErrorsByKind["crashed"] == 0 || r.Load.Retries == 0 {
				t.Errorf("crashes %+v, errors %v, retries %d: the node loss did not reach the clients", r.Fault, r.ErrorsByKind, r.Load.Retries)
			}
		}},
		{"SALES, jittered backoff", registered(t, "retry-storm").Baseline(), func(t *testing.T, r *harness.Result) {
			var l workload.LoadConfig
			r.Options.Load(&l)
			if r.Load.Retries == 0 || l.BackoffJitter == 0 {
				t.Errorf("%d retries at jitter %v: the jittered driver is idle", r.Load.Retries, l.BackoffJitter)
			}
		}},
		{"SALES, fixed backoff", defaultsScenario("fixed-backoff", 40, 40*time.Minute, 20*time.Minute).Baseline(), func(t *testing.T, r *harness.Result) {
			if r.Load.Retries == 0 {
				t.Error("no retries: the fixed-backoff driver is idle")
			}
		}},
		{"think time 0", oltp(4, time.Minute, 0), nil},
		{"one client", oltp(1, 30*time.Second, time.Second), nil},
		// 100 clients at 250 ms would still be arriving at 24.75 s.
		{"ramp squeezed into half of a 15 s warm-up", oltp(100, 30*time.Second, time.Second), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want, err := harness.RunOnWith(nil, tc.opts, harness.Seams{Drive: referenceRun})
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.opts.Run()
			if err != nil {
				t.Fatal(err)
			}
			if tc.shape != nil {
				tc.shape(t, got)
			}
			diffResults(t, "reference", want, "continuation clients", got)
		})
	}
}

// diffResults requires two runs of one scenario to agree in every Result
// field, naming each that does not. The scenario itself is left out: its
// Engine and Load deltas are funcs, which reflect.DeepEqual never equates.
func diffResults(t *testing.T, wantName string, want *harness.Result, gotName string, got *harness.Result) {
	t.Helper()
	w, g := reflect.ValueOf(*want), reflect.ValueOf(*got)
	for i := 0; i < w.NumField(); i++ {
		name := w.Type().Field(i).Name
		if name != "Options" && !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
			t.Errorf("%s: %s %v, %s %v", name, wantName, w.Field(i).Interface(), gotName, g.Field(i).Interface())
		}
	}
}
