package compilegate_test

import (
	"fmt"
	"time"

	"compilegate"
	"compilegate/internal/broker"
	"compilegate/internal/optimizer"
	"compilegate/internal/plan"
	"compilegate/internal/stats"
)

// Govern three concurrent "compilations" with the paper's memory monitors
// and watch the broker and gateways at work, then run the registry's
// smoke scenario through the full simulated engine.
func Example_quickstart() {
	sched := compilegate.NewScheduler()
	budget := compilegate.NewBudget(1 * compilegate.GiB)

	// Three-monitor ladder for a 4-CPU machine contending over 1 GiB.
	opts := compilegate.DefaultGovernorOptions(4, budget.Total())
	gov, err := compilegate.NewGovernor(opts, budget.NewTracker("compile"))
	if err != nil {
		panic(err)
	}

	// A broker arbitrating compile memory against a second consumer.
	brk := compilegate.NewBroker(compilegate.DefaultBrokerConfig(), budget)
	gov.AttachBroker(brk, 1.0, 0)
	other := budget.NewTracker("cache")
	brk.Register("cache", 1.0, 0, other.Used, nil)
	other.MustReserve(600 * compilegate.MiB) // preexisting pressure

	// Three compilations racing: each allocates in 16 MiB steps up to its
	// peak, then frees everything. The big one crosses the "big" gate and
	// serializes.
	peaks := []int64{120 * compilegate.MiB, 180 * compilegate.MiB, 400 * compilegate.MiB}
	for i, peak := range peaks {
		sched.Go(fmt.Sprintf("q%d", i+1), func(t *compilegate.Task) {
			t.Sleep(time.Duration(i) * time.Second)
			c := gov.Begin(t, fmt.Sprintf("q%d", i+1))
			for c.Used() < peak {
				if err := c.Alloc(16 * compilegate.MiB); err != nil {
					fmt.Printf("[%8v] q%d aborted: %v\n", t.Now(), i+1, err)
					return
				}
				t.Sleep(2 * time.Second) // optimization work
				brk.Tick(t.Now())
			}
			fmt.Printf("[%8v] q%d compiled with %d MiB (waited %v at gates)\n",
				t.Now(), i+1, c.Peak()/compilegate.MiB, c.GateWait())
			c.Finish()
		})
	}
	if err := sched.Run(); err != nil {
		panic(err)
	}

	fmt.Println()
	fmt.Print(gov.Report())
	fmt.Print(brk.Report())

	// The same governance running inside the complete simulated DBMS:
	// resolve the smoke scenario from the registry and run it end to end.
	s, ok := compilegate.ScenarioByName("quickstart")
	if !ok {
		panic("quickstart scenario not registered")
	}
	res, err := s.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nscenario %s: %d clients completed %d queries (%.1f/hour), errors %v\n",
		s.Name, s.Clients, res.Completed, res.Throughput(), res.ErrorsByKind)

	// Output:
	// [     16s] q1 compiled with 128 MiB (waited 0s at gates)
	// [     25s] q2 compiled with 192 MiB (waited 0s at gates)
	// [     55s] q3 compiled with 400 MiB (waited 3s at gates)
	//
	// governor: enabled=true started=3 finished=3 aborted=0 best-effort=0 peak-active=3 compile-mem=0 B (peak 400.00 MiB)
	// gateway chain (target=471.04 MiB):
	//   small    threshold=380.00 KiB   slots=16 held=0 waiting=0 timeout=6m0s
	//   medium   threshold=211.97 MiB   slots=4 held=0 waiting=0 timeout=12m0s
	//   big      threshold=211.97 MiB   slots=1 held=0 waiting=0 timeout=24m0s
	// broker: ticks=45 pressured=26
	//   cache        usage=600.00 MiB   target=471.04 MiB   decision=shrink
	//   compile      usage=0 B          target=471.04 MiB   decision=grow
	//
	// scenario quickstart: 4 clients completed 77 queries (256.7/hour), errors map[]
}

// Run a short SALES-style ad-hoc decision-support scenario, the workload
// of the paper's §5, and its unthrottled baseline concurrently, then
// compare their throughput series and components.
func Example_adhocDSS() {
	s, ok := compilegate.ScenarioByName("adhoc-dss")
	if !ok {
		panic("adhoc-dss scenario not registered")
	}

	fmt.Printf("running %s and its unthrottled baseline concurrently (%d clients, SALES)...\n",
		s.Name, s.Clients)
	pair := compilegate.RunSweep([]compilegate.Scenario{s, s.Baseline()}, 2)
	for _, sr := range pair {
		if sr.Err != nil {
			panic(sr.Err)
		}
	}
	th, ba := pair[0].Result, pair[1].Result

	fmt.Println("\ncompletions per 10-minute slice:")
	fmt.Println("  time      throttled  baseline")
	for i := range th.Series {
		b := int64(0)
		if i < len(ba.Series) {
			b = ba.Series[i].V
		}
		fmt.Printf("  %7v  %9d  %8d\n", th.Series[i].T, th.Series[i].V, b)
	}
	_, summary := compilegate.CompareRuns(th, ba)
	fmt.Println("\n" + summary)
	fmt.Printf("throttled: compile-mem mean %d MiB (max %d MiB), pool hit-rate %.0f%%, errors %v\n",
		th.CompileMemMean/compilegate.MiB, th.CompileMemMax/compilegate.MiB,
		th.BufferPoolHitRate*100, th.ErrorsByKind)
	fmt.Printf("baseline : pool hit-rate %.0f%%, errors %v\n",
		ba.BufferPoolHitRate*100, ba.ErrorsByKind)

	// Output:
	// running adhoc-dss and its unthrottled baseline concurrently (30 clients, SALES)...
	//
	// completions per 10-minute slice:
	//   time      throttled  baseline
	//     15m0s         52        16
	//     30m0s         47        31
	//     45m0s         53        26
	//    1h0m0s         56         2
	//   1h15m0s         50         8
	//
	// clients=30 window=[15m0s,1h30m0s): throttled=258 baseline=83 improvement=210.8% errors(throttled)=31 errors(baseline)=91
	// throttled: compile-mem mean 328 MiB (max 903 MiB), pool hit-rate 53%, errors map[grant-timeout:35]
	// baseline : pool hit-rate 43%, errors map[grant-timeout:34 oom:115]
}

// The small-query bypass: in a mixed OLTP + DSS workload, point queries
// compile below the first monitor threshold and are never blocked, even
// while large ad-hoc compilations queue at the gates. This is the paper's
// "administrator can run diagnostic queries even if the system is
// overloaded" property.
func Example_oltpMix() {
	s, ok := compilegate.ScenarioByName("oltp-mix")
	if !ok {
		panic("oltp-mix scenario not registered")
	}
	res, err := s.Run()
	if err != nil {
		panic(err)
	}

	fmt.Printf("%s: %d clients, %v window: %d completions, errors %v\n",
		s.Name, s.Clients, s.Horizon, res.Completed, res.ErrorsByKind)
	fmt.Printf("plan-cache served the repeated OLTP statements; compile-mem mean %d MiB\n",
		res.CompileMemMean/compilegate.MiB)
	fmt.Printf("gateway timeouts: %d (small queries bypass the ladder entirely)\n",
		res.GatewayTimeouts)
	fmt.Println()
	fmt.Println(res.Report)

	// Output:
	// oltp-mix: 24 clients, 1h0m0s window: 731 completions, errors map[]
	// plan-cache served the repeated OLTP statements; compile-mem mean 98 MiB
	// gateway timeouts: 0 (small queries bypass the ladder entirely)
	//
	// engine: completed=884 errors=map[]
	// governor: enabled=true started=759 finished=759 aborted=0 best-effort=0 peak-active=24 compile-mem=0 B (peak 2.78 GiB)
	// charge spans: settled=5603 replayed=728
	// gateway chain (target=0 B):
	//   small    threshold=380.00 KiB   slots=32 held=0 waiting=0 timeout=6m0s
	//   medium   threshold=256.00 MiB   slots=8 held=0 waiting=0 timeout=12m0s
	//   big      threshold=682.67 MiB   slots=1 held=0 waiting=0 timeout=24m0s
	// bufferpool: 3.30 GiB (422 frames), hit-rate 45.4%, evictions 25122, passthrough 0
	// plancache: 6 plans, 4.34 MiB, hit-rate 14.1%, evictions 706
	// compile-mem mean=98.87 MiB max=819.97 MiB
	// compile times: [0s,1s]:533 [30s,1m0s]:50 [1m0s,1m15s]:51 [1m15s,1m30s]:40 [1m30s,2m0s]:45 [2m0s,3m0s]:32 [3m0s,5m0s]:7 >5m0s:1
	// executions: completed=884 replayed=608
	// paging: wired-peak=3.32 GiB page-steal=9.40 GiB cpu-stall=10m27.460775691s exec-refault=15.59759254s
	// broker: ticks=877 pressured=509
	//   bufferpool   usage=3.30 GiB     target=3.30 GiB     decision=grow
	//   compile      usage=0 B          target=0 B          decision=grow
	//   exec         usage=0 B          target=0 B          decision=grow
	//   plancache    usage=4.34 MiB     target=4.34 MiB     decision=grow
}

// §4.1's second extension: when the broker predicts memory exhaustion
// before a compilation can finish, the optimizer returns the best complete
// plan found so far instead of failing with out-of-memory. A single
// compilation is cut short first; then the registry's best-effort
// ablation pair (the same starved server with the extension on and off)
// runs concurrently.
func Example_bestEffort() {
	budget := compilegate.NewBudget(2 * compilegate.GiB)
	gov, err := compilegate.NewGovernor(
		compilegate.DefaultGovernorOptions(8, budget.Total()),
		budget.NewTracker("compile"))
	if err != nil {
		panic(err)
	}

	cat := compilegate.NewSalesCatalog(0.01)
	opt := optimizer.New(stats.NewEstimator(cat), optimizer.DefaultConfig())

	// A 16-join snowflake query.
	q := &plan.Query{Tables: []plan.TableTerm{{Name: "sales_fact"}}}
	dims := []string{"dim_product", "dim_store", "dim_customer", "dim_date",
		"dim_promotion", "dim_employee", "dim_channel"}
	for _, d := range dims {
		q.Tables = append(q.Tables, plan.TableTerm{Name: d})
		q.Joins = append(q.Joins, plan.JoinEdge{A: "sales_fact", B: d})
	}
	for _, e := range [][2]string{
		{"dim_product", "dim_subcategory"}, {"dim_subcategory", "dim_category"},
		{"dim_store", "dim_city"}, {"dim_city", "dim_region"},
		{"dim_date", "dim_month"}, {"dim_month", "dim_quarter"},
		{"dim_customer", "dim_segment"}, {"dim_promotion", "dim_promo_type"},
		{"dim_product", "dim_brand"},
	} {
		q.Tables = append(q.Tables, plan.TableTerm{Name: e[1]})
		q.Joins = append(q.Joins, plan.JoinEdge{A: e[0], B: e[1]})
	}

	sched := compilegate.NewScheduler()
	sched.Go("compile", func(t *compilegate.Task) {
		// Full optimization first.
		c := gov.Begin(t, "full")
		full, err := opt.Optimize(q, optimizer.Hooks{Charge: c.Alloc,
			BestEffort: c.ShouldYieldBestEffort})
		if err != nil {
			panic(err)
		}
		c.Finish()

		// Now simulate a broker exhaustion notice arriving mid-compile.
		c2 := gov.Begin(t, "cut")
		gov.OnBrokerNotice(compilegate.Notification{
			Decision: broker.Shrink, Pressure: true, Exhaustion: true,
		})
		cut, err := opt.Optimize(q, optimizer.Hooks{Charge: c2.Alloc,
			BestEffort: c2.ShouldYieldBestEffort})
		if err != nil {
			panic(err)
		}
		c2.Finish()

		fmt.Printf("full optimization: %6d alternatives, %4d MiB, cost %.4g\n",
			full.ExprsExplored, full.CompileBytes/compilegate.MiB, full.Cost())
		fmt.Printf("best-effort cut:   %6d alternatives, %4d MiB, cost %.4g (best-effort=%v)\n",
			cut.ExprsExplored, cut.CompileBytes/compilegate.MiB, cut.Cost(), cut.BestEffort)
		fmt.Printf("plan quality retained: %.1f%% of cost headroom (lower cost is better)\n",
			100*full.Cost()/cut.Cost())
	})
	if err := sched.Run(); err != nil {
		panic(err)
	}

	// The system-level view: the registry's ablation pair on a starved
	// 2 GiB machine, swept concurrently with a compressed window.
	var pair []compilegate.Scenario
	for _, name := range []string{"best-effort", "best-effort-off"} {
		s, ok := compilegate.ScenarioByName(name)
		if !ok {
			panic(name + " scenario not registered")
		}
		pair = append(pair, s.WithWindow(50*time.Minute, 10*time.Minute))
	}
	fmt.Println("\nsweeping the best-effort ablation pair (50 min window, 2 GiB machine)...")
	for _, sr := range compilegate.RunSweep(pair, 2) {
		if sr.Err != nil {
			panic(sr.Err)
		}
		fmt.Printf("%-16s completed=%4d oom=%d best-effort-plans=%d\n",
			sr.Scenario.Name, sr.Result.Completed,
			sr.Result.ErrorsByKind[compilegate.ErrKindOOM], sr.Result.BestEffortPlans)
	}

	// Output:
	// full optimization:   1174 alternatives,   26 MiB, cost 756.7
	// best-effort cut:       75 alternatives,    2 MiB, cost 807 (best-effort=true)
	// plan quality retained: 93.8% of cost headroom (lower cost is better)
	//
	// sweeping the best-effort ablation pair (50 min window, 2 GiB machine)...
	// best-effort      completed=   9 oom=0 best-effort-plans=50
	// best-effort-off  completed=   5 oom=69 best-effort-plans=0
}
