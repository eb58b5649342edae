// besteffort demonstrates §4.1's second extension: when the broker
// predicts memory exhaustion before a compilation can finish, the
// optimizer returns the best complete plan found so far instead of
// failing with out-of-memory. It first shows a single compilation being
// cut short, then sweeps the registry's best-effort ablation pair — the
// same starved server with the extension on and off — concurrently.
//
// Run with: go run ./examples/besteffort
package main

import (
	"fmt"
	"time"

	"compilegate"

	"compilegate/internal/broker"
	"compilegate/internal/optimizer"
	"compilegate/internal/plan"
	"compilegate/internal/stats"
)

func main() {
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
		gov.OnBrokerNotice(broker.Notification{
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
}
