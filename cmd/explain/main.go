// explain compiles one SQL query and prints the chosen physical plan,
// the compile-memory footprint, and the number of alternatives explored.
// The catalog and (for -sample) the query generator resolve from a
// registered scenario, so explained plans match what that experiment's
// server would choose.
//
// Usage:
//
//	explain [-scenario adhoc-dss] [-scale 0.04] "SELECT ... FROM sales_fact JOIN ..."
//	explain -sample          # explain a query generated by the scenario's workload
//	explain -list
package main

import (
	"flag"
	"fmt"
	"os"

	"compilegate"

	"compilegate/internal/optimizer"
	"compilegate/internal/sqlparser"
	"compilegate/internal/stats"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

func main() {
	scen := flag.String("scenario", "adhoc-dss", "registered scenario supplying catalog and workload")
	scale := flag.Float64("scale", 0, "override the scenario's catalog scale")
	sample := flag.Bool("sample", false, "explain a query generated by the scenario's workload")
	list := flag.Bool("list", false, "list registered scenarios and exit")
	flag.Parse()

	if *list {
		fmt.Print(compilegate.ListScenarios())
		return
	}

	s, ok := compilegate.ScenarioByName(*scen)
	if !ok {
		fmt.Fprintf(os.Stderr, "explain: unknown scenario %q; -list shows the registry\n", *scen)
		os.Exit(2)
	}
	if *scale > 0 {
		s.Scale = *scale
	}

	var sql string
	switch {
	case *sample:
		sql = s.Workload.Generator().Next(vtime.NewRand(s.Seed))
	case flag.NArg() == 1:
		sql = flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: explain [-scenario name] [-scale f] <sql> | explain -sample")
		os.Exit(2)
	}

	q, err := sqlparser.Parse(sql)
	if err != nil {
		fmt.Fprintln(os.Stderr, "explain:", err)
		os.Exit(1)
	}
	cat := s.Workload.NewCatalog(s.Scale, workload.DefaultExtentBytes)
	opt := optimizer.New(stats.NewEstimator(cat), optimizer.DefaultConfig())
	p, err := opt.Optimize(q, optimizer.Hooks{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "explain:", err)
		os.Exit(1)
	}

	fmt.Println("query:", sql)
	fmt.Printf("joins: %d   fingerprint: %s\n\n", q.NumJoins(), sqlparser.Fingerprint(sql))
	fmt.Print(p.String())
	fmt.Printf("\nestimated cost: %.4g\n", p.Cost())
	fmt.Printf("compile memory: %d MiB across %d alternatives\n",
		p.CompileBytes/compilegate.MiB, p.ExprsExplored)
	fmt.Printf("execution grant: %d MiB; cached-plan size: %d KiB\n",
		p.MemoryGrant()/compilegate.MiB, p.PlanBytes()/compilegate.KiB)
}
