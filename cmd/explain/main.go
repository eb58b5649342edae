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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"compilegate/internal/mem"
	"compilegate/internal/optimizer"
	"compilegate/internal/scenario"
	"compilegate/internal/sqlparser"
	"compilegate/internal/stats"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "explain:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	scen := fs.String("scenario", "adhoc-dss", "registered scenario supplying catalog and workload")
	scale := fs.Float64("scale", 0, "override the scenario's catalog scale")
	sample := fs.Bool("sample", false, "explain a query generated by the scenario's workload")
	list := fs.Bool("list", false, "list registered scenarios and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprint(w, scenario.List())
		return nil
	}

	s, ok := scenario.Get(*scen)
	if !ok {
		return fmt.Errorf("unknown scenario %q; -list shows the registry", *scen)
	}
	if *scale > 0 {
		s.Scale = *scale
	}

	var sql string
	switch {
	case *sample:
		sql = s.Workload.Generator().Next(vtime.NewRand(s.Seed))
	case fs.NArg() == 1:
		sql = fs.Arg(0)
	default:
		return errors.New("usage: explain [-scenario name] [-scale f] <sql> | explain -sample")
	}

	q, err := sqlparser.Parse(sql)
	if err != nil {
		return err
	}
	cat := s.Workload.NewCatalog(s.Scale, workload.DefaultExtentBytes)
	opt := optimizer.New(stats.NewEstimator(cat), optimizer.DefaultConfig())
	p, err := opt.Optimize(q, optimizer.Hooks{})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "query:", sql)
	fmt.Fprintf(w, "joins: %d   fingerprint: %s\n\n", q.NumJoins(), sqlparser.Fingerprint(sql))
	fmt.Fprint(w, p.String())
	fmt.Fprintf(w, "\nestimated cost: %.4g\n", p.Cost())
	fmt.Fprintf(w, "compile memory: %d MiB across %d alternatives\n",
		p.CompileBytes/mem.MiB, p.ExprsExplored)
	fmt.Fprintf(w, "execution grant: %d MiB; cached-plan size: %d KiB\n",
		p.MemoryGrant()/mem.MiB, p.PlanBytes()/mem.KiB)
	return nil
}
