package optimizer

import (
	"iter"
	"math/rand"
	"testing"

	"compilegate/internal/plan"
	"compilegate/internal/sqlparser"
	"compilegate/internal/stats"
	"compilegate/internal/workload"
)

// benchScale is the catalog scale every registered scenario runs at.
const benchScale = 0.04

func mustParse(b *testing.B, sql string) *plan.Query {
	q, err := sqlparser.Parse(sql)
	if err != nil {
		b.Fatalf("%v\n%s", err, sql)
	}
	return q
}

// salesOptimizer builds the optimizer the DSS scenarios compile with.
func salesOptimizer() *Optimizer {
	cat := workload.SpecSales.NewCatalog(benchScale, 8<<20)
	return New(stats.NewEstimator(cat), DefaultConfig())
}

var benchPlan *plan.Plan

// BenchmarkOptimize is the solo miss path at three join widths: one
// compilation at a time, so its working set stays cache-resident. The
// suffix is the statement's join count.
func BenchmarkOptimize(b *testing.B) {
	tpch := workload.SpecTPCH.NewCatalog(benchScale, 8<<20)
	// The 20-join SALES statement is template Q6, one of the two heavy
	// templates; draw heavies until it comes up.
	var sales20 *plan.Query
	gen, rng := workload.NewSales(), rand.New(rand.NewSource(14))
	for sales20 == nil {
		if q := mustParse(b, gen.NextHeavy(rng)); len(q.Joins) == 20 {
			sales20 = q
		}
	}
	cases := []struct {
		name string
		opt  *Optimizer
		q    *plan.Query
	}{
		{"oltp1", salesOptimizer(), mustParse(b, workload.NewOLTP().Statements()[2])},
		{"tpch5", New(stats.NewEstimator(tpch), DefaultConfig()), mustParse(b,
			"SELECT COUNT(*) FROM lineitem"+
				" JOIN orders ON lineitem.l_orderkey = orders.o_orderkey"+
				" JOIN customer ON orders.o_custkey = customer.c_custkey"+
				" JOIN nation ON customer.c_nationkey = nation.n_nationkey"+
				" JOIN region ON nation.n_regionkey = region.r_regionkey"+
				" JOIN part ON lineitem.l_partkey = part.p_partkey"+
				" WHERE lineitem.l_orderkey BETWEEN 1000 AND 1050000")},
		{"sales20", salesOptimizer(), sales20},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				p, err := c.opt.Optimize(c.q, Hooks{})
				if err != nil {
					b.Fatal(err)
				}
				benchPlan = p
			}
		})
	}
}

// BenchmarkOptimizeInterleaved40 is the collapse regime's cache pressure
// in isolation: 40 SALES compilations alive at once, each on an
// iter.Pull coroutine that yields inside its Work hook, resumed
// round-robin until all have finished — the schedule the unthrottled
// engine imposes when 40 clients compile concurrently. A solo Optimize
// loop hides this cost: the working set of one compilation fits in L2,
// forty do not. One op is one round of 40 compilations.
func BenchmarkOptimizeInterleaved40(b *testing.B) {
	const live = 40
	opt := salesOptimizer()
	gen, rng := workload.NewSales(), rand.New(rand.NewSource(14))
	queries := make([]*plan.Query, live)
	for i := range queries {
		queries[i] = mustParse(b, gen.Next(rng))
	}
	compilation := func(q *plan.Query) iter.Seq[struct{}] {
		return func(yield func(struct{}) bool) {
			p, err := opt.Optimize(q, Hooks{Work: func(int) { yield(struct{}{}) }})
			if err != nil {
				b.Error(err)
			}
			benchPlan = p
		}
	}
	resume := make([]func() (struct{}, bool), 0, live)
	b.ReportAllocs()
	for b.Loop() {
		resume = resume[:0]
		for _, q := range queries {
			next, _ := iter.Pull(compilation(q))
			resume = append(resume, next)
		}
		for len(resume) > 0 {
			alive := resume[:0]
			for _, next := range resume {
				if _, ok := next(); ok {
					alive = append(alive, next)
				}
			}
			resume = alive
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*live), "ns/compile")
}
