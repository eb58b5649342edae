package optimizer

import (
	"iter"
	"math/rand"
	"testing"
	"time"

	"compilegate/internal/core"
	"compilegate/internal/mem"
	"compilegate/internal/plan"
	"compilegate/internal/sqlparser"
	"compilegate/internal/stats"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// benchScale is the catalog scale every registered scenario runs at.
const benchScale = 0.04

func mustParse(b testing.TB, sql string) *plan.Query {
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

// salesQuery draws SALES statements (heavy templates only, or all) until
// one with the given join count comes up. The 20-join statement is
// template Q6, one of the two heavy templates.
func salesQuery(b testing.TB, heavy bool, joins int) *plan.Query {
	gen, rng := workload.NewSales(), rand.New(rand.NewSource(14))
	for {
		sql := ""
		if heavy {
			sql = gen.NextHeavy(rng)
		} else {
			sql = gen.Next(rng)
		}
		if q := mustParse(b, sql); len(q.Joins) == joins {
			return q
		}
	}
}

var benchPlan *plan.Plan

// BenchmarkOptimize is the solo miss path at three join widths: one
// compilation at a time, so its working set stays cache-resident. The
// suffix is the statement's join count.
func BenchmarkOptimize(b *testing.B) {
	tpch := workload.SpecTPCH.NewCatalog(benchScale, 8<<20)
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
		{"sales20", salesOptimizer(), salesQuery(b, true, 20)},
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

// BenchmarkOptimizeRetry is the resubmission path: a compilation that
// dies on a charge 60% of the way through, then a second one on the same
// exploration that runs to completion — replaying the first's tape and
// exploring live past it. One op is that pair; ns/retry is the second
// compilation alone and ns/fresh a whole compilation on a fresh
// exploration, for the ratio.
func BenchmarkOptimizeRetry(b *testing.B) {
	opt := salesOptimizer()
	for _, c := range []struct {
		name string
		q    *plan.Query
	}{{"sales17", salesQuery(b, false, 17)}, {"sales20", salesQuery(b, true, 20)}} {
		b.Run(c.name, func(b *testing.B) {
			charges := 0
			count := Hooks{Charge: func(int64) error { charges++; return nil }}
			if _, err := opt.Optimize(c.q, count); err != nil {
				b.Fatal(err)
			}
			failAt, n := charges*6/10, 0
			failing := Hooks{Charge: func(int64) error {
				if n++; n == failAt {
					return errTrajectoryCharge
				}
				return nil
			}}
			var fresh, retry time.Duration
			b.ReportAllocs()
			for b.Loop() {
				t0 := time.Now()
				p, err := opt.Optimize(c.q, count)
				if err != nil {
					b.Fatal(err)
				}
				fresh += time.Since(t0)

				x := opt.Explore(c.q)
				n = 0
				if _, err := x.Optimize(failing); err != errTrajectoryCharge {
					b.Fatalf("first attempt: %v", err)
				}
				t0 = time.Now()
				p, err = x.Optimize(count)
				retry += time.Since(t0)
				if err != nil {
					b.Fatal(err)
				}
				x.Release()
				benchPlan = p
			}
			b.ReportMetric(float64(fresh.Nanoseconds())/float64(b.N), "ns/fresh")
			b.ReportMetric(float64(retry.Nanoseconds())/float64(b.N), "ns/retry")
		})
	}
}

// BenchmarkOptimizeGoverned is Optimize as the engine calls it: every memo
// structure charged to a real core.Compilation at five times its size (memo
// plus the staged model's costing scratch). The repo benchmark's
// optimizer.optimize_ns replays with Hooks{} and is blind to that
// conversation. "room" is the unthrottled server (no chain, memory to
// spare), "gated" the throttled one (the production ladder for 8 CPUs and
// 4 GiB, uncontended: the compilation takes the gates it crosses at once);
// "single" drops the ChargeSpan hook, so each structure is an Alloc call;
// "replay" compiles on an exploration an earlier compilation completed, as a
// resubmission does: the kernel has nothing left to do and the player moves
// from mark to mark. One op is one compilation, opened and finished.
func BenchmarkOptimizeGoverned(b *testing.B) {
	const scratch = 5
	opt := salesOptimizer()
	memo := opt.cfg.Memo
	for _, stmt := range []struct {
		name string
		q    *plan.Query
	}{{"sales16", salesQuery(b, false, 16)}, {"sales20", salesQuery(b, true, 20)}} {
		for _, gated := range []bool{false, true} {
			for _, v := range []struct {
				name          string
				spans, replay bool
			}{{"", true, false}, {"/single", false, false}, {"/replay", true, true}} {
				spans := v.spans
				name := stmt.name + map[bool]string{false: "/room", true: "/gated"}[gated] + v.name
				b.Run(name, func(b *testing.B) {
					opts := core.DefaultOptions(8, 4*mem.GiB)
					opts.Enabled = gated
					gov, err := core.NewGovernor(opts, mem.NewBudget(4*mem.GiB).NewTracker("compile"))
					if err != nil {
						b.Fatal(err)
					}
					s := vtime.NewScheduler()
					s.Go("compile", func(tk *vtime.Task) {
						var comp *core.Compilation
						hooks := Hooks{
							Charge:     func(n int64) error { return comp.Alloc(scratch * n) },
							Work:       func(int) {},
							BestEffort: func() bool { return comp.ShouldYieldBestEffort() },
						}
						if spans {
							hooks.ChargeSpan = func(exprs, groups int) bool {
								return comp.AllocSpan(scratch * memo.Bytes(groups, exprs))
							}
						}
						x := opt.Explore(stmt.q)
						defer x.Release()
						b.ReportAllocs()
						for b.Loop() {
							if !v.replay {
								x.Release()
								x = opt.Explore(stmt.q)
							}
							comp = gov.Begin(tk, "bench")
							p, err := x.Optimize(hooks)
							if err != nil {
								b.Fatal(err)
							}
							if comp.Peak() != scratch*p.CompileBytes {
								b.Fatalf("compilation peaked at %d bytes, plan says %d", comp.Peak(), scratch*p.CompileBytes)
							}
							comp.Finish()
							benchPlan = p
						}
					})
					if err := s.Run(); err != nil {
						b.Fatal(err)
					}
					if settled, replayed := gov.Spans(); spans {
						b.ReportMetric(float64(settled)/float64(settled+replayed), "settled/span")
					}
				})
			}
		}
	}
}

// explored returns the run of stmt's exploration after one compilation with
// no hooks has taken it to the end of its budget. The run stays out of the
// pools.
func explored(b *testing.B, opt *Optimizer, q *plan.Query) *run {
	x := opt.Explore(q)
	if _, err := x.Optimize(Hooks{}); err != nil {
		b.Fatal(err)
	}
	return x.r
}

var benchCards []float64

// BenchmarkFillCards is the cardinality estimate of every group of a full
// memo, four sets at a time: what extraction pays once per exploration for
// the groups no earlier extraction costed. One op is one memo.
func BenchmarkFillCards(b *testing.B) {
	opt := salesOptimizer()
	for _, stmt := range []struct {
		name string
		q    *plan.Query
	}{{"sales16", salesQuery(b, false, 16)}, {"sales20", salesQuery(b, true, 20)}} {
		b.Run(stmt.name, func(b *testing.B) {
			r := explored(b, opt, stmt.q)
			n := r.m.Groups()
			for b.Loop() {
				r.cards = r.cards[:0]
				r.fillCards(n, false)
			}
			benchCards = r.cards
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/group")
			b.ReportMetric(float64(len(r.factors)), "factors")
		})
	}
}

// BenchmarkExtract is plan extraction from a full sales20 memo whose
// cardinalities are filled, as a resubmission's are: the DP over every
// group and expression, then the plan's nodes.
func BenchmarkExtract(b *testing.B) {
	r := explored(b, salesOptimizer(), salesQuery(b, true, 20))
	exprs := r.m.Exprs()
	b.ReportAllocs()
	var p plan.Plan // recycled, as the engine's plans are
	for b.Loop() {
		benchPlan = r.extract(r.here(), &p)
	}
	b.ReportMetric(float64(exprs), "exprs")
}
