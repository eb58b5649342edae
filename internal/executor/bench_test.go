package executor

import (
	"testing"

	"compilegate/internal/mem"
	"compilegate/internal/plan"
	"compilegate/internal/sqlparser"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// BenchmarkExecute is one execution of an OLTP statement's plan — the 50
// statements of the closed set in turn, grant, scans through a warm buffer
// pool, CPU — handed its recorded scan lists ("prepared": what every
// execution of a closed-set statement's plan does) or nothing ("oneshot":
// a reseed of the locality source to draw a few extents, what a
// best-effort plan and any text outside the closed set do).
func BenchmarkExecute(b *testing.B) {
	for _, prepared := range []bool{true, false} {
		name := map[bool]string{true: "prepared", false: "oneshot"}[prepared]
		b.Run(name, func(b *testing.B) {
			e := newEnv(mem.GiB)
			type stmt struct {
				p    *plan.Plan
				seed int64
				prep *Prepared
			}
			var stmts []stmt
			for _, sql := range workload.SpecOLTP.StaticStatements() {
				q, err := sqlparser.Parse(sql)
				if err != nil {
					b.Fatal(err)
				}
				s := stmt{p: e.plan(b, q), seed: stmtSeed(sql)}
				if prepared {
					s.prep = new(Prepared)
				}
				stmts = append(stmts, s)
			}
			s := vtime.NewScheduler()
			s.Go("client", func(tk *vtime.Task) {
				exec := func(i int) {
					c := &stmts[i%len(stmts)]
					if err := tk.AwaitErr(func(errp *error, k vtime.Step) { e.exec.ExecuteThen(tk, c.p, c.seed, c.prep, errp, k) }); err != nil {
						b.Fatal(err)
					}
				}
				for i := range stmts { // record, and fault the extents in
					exec(i)
				}
				i := 0
				b.ReportAllocs()
				for b.Loop() {
					exec(i)
					i++
				}
			})
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
			if prepared && e.exec.Replayed() == 0 {
				b.Fatal("nothing replayed")
			}
		})
	}
}
