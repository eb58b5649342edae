package plancache

import (
	"testing"

	"compilegate/internal/mem"
	"compilegate/internal/sqlparser"
	"compilegate/internal/workload"
)

// BenchmarkCacheGet is one hit on the OLTP closed set, cycling its 50
// statements: "static" probes by the statement's index in the set, as the
// engine does for the snapshot's statements, "text" by fingerprint, as it
// does for any other statement.
func BenchmarkCacheGet(b *testing.B) {
	sqls := workload.SpecOLTP.StaticStatements()
	fps := make([]uint64, len(sqls))
	for i, sql := range sqls {
		fps[i] = sqlparser.Hash64(sql)
	}
	for _, static := range []bool{true, false} {
		name := map[bool]string{true: "static", false: "text"}[static]
		b.Run(name, func(b *testing.B) {
			c := New(mem.NewBudget(mem.GiB).NewTracker("plancache"), len(sqls), drop)
			index := func(i int) int {
				if static {
					return i
				}
				return -1
			}
			for i, fp := range fps {
				c.Put(fp, index(i), tinyPlan(1))
			}
			i := 0
			b.ReportAllocs()
			for b.Loop() {
				at := i % len(fps)
				if _, ok := c.Get(fps[at], index(at)); !ok {
					b.Fatal("miss")
				}
				i++
			}
		})
	}
}
