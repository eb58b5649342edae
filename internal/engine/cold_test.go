package engine

import (
	"runtime"
	"runtime/debug"
	"testing"

	"compilegate/internal/catalog"
	"compilegate/internal/sqlparser"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// salesDraws is n statements of the benchmark's SALES workload.
func salesDraws(n int) []string {
	sales, rng := workload.NewSales(), newRand(11)
	out := make([]string, n)
	for i := range out {
		out[i] = sales.Next(rng)
	}
	return out
}

// TestColdRunAllocs pins what a cold run pays for its compile and execute
// scratch: with the pools emptied by two collections, as every benchmark
// run starts, a fresh server compiles and executes SALES statements one
// after another. The memo, the tape, the cardinalities, the scan buffers and
// the attempt's parse start at the size these compilations reach, so each
// is allocated about once instead of regrown by doubling from empty. What
// is left per statement is mostly its plan and plan-cache entry. The
// collector is held off while it is measured, so that the pools stay full.
func TestColdRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const statements, bound = 20, 9.0
	stmts := salesDraws(statements)
	sched := vtime.NewScheduler()
	cat := catalog.NewSales(catalog.SalesConfig{Scale: 0.04, ExtentBytes: 8 << 20})
	srv, err := NewShared(DefaultConfig(), cat, Prebuilt{}, sched)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sched.Go("client", func(tk *vtime.Task) {
		defer srv.Close()
		for _, sql := range stmts {
			if err := srv.Submit(tk, sql); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / statements
	if per > bound {
		t.Errorf("a cold server allocates %.1f times per SALES statement, want at most %v", per, bound)
	}
	t.Logf("%.1f allocations per SALES statement on a cold server", per)
}

// The room an attempt's own parse starts with is the widest SALES
// statement's.
func TestOwnParseFitsTheWidestSales(t *testing.T) {
	var tables, joins, groupBy int
	for _, sql := range salesDraws(200) {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		tables, joins, groupBy = max(tables, len(q.Tables)), max(joins, len(q.Joins)), max(groupBy, len(q.GroupBy))
	}
	if tables != ownTables || joins != ownJoins || groupBy != ownGroupBy {
		t.Fatalf("widest SALES statement: %d tables, %d joins, %d grouping columns; the attempt's parse starts with room for %d, %d, %d",
			tables, joins, groupBy, ownTables, ownJoins, ownGroupBy)
	}
}
