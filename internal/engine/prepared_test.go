package engine

import (
	"runtime/debug"
	"testing"
	"time"

	"compilegate/internal/catalog"
	"compilegate/internal/executor"
	"compilegate/internal/sqlparser"
	"compilegate/internal/vtime"
)

const pointSQL = "SELECT * FROM dim_channel WHERE dim_channel.channel_id = 3"

// preparedFor returns the Prepared the plan cache holds for sql (nil when
// the statement is not cached).
func preparedFor(srv *Server, sql string) *executor.Prepared {
	return srv.cache.Prepared(sqlparser.Hash64(sql), -1)
}

// TestRecompiledPlanRecordsAfresh: a plan's recorded scan lists go when
// its cache entry goes — by eviction, Clear, or crash — and the plan
// compiled next under the fingerprint records its own, even when it has
// a different shape.
func TestRecompiledPlanRecordsAfresh(t *testing.T) {
	srv, sched := testServer(t, nil)
	sched.Go("client", func(tk *vtime.Task) {
		defer srv.Close()
		submit := func(sql string, times int) {
			t.Helper()
			for i := 0; i < times; i++ {
				if err := srv.Submit(tk, sql); err != nil {
					t.Errorf("Submit: %v", err)
				}
			}
		}
		submit(pointSQL, 1)
		if prep := preparedFor(srv, pointSQL); prep.Scans() != 0 {
			t.Errorf("a plan executed once recorded %d scans", prep.Scans())
			return
		}
		submit(pointSQL, 2) // records, replays
		seen := []*executor.Prepared{preparedFor(srv, pointSQL)}
		if got := seen[0].Scans(); got != 1 {
			t.Errorf("recorded %d scans on the first hit, want 1", got)
			return
		}

		for _, c := range []struct {
			name string
			drop func()
		}{
			{"evict", func() { srv.cache.Shrink(srv.cache.Bytes()) }},
			{"clear", srv.cache.Clear},
			{"crash", func() { srv.Crash(); srv.Restart() }},
		} {
			name := c.name
			compiles := srv.Governor().Started()
			c.drop()
			submit(pointSQL, 2) // recompiles, records
			if srv.Governor().Started() != compiles+1 {
				t.Errorf("%s: plan was not recompiled", name)
				return
			}
			prep := preparedFor(srv, pointSQL)
			for _, old := range seen {
				if prep == old {
					t.Errorf("%s: the recompiled plan was handed an earlier plan's lists", name)
					return
				}
			}
			if prep.Scans() != 1 {
				t.Errorf("%s: recompiled plan recorded %d scans, want 1", name, prep.Scans())
				return
			}
			seen = append(seen, prep)
		}

		// A recompilation may yield another shape (a best-effort plan cut
		// short of the full search): cache a two-scan plan under the
		// point query's fingerprint. It must record two lists of its own,
		// not replay the one list of the plan it replaced.
		submit(joinSQL, 1)
		joinPlan, _ := srv.cache.Get(sqlparser.Hash64(joinSQL), -1)
		srv.cache.Put(sqlparser.Hash64(pointSQL), -1, joinPlan)
		submit(pointSQL, 2) // records, replays
		if got := preparedFor(srv, pointSQL).Scans(); got != 2 {
			t.Errorf("replacement plan recorded %d scans, want 2", got)
			return
		}
		if got := seen[len(seen)-1].Scans(); got != 1 {
			t.Errorf("the replaced plan's lists changed: %d scans", got)
			return
		}
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidExecutionInstallsNothing crashes the engine under a
// cache-hit execution that is recording: the query fails with ErrCrashed
// and what it recorded reaches no plan of the restarted engine.
func TestCrashMidExecutionInstallsNothing(t *testing.T) {
	srv, sched := testServer(t, nil)
	sched.Go("victim", func(tk *vtime.Task) {
		defer srv.Close()
		if err := srv.Submit(tk, joinSQL); err != nil {
			t.Errorf("Submit: %v", err)
		}
		executed := srv.Executor().Executed()
		if err := srv.Submit(tk, joinSQL); err != ErrCrashed {
			t.Errorf("Submit across a crash = %v, want ErrCrashed", err)
		}
		if srv.Executor().Executed() != executed+1 {
			t.Error("the crash did not land mid-execution; test is vacuous")
		}
		if prep := preparedFor(srv, joinSQL); prep != nil {
			t.Error("the crashed engine's plan survived the restart")
		}
		if err := srv.Submit(tk, joinSQL); err != nil {
			t.Errorf("post-restart Submit: %v", err)
		}
		if prep := preparedFor(srv, joinSQL); prep.Scans() != 0 {
			t.Errorf("the recompiled plan starts with %d recorded scans", prep.Scans())
		}
	})
	sched.Go("chaos", func(tk *vtime.Task) {
		for srv.PlanCache().Hits() == 0 {
			tk.Sleep(time.Millisecond)
		}
		srv.Crash()
		srv.Restart()
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheHitSubmitAllocatesNothing pins the prepared path: on an idle
// one-client server, submitting a snapshot statement whose plan is cached
// and recorded allocates nothing.
func TestCacheHitSubmitAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	sched := vtime.NewScheduler()
	cat := catalog.NewSales(catalog.SalesConfig{Scale: 0.01, ExtentBytes: 8 << 20})
	srv, err := NewShared(cfg, cat, Prebuilt{Statements: PrepareStatements([]string{pointSQL})}, sched)
	if err != nil {
		t.Fatal(err)
	}
	sched.Go("client", func(tk *vtime.Task) {
		defer srv.Close()
		submit := func() {
			if err := srv.Submit(tk, pointSQL); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}
		for i := 0; i < 3; i++ { // compile, record, replay
			submit()
		}
		if n := testing.AllocsPerRun(200, submit); n != 0 {
			t.Errorf("a plan-cache-hit Submit allocates %v times, want 0", n)
		}
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestClosedSetHitAfterRecompileAllocatesNothing: a closed-set statement
// keeps its scan lists with the statement, so a hit on its recompiled plan
// makes no Prepared for the cache entry — the hit allocates nothing beyond
// what the recompilation did.
func TestClosedSetHitAfterRecompileAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	srv, sched, _, _ := closedSetServer(t, nil)
	sched.Go("client", func(tk *vtime.Task) {
		defer srv.Close()
		submit := func() {
			if err := srv.Submit(tk, pointSQL); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}
		recompile := func() { srv.cache.Clear(); submit() }
		recompileAndHit := func() { recompile(); submit() }
		for i := 0; i < 3; i++ { // grow the pools, record the scan lists
			recompileAndHit()
		}
		one, pair := testing.AllocsPerRun(20, recompile), testing.AllocsPerRun(20, recompileAndHit)
		if pair > one {
			t.Errorf("a recompilation and a hit allocate %v times, the recompilation alone %v", pair, one)
		}
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
}

// PrepareStatements numbers the texts it keeps densely from 0, in order,
// once each.
func TestPrepareStatementsIndexIsDense(t *testing.T) {
	ids := PrepareStatements([]string{pointSQL, "SELEC nonsense", joinSQL, pointSQL})
	if len(ids) != 2 || ids[pointSQL].Static != 0 || ids[joinSQL].Static != 1 {
		t.Fatalf("identities %+v: want pointSQL at 0 and joinSQL at 1", ids)
	}
}

// TestStaticStatementKeepsItsLists: a snapshot statement's scan lists are
// recorded by its first execution on the server and replayed by every later
// one, whether the plan comes from the cache or from a recompilation after
// an eviction, a Clear or a crash; text outside the snapshot's set replays
// only from its plan-cache entry, as before.
func TestStaticStatementKeepsItsLists(t *testing.T) {
	cfg := DefaultConfig()
	sched := vtime.NewScheduler()
	cat := catalog.NewSales(catalog.SalesConfig{Scale: 0.01, ExtentBytes: 8 << 20})
	srv, err := NewShared(cfg, cat, Prebuilt{Statements: PrepareStatements([]string{pointSQL})}, sched)
	if err != nil {
		t.Fatal(err)
	}
	sched.Go("client", func(tk *vtime.Task) {
		defer srv.Close()
		// submit runs sql once and reports whether the plan was compiled
		// for it and whether its execution replayed.
		submit := func(sql string) (compiled, replayed bool) {
			t.Helper()
			c, r := srv.Governor().Started(), srv.Executor().Replayed()
			if err := srv.Submit(tk, sql); err != nil {
				t.Errorf("Submit: %v", err)
			}
			return srv.Governor().Started() > c, srv.Executor().Replayed() > r
		}
		if compiled, replayed := submit(pointSQL); !compiled || replayed {
			t.Errorf("first submission: compiled %t, replayed %t", compiled, replayed)
		}
		if compiled, replayed := submit(pointSQL); compiled || !replayed {
			t.Errorf("first hit: compiled %t, replayed %t; want the lists its compilation's execution recorded", compiled, replayed)
		}
		for _, c := range []struct {
			name string
			drop func()
		}{
			{"evict", func() { srv.cache.Shrink(srv.cache.Bytes()) }},
			{"clear", srv.cache.Clear},
			{"crash", func() { srv.Crash(); srv.Restart() }},
		} {
			c.drop()
			if compiled, replayed := submit(pointSQL); !compiled || !replayed {
				t.Errorf("after %s: compiled %t, replayed %t; want a recompiled plan on the statement's lists", c.name, compiled, replayed)
			}
		}
		srv.cache.Clear()
		if compiled, replayed := submit(joinSQL); !compiled || replayed {
			t.Errorf("text outside the snapshot, first submission: compiled %t, replayed %t", compiled, replayed)
		}
		submit(joinSQL) // first hit: records into the entry's Prepared
		srv.cache.Clear()
		if compiled, replayed := submit(joinSQL); !compiled || replayed {
			t.Errorf("text outside the snapshot, recompiled: compiled %t, replayed %t", compiled, replayed)
		}
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
