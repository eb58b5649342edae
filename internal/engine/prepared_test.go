package engine

import (
	"runtime/debug"
	"testing"
	"time"

	"compilegate/internal/catalog"
	"compilegate/internal/optimizer"
	"compilegate/internal/sqlparser"
	"compilegate/internal/vtime"
)

const pointSQL = "SELECT * FROM dim_channel WHERE dim_channel.channel_id = 3"

// TestBestEffortPlanDrawsItsLists: a best-effort cut may order the scans
// differently from the plan a closed-set statement's text compiles to, so
// its executions never touch the statement's recorded lists: a two-scan
// best-effort plan cached under pointSQL's index neither replays the
// one-scan recording nor overwrites it.
func TestBestEffortPlanDrawsItsLists(t *testing.T) {
	srv, sched, _, _ := closedSetServer(t, nil)
	sched.Go("client", func(tk *vtime.Task) {
		defer srv.Close()
		submit := func() {
			t.Helper()
			if err := srv.Submit(tk, pointSQL); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}
		submit() // compiles, records
		lists := &srv.staticPrep[srv.static[pointSQL].Static]
		if lists.Scans() != 1 {
			t.Errorf("the statement recorded %d scans, want 1", lists.Scans())
			return
		}
		q, err := sqlparser.Parse(joinSQL)
		if err != nil {
			t.Fatal(err)
		}
		cut, err := srv.Optimizer().Optimize(q, optimizer.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		cut.BestEffort = true
		id := srv.static[pointSQL]
		if !srv.cache.Put(id.Fingerprint, id.Static, cut) {
			t.Fatal("the best-effort plan was not cached")
		}
		replayed := srv.exec.Replayed()
		submit()
		submit()
		if got := srv.exec.Replayed(); got != replayed {
			t.Errorf("%d executions of the best-effort plan replayed", got-replayed)
		}
		if lists.Scans() != 1 {
			t.Errorf("the statement's recording holds %d scans after the best-effort plan ran, want 1", lists.Scans())
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
// cache-hit execution: the query fails with ErrCrashed, its plan does not
// survive the restart, and — the text being outside the closed set — no
// execution before or after the crash replays scan lists.
func TestCrashMidExecutionInstallsNothing(t *testing.T) {
	srv, sched := testServer(t, nil)
	sched.Go("victim", func(tk *vtime.Task) {
		defer srv.Close()
		if err := srv.Submit(tk, joinSQL); err != nil {
			t.Errorf("Submit: %v", err)
		}
		executed := srv.exec.Executed()
		if err := srv.Submit(tk, joinSQL); err != ErrCrashed {
			t.Errorf("Submit across a crash = %v, want ErrCrashed", err)
		}
		if srv.exec.Executed() != executed+1 {
			t.Error("the crash did not land mid-execution; test is vacuous")
		}
		if srv.PlanCache().Len() != 0 {
			t.Error("the crashed engine's plan survived the restart")
		}
		for i := 0; i < 2; i++ { // recompiles, then hits
			if err := srv.Submit(tk, joinSQL); err != nil {
				t.Errorf("post-restart Submit: %v", err)
			}
		}
		if r := srv.exec.Replayed(); r != 0 {
			t.Errorf("%d executions of text outside the closed set replayed", r)
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
// keeps its scan lists with the statement, and other text keeps none, so a
// hit on a recompiled plan — pointSQL's, in the closed set, or joinSQL's,
// outside it — allocates nothing beyond what the recompilation did.
func TestClosedSetHitAfterRecompileAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct{ name, sql string }{{"closed set", pointSQL}, {"other text", joinSQL}} {
		sql := tc.sql
		srv, sched, _, _ := closedSetServer(t, nil)
		sched.Go("client", func(tk *vtime.Task) {
			defer srv.Close()
			submit := func() {
				if err := srv.Submit(tk, sql); err != nil {
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
				t.Errorf("%s: a recompilation and a hit allocate %v times, the recompilation alone %v", tc.name, pair, one)
			}
		})
		if err := sched.Run(); err != nil {
			t.Fatal(err)
		}
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
// an eviction, a Clear or a crash; text outside the snapshot's set never
// replays, cached or not.
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
			c, r := srv.Governor().Started(), srv.exec.Replayed()
			if err := srv.Submit(tk, sql); err != nil {
				t.Errorf("Submit: %v", err)
			}
			return srv.Governor().Started() > c, srv.exec.Replayed() > r
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
		if compiled, replayed := submit(joinSQL); compiled || replayed {
			t.Errorf("text outside the snapshot, first hit: compiled %t, replayed %t", compiled, replayed)
		}
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
