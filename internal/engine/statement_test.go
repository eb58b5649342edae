package engine

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"compilegate/internal/catalog"
	"compilegate/internal/mem"
	"compilegate/internal/plan"
	"compilegate/internal/vtime"
)

// closedSetServer is ballastServer with pointSQL as the snapshot's closed
// set.
func closedSetServer(t *testing.T, mutate func(*Config)) (srv *Server, sched *vtime.Scheduler, squeeze, relax func()) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SliceDur = time.Minute
	cfg.Pressure = mem.PressureModel{}
	cfg.Throttle = false
	cfg.BrokerEnabled = false
	if mutate != nil {
		mutate(&cfg)
	}
	sched = vtime.NewScheduler()
	cat := catalog.NewSales(catalog.SalesConfig{Scale: 0.01, ExtentBytes: 8 << 20})
	srv, err := NewShared(cfg, cat, Prebuilt{Statements: PrepareStatements([]string{pointSQL})}, sched)
	if err != nil {
		t.Fatal(err)
	}
	squeeze = func() {
		for srv.LeakBallast(16*mem.MiB) == nil {
		}
		srv.ballast.Release(64 * mem.MiB)
	}
	return srv, sched, squeeze, srv.DropBallast
}

// cachedPlan is sql's plan in the cache. It counts as a hit.
func cachedPlan(t *testing.T, srv *Server, sql string) *plan.Plan {
	t.Helper()
	id, ok := srv.static[sql]
	if !ok {
		id = identify(sql)
	}
	p, cached := srv.cache.Get(id.Fingerprint, id.Static)
	if !cached {
		t.Fatalf("no cached plan for %s", sql)
	}
	return p
}

// A crash takes every host-side statement record the process made — the
// plan cache with the simulated state, the retained attempts with the rest —
// and leaves the closed set's, which are the snapshot's. So a server that
// crashed at t and restarted compiles like one started at t, on every path a
// compilation can take after: a closed-set statement missing the cold cache
// and hitting it after, other text at first sight, other text resubmitted
// after a failure — and the resubmission of a failure from before the crash,
// whose attempt went with the process. Step by step both servers must report
// the same outcome, governor and plan-cache counters, compile memory and
// table contents.
func TestCrashRestartLeavesAFreshServersRecords(t *testing.T) {
	const crashAt = 10 * time.Minute
	preCrash, postCrash := heavySQL(0), heavySQL(2)
	run := func(crashed bool) (steps []string) {
		srv, sched, squeeze, relax := closedSetServer(t, nil)
		sched.Go("client", func(tk *vtime.Task) {
			defer srv.Close()
			if crashed {
				squeeze() // first: it drains the plan cache too
				mustFailOOM(t, srv, tk, preCrash)
				relax()
				for _, sql := range []string{pointSQL, pointSQL, joinSQL, joinSQL} {
					if err := srv.Submit(tk, sql); err != nil {
						t.Errorf("before the crash: %v", err)
					}
				}
				if len(srv.retained) != 1 || srv.cache.Len() != 2 {
					t.Errorf("before the crash: %d retained, %d cached; want 1 and 2", len(srv.retained), srv.cache.Len())
				}
			}
			tk.Sleep(crashAt - tk.Now())
			if crashed {
				srv.Crash()
				srv.Restart()
			}
			g := srv.gov
			started, finished, aborted := g.Started(), g.Finished(), g.Aborted()
			hits, misses := srv.cache.Hits(), srv.cache.Misses()
			memSum, memN := srv.compileMemSum, srv.compileHist.Count()
			step := func(name, sql string, failing bool) {
				if failing {
					squeeze()
				}
				err := srv.Submit(tk, sql)
				if failing {
					relax()
				}
				steps = append(steps, fmt.Sprintf("%s: err=%v started=%d finished=%d aborted=%d hits=%d misses=%d compile-mem=%d/%d cached=%d retained=%v",
					name, err, g.Started()-started, g.Finished()-finished, g.Aborted()-aborted,
					srv.cache.Hits()-hits, srv.cache.Misses()-misses, srv.compileMemSum-memSum, srv.compileHist.Count()-memN,
					srv.cache.Len(), len(retainedTexts(srv))))
			}
			step("closed set, cold cache", pointSQL, false)
			step("closed set, cached", pointSQL, false)
			step("other text, first sight", heavySQL(1), false)
			step("other text, fails", postCrash, true)
			step("other text, resubmitted", postCrash, false)
			step("failed before the crash, resubmitted", preCrash, false)
		})
		if err := sched.Run(); err != nil {
			t.Fatal(err)
		}
		if err := srv.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return steps
	}
	fresh, restarted := run(false), run(true)
	if len(fresh) != 6 {
		t.Fatalf("%d steps ran, want 6", len(fresh))
	}
	for i := range fresh {
		if fresh[i] != restarted[i] {
			t.Errorf("step %d differs\nfresh:     %s\nrestarted: %s", i, fresh[i], restarted[i])
		}
	}
	t.Logf("%s", strings.Join(fresh, "\n"))
}

// Two compilations interleaved through the codegen ramp keep their own
// governor sessions: the second starts while the first is mid-ramp — after
// its Optimize has returned, which is when a compilation's record must not
// yet be up for reuse — and both report the peak they report alone.
func TestInterleavedCompilationsKeepTheirOwnAccounts(t *testing.T) {
	small := func(c *Config) {
		// A ramp of many small steps, each one a blocking work batch.
		c.CompileStages.StepBytes = 16 * mem.KiB
	}
	first, second := joinSQL, heavySQL(0)
	solo := map[string]int64{}
	for _, sql := range []string{first, second} {
		srv, sched, _, _ := closedSetServer(t, small)
		sched.Go("client", func(tk *vtime.Task) {
			defer srv.Close()
			if err := srv.Submit(tk, sql); err != nil {
				t.Errorf("Submit alone: %v", err)
				return
			}
			solo[sql] = cachedPlan(t, srv, sql).CompileBytes
		})
		if err := sched.Run(); err != nil {
			t.Fatal(err)
		}
	}

	srv, sched, _, _ := closedSetServer(t, small)
	// Memo plus costing scratch is half of what the ramp adds on top of the
	// bind footprint, so past this the first compilation is in its ramp.
	inRamp := (solo[first]+bindBytes)/2 + srv.cfg.CompileStages.StepBytes
	done := 0
	sched.Go("first", func(tk *vtime.Task) {
		if err := srv.Submit(tk, first); err != nil {
			t.Errorf("first: %v", err)
		}
		done++
	})
	sched.Go("second", func(tk *vtime.Task) {
		defer srv.Close()
		for srv.gov.Tracker().Used() <= inRamp {
			if done > 0 {
				t.Error("the first compilation finished before its ramp was seen")
				return
			}
			tk.Sleep(time.Millisecond)
		}
		if used, active := srv.gov.Tracker().Used(), srv.gov.Active(); active != 1 || used >= solo[first] {
			t.Errorf("second starts with %d compilations holding %d bytes: want the first alone, short of its peak %d", active, used, solo[first])
		}
		if err := srv.Submit(tk, second); err != nil {
			t.Errorf("second: %v", err)
		}
		for done == 0 {
			tk.Sleep(time.Millisecond)
		}
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if srv.gov.PeakActive() != 2 {
		t.Fatalf("peak of %d concurrent compilations, want 2", srv.gov.PeakActive())
	}
	for _, sql := range []string{first, second} {
		if got := cachedPlan(t, srv, sql).CompileBytes; got != solo[sql] {
			t.Errorf("peak compile memory %d when interleaved, %d alone: %s", got, solo[sql], sql)
		}
	}
	a, b := srv.attempts.Get(), srv.attempts.Get()
	if a == nil || b == nil || a == b || srv.attempts.Get() != nil {
		t.Errorf("two interleaved compilations left attempts %p and %p in the pool, want two and no more", a, b)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCompileAllocs pins what a compilation allocates once the pools are
// warm: the plan and what hangs off it, not the compilation's record — no
// attempt, parse, governor session, gateway ticket, continuation or
// fingerprint string, and nothing per demand the player makes. Throttled, so
// the ticket is live. A collection empties the sync.Pools the compilation
// draws from, so the garbage collector is held off while it is measured.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	srv, sched, _, _ := closedSetServer(t, func(c *Config) { c.Throttle = true })
	heavy := heavySQL(0)
	sched.Go("client", func(tk *vtime.Task) {
		defer srv.Close()
		compile := func(sql string) func() {
			return func() {
				srv.cache.Clear()
				if err := srv.Submit(tk, sql); err != nil {
					t.Errorf("Submit: %v", err)
				}
			}
		}
		for _, c := range []struct {
			name string
			sql  string
			max  float64
		}{
			{"cache-missing SALES compilation", heavy, 0},
			{"closed-set recompilation", pointSQL, 0},
		} {
			run := compile(c.sql)
			for i := 0; i < 3; i++ { // grow the pools, record the scan lists
				run()
			}
			n := testing.AllocsPerRun(20, run)
			if n > c.max {
				t.Errorf("a %s allocates %v times, want at most %v", c.name, n, c.max)
			}
			t.Logf("%s: %v allocs (plan of %d nodes)", c.name, n, cachedPlan(t, srv, c.sql).Nodes())
		}
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
}
