package engine

import (
	"testing"
	"time"

	"compilegate/internal/mem"
	"compilegate/internal/plan"
	"compilegate/internal/vtime"
)

// TestRecycledPlanIsUnobservable evicts a cached plan while an execution of
// it waits for its grant, and at once compiles a different statement onto
// the recycled plan. The execution must not notice: the buffer-pool reads
// made while it ran, its virtual time and its outcome equal those of the
// same run without the eviction. The run without it
// also pins that a cached plan is never rebuilt while the cache holds it.
func TestRecycledPlanIsUnobservable(t *testing.T) {
	type outcome struct {
		hits, misses uint64
		elapsed      time.Duration
		err          error
	}
	run := func(evict bool) outcome {
		srv, sched := testServer(t, func(c *Config) {
			c.Pressure = mem.PressureModel{}
			c.BrokerEnabled = false
		})
		var out outcome
		sched.Go("client", func(tk *vtime.Task) {
			defer srv.Close()
			if err := srv.Submit(tk, joinSQL); err != nil {
				t.Errorf("Submit: %v", err)
			}
			p := cachedPlan(t, srv, joinSQL)
			rendered := p.String()

			// Hold every byte of execution memory, so that the hit queues.
			grants := srv.exec.Grants()
			hog := grants.Tracker().Limit() - grants.Tracker().Used()
			grants.Tracker().MustReserve(hog)
			done := false
			sched.Go("hit", func(tk *vtime.Task) {
				hits, misses, at := srv.pool.Hits(), srv.pool.Misses(), tk.Now()
				out.err = tk.AwaitErr(func(errp *error, k vtime.Step) {
					srv.exec.ExecuteThen(tk, p, identify(joinSQL).Seed, nil, errp, k)
				})
				out.hits, out.misses, out.elapsed = srv.pool.Hits()-hits, srv.pool.Misses()-misses, tk.Now()-at
				done = true
			})
			for grants.Waiting() == 0 {
				tk.Sleep(time.Millisecond)
			}
			if evict {
				srv.cache.Clear()
			}
			extractions := srv.Optimizer().Work().Extractions
			sched.Go("other", func(tk *vtime.Task) {
				if err := srv.Submit(tk, pointSQL); err != nil {
					t.Errorf("Submit: %v", err)
				}
			})
			for srv.Optimizer().Work().Extractions == extractions {
				tk.Sleep(time.Millisecond)
			}
			var other *plan.Plan
			if evict {
				other = cachedPlan(t, srv, pointSQL)
			}
			if evict && other != p {
				t.Error("the other statement was not compiled onto the evicted plan; test is vacuous")
			}
			if !evict && cachedPlan(t, srv, joinSQL).String() != rendered {
				t.Errorf("the cached plan was rebuilt while cached:\n%s\nwas\n%s", cachedPlan(t, srv, joinSQL), rendered)
			}
			grants.Release(hog)
			for !done {
				tk.Sleep(time.Millisecond)
			}
		})
		if err := sched.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	kept, evicted := run(false), run(true)
	if kept.err != nil || kept.hits+kept.misses == 0 {
		t.Fatalf("the reference execution read %d extents, error %v", kept.hits+kept.misses, kept.err)
	}
	if evicted != kept {
		t.Errorf("execution of an evicted plan: %+v; kept: %+v", evicted, kept)
	}
}
