package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"compilegate/internal/mem"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// ballastServer is a server on which compilations of heavy statements
// fail with out-of-memory exactly while squeeze() is in force: without the
// pressure model a reservation past physical memory fails, and the leak
// ballast — grown until it has drained the reclaimable caches and nothing
// more fits, then let go of 64 MiB — leaves room for a heavy SALES
// compilation to get through several work batches, not to finish.
func ballastServer(t *testing.T) (srv *Server, sched *vtime.Scheduler, squeeze, relax func()) {
	t.Helper()
	srv, sched = testServer(t, func(c *Config) {
		c.Pressure = mem.PressureModel{}
		c.Throttle = false
		c.BrokerEnabled = false
	})
	squeeze = func() {
		for srv.LeakBallast(16*mem.MiB) == nil {
		}
		srv.ballast.Release(64 * mem.MiB)
	}
	return srv, sched, squeeze, srv.DropBallast
}

// heavySQL is one heavy SALES statement, uniquified by n.
func heavySQL(n int) string {
	return fmt.Sprintf("%s /* u%d */", workload.NewSales().NextHeavy(newRand(7)), n)
}

func mustFailOOM(t *testing.T, srv *Server, tk *vtime.Task, sql string) {
	t.Helper()
	if err := srv.Submit(tk, sql); !errors.Is(err, mem.ErrOutOfMemory) {
		t.Errorf("Submit under squeeze = %v, want out of memory", err)
	}
}

func retainedTexts(srv *Server) map[string]int {
	texts := map[string]int{}
	for _, a := range srv.retained {
		texts[a.sql]++
	}
	return texts
}

// Two tasks compiling one text at the same time never share an
// exploration: after both fail the table holds two attempts with their own
// parsed statements, the two resubmissions take one each (the table is
// empty while both compile), and success releases both.
func TestConcurrentCompilesOfOneTextNeverShare(t *testing.T) {
	srv, sched, squeeze, relax := ballastServer(t)
	sql := heavySQL(0)
	done, resubmit := 0, false
	phase := func(tk *vtime.Task, n int) { // wait until n submissions have returned
		for done < n {
			tk.Sleep(time.Second)
		}
	}
	squeeze()
	for i := 0; i < 2; i++ {
		sched.Go("client", func(tk *vtime.Task) {
			mustFailOOM(t, srv, tk, sql)
			done++
			for !resubmit {
				tk.Sleep(time.Second)
			}
			if err := srv.Submit(tk, sql); err != nil {
				t.Errorf("resubmission: %v", err)
			}
			done++
		})
	}
	sched.Go("observer", func(tk *vtime.Task) {
		defer srv.Close()
		phase(tk, 2)
		if n := len(srv.retained); n != 2 {
			t.Errorf("%d attempts retained after two failed compilations of one text, want 2", n)
			resubmit = true
			return
		}
		a, b := srv.retained[0], srv.retained[1]
		if a == b || a.q == b.q || a.sql != sql || b.sql != sql {
			t.Errorf("retained attempts share state: %p/%p queries %p/%p", a, b, a.q, b.q)
		}
		relax()
		resubmit = true
		// Both clients wake within the second and compile for virtual
		// seconds; look while they do.
		for srv.ActiveCompiles() < 2 && done < 4 {
			tk.Sleep(100 * time.Millisecond)
		}
		if srv.ActiveCompiles() != 2 {
			t.Errorf("the resubmissions never compiled side by side")
			return
		}
		if n := len(srv.retained); n != 0 {
			t.Errorf("%d attempts still in the table while both resubmissions compile, want 0", n)
		}
		phase(tk, 4)
		if n := len(srv.retained); n != 0 {
			t.Errorf("%d attempts retained after both resubmissions succeeded", n)
		}
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Governor().Started(); got != 4 {
		t.Errorf("%d compilations, want 4", got)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The same at an OLTP cold start (and after a restart, which is one): two
// clients miss the cold plan cache on the same point query and compile it
// side by side, each on an attempt of its own.
func TestColdStartCompilesOfOneTextNeverShare(t *testing.T) {
	srv, sched := testServer(t, nil)
	coldStart := func(tk *vtime.Task) {
		started, running := srv.Governor().Started(), 0
		for i := 0; i < 2; i++ {
			running++
			sched.Go("client", func(tk *vtime.Task) {
				if err := srv.Submit(tk, pointSQL); err != nil {
					t.Errorf("Submit: %v", err)
				}
				running--
			})
		}
		for running > 0 {
			tk.Sleep(time.Millisecond)
		}
		if got := srv.Governor().Started() - started; got != 2 {
			t.Errorf("%d compilations on a cold cache, want 2", got)
		}
		// Both attempts are back on the free list, and they are two.
		a, b := srv.attempts.Get(), srv.attempts.Get()
		if a == nil || b == nil || a == b {
			t.Errorf("two side-by-side compilations used attempts %p and %p", a, b)
		}
		srv.attempts.Put(a)
		srv.attempts.Put(b)
	}
	sched.Go("driver", func(tk *vtime.Task) {
		defer srv.Close()
		coldStart(tk)
		srv.Crash()
		srv.Restart()
		coldStart(tk)
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
}

// The table is bounded by its constant whatever fails: ten times more
// distinct failing statements than it has room for leave exactly the
// newest retainedCap of them. A resubmission that succeeds removes its
// entry; a crash drops the rest, and a compilation in flight across the
// crash retains nothing.
func TestRetainedTableIsBoundedAndReleased(t *testing.T) {
	srv, sched, squeeze, relax := ballastServer(t)
	sched.Go("client", func(tk *vtime.Task) {
		defer srv.Close()
		squeeze()
		const n = 10 * retainedCap
		for i := 0; i < n; i++ {
			mustFailOOM(t, srv, tk, heavySQL(i))
			if len(srv.retained) > retainedCap {
				t.Errorf("table holds %d attempts after %d failures, cap %d", len(srv.retained), i+1, retainedCap)
				return
			}
		}
		texts := retainedTexts(srv)
		for i := n - retainedCap; i < n; i++ {
			if texts[heavySQL(i)] != 1 {
				t.Errorf("statement %d of %d is not retained once: the table must hold the newest %d", i, n, retainedCap)
				return
			}
		}

		relax()
		last := heavySQL(n - 1)
		if err := srv.Submit(tk, last); err != nil {
			t.Errorf("resubmission: %v", err)
			return
		}
		if len(srv.retained) != retainedCap-1 || retainedTexts(srv)[last] != 0 {
			t.Errorf("a successful resubmission left its attempt in the table (%d entries)", len(srv.retained))
		}

		// A compilation in flight across a crash: it fails with ErrCrashed
		// and must not come back into the emptied table.
		inFlight := make(chan error, 1)
		sched.Go("victim", func(tk *vtime.Task) { inFlight <- srv.Submit(tk, heavySQL(n)) })
		for srv.ActiveCompiles() == 0 {
			tk.Sleep(10 * time.Millisecond)
		}
		srv.Crash()
		if len(srv.retained) != 0 {
			t.Errorf("%d attempts survived the crash", len(srv.retained))
		}
		srv.Restart()
		for srv.ActiveCompiles() != 0 {
			tk.Sleep(10 * time.Millisecond)
		}
		if err := <-inFlight; err != ErrCrashed {
			t.Errorf("compilation in flight across the crash = %v, want ErrCrashed", err)
		}
		if len(srv.retained) != 0 {
			t.Errorf("the crashed compilation retained its attempt")
		}
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// In steady state a Submit that fails and its resubmission together
// allocate no more than two fresh Submits of the statement: retention
// recycles attempts, queries and runs like everything else on the path.
func TestFailThenRetryAllocatesNoMoreThanTwoSubmits(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	srv, sched, squeeze, relax := ballastServer(t)
	sql := heavySQL(0)
	sched.Go("client", func(tk *vtime.Task) {
		defer srv.Close()
		fresh := func() {
			if err := srv.Submit(tk, sql); err != nil {
				t.Errorf("Submit: %v", err)
			}
			srv.cache.Clear()
		}
		failThenRetry := func() {
			squeeze()
			mustFailOOM(t, srv, tk, sql)
			relax()
			fresh()
		}
		for i := 0; i < 3; i++ { // grow the pools on both paths
			fresh()
			failThenRetry()
		}
		t.Logf("squeeze + relax %v allocs", testing.AllocsPerRun(20, func() { squeeze(); relax() }))
		one := testing.AllocsPerRun(20, fresh)
		pair := testing.AllocsPerRun(20, failThenRetry)
		if pair > 2*one {
			t.Errorf("fail + retry allocates %v times, two fresh Submits %v", pair, 2*one)
		}
		t.Logf("fresh Submit %v allocs, fail + retry %v", one, pair)
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
}
