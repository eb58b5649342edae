package executor

import (
	"testing"
	"time"

	"compilegate/internal/mem"
	"compilegate/internal/vtime"
)

func TestAcquireReducedFullWhenFree(t *testing.T) {
	e := newEnv(mem.GiB, time.Minute)
	s := vtime.NewScheduler()
	s.Go("q", func(tk *vtime.Task) {
		got, err := e.grants.AcquireReduced(tk, 100*mem.MiB, 0.25)
		if err != nil {
			t.Error(err)
			return
		}
		if got != 100*mem.MiB {
			t.Errorf("reduced to %d with no contention", got)
		}
		e.grants.Release(got)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if e.grants.Reductions() != 0 {
		t.Fatal("phantom reduction")
	}
}

func TestAcquireReducedUnderPressure(t *testing.T) {
	e := newEnv(mem.GiB, 4*time.Minute) // tracker limit 1 GiB
	gm := e.grants
	s := vtime.NewScheduler()
	var got int64
	s.Go("hog", func(tk *vtime.Task) {
		g, err := gm.AcquireReduced(tk, 900*mem.MiB, 1)
		if err != nil {
			t.Error(err)
			return
		}
		tk.Sleep(time.Hour) // hold: only 124 MiB remain under the limit
		gm.Release(g)
	})
	s.Go("victim", func(tk *vtime.Task) {
		tk.Sleep(time.Millisecond)
		var err error
		got, err = gm.AcquireReduced(tk, 400*mem.MiB, 0.25)
		if err != nil {
			t.Errorf("reduced grant failed: %v", err)
			return
		}
		gm.Release(got)
	})
	// A kicker so the victim retries after the halfway point.
	s.Go("kicker", func(tk *vtime.Task) {
		for i := 0; i < 60; i++ {
			tk.Sleep(5 * time.Second)
			gm.Kick()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 100*mem.MiB {
		t.Fatalf("granted %d, want the 100 MiB floor (400 MiB * 0.25)", got)
	}
	if gm.Reductions() == 0 {
		t.Fatal("no reduction recorded")
	}
}

func TestAcquireReducedStillTimesOut(t *testing.T) {
	e := newEnv(mem.GiB, 10*time.Second)
	gm := e.grants
	s := vtime.NewScheduler()
	s.Go("hog", func(tk *vtime.Task) {
		g, _ := gm.AcquireReduced(tk, 1000*mem.MiB, 1)
		tk.Sleep(time.Hour)
		gm.Release(g)
	})
	s.Go("victim", func(tk *vtime.Task) {
		tk.Sleep(time.Millisecond)
		if _, err := gm.AcquireReduced(tk, 800*mem.MiB, 0.5); err == nil {
			t.Error("grant succeeded with zero memory available")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if gm.Timeouts() != 1 {
		t.Fatalf("timeouts = %d", gm.Timeouts())
	}
}

func TestSpillChargedOnReducedGrant(t *testing.T) {
	e := newEnv(mem.GiB, 2*time.Minute)
	// Direct spill-path check: execute with a hog holding most of the
	// grant budget so the query runs with a reduced grant and spills.
	p := e.plan(t, starQ(3))
	if p.MemoryGrant() == 0 {
		t.Skip("plan needs no grant")
	}
	s := vtime.NewScheduler()
	var full, reduced Stats
	s.Go("baseline", func(tk *vtime.Task) {
		var err error
		full, err = e.exec.Execute(tk, p, 1, nil)
		if err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Second run with a hog squeezing the tracker; grant reduction
	// enabled (it is opt-in).
	e2 := newEnvCfg(p.MemoryGrant()+p.MemoryGrant()/3, 2*time.Minute,
		func(c *Config) { c.MinGrantFrac = 0.25 })
	p2 := e2.plan(t, starQ(3))
	s2 := vtime.NewScheduler()
	s2.Go("hog", func(tk *vtime.Task) {
		g, err := e2.grants.AcquireReduced(tk, p2.MemoryGrant(), 1)
		if err != nil {
			t.Error(err)
			return
		}
		tk.Sleep(3 * time.Minute)
		e2.grants.Release(g)
	})
	s2.Go("victim", func(tk *vtime.Task) {
		tk.Sleep(time.Millisecond)
		var err error
		reduced, err = e2.exec.Execute(tk, p2, 1, nil)
		if err != nil {
			t.Errorf("execution with reduced grant failed: %v", err)
		}
	})
	s2.Go("kicker", func(tk *vtime.Task) {
		for i := 0; i < 100; i++ {
			tk.Sleep(2 * time.Second)
			e2.grants.Kick()
		}
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if full.SpillBytes != 0 {
		t.Fatalf("unconstrained run spilled %d bytes", full.SpillBytes)
	}
	if reduced.SpillBytes == 0 {
		t.Fatal("constrained run did not spill")
	}
	if reduced.GrantBytes >= p2.MemoryGrant() {
		t.Fatal("grant was not reduced")
	}
}
