package core

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"compilegate/internal/broker"
	"compilegate/internal/gateway"
	"compilegate/internal/mem"
	"compilegate/internal/vtime"
)

func testOpts() Options {
	return Options{
		Enabled: true,
		Gateways: gateway.Config{Levels: []gateway.LevelConfig{
			{Name: "small", Threshold: 100, Slots: 4, Timeout: time.Second},
			{Name: "medium", Threshold: 1000, Slots: 2, Timeout: 2 * time.Second,
				Dynamic: true, TargetFraction: 0.5, MinThreshold: 200},
			{Name: "big", Threshold: 10000, Slots: 1, Timeout: 4 * time.Second,
				Dynamic: true, TargetFraction: 0.5, MinThreshold: 2000},
		}},
		DynamicThresholds: true,
		BestEffort:        true,
	}
}

func newGov(t *testing.T, opts Options, budget *mem.Budget) *Governor {
	t.Helper()
	g, err := NewGovernor(opts, budget.NewTracker("compile"))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAllocAccounting(t *testing.T) {
	budget := mem.NewBudget(1 << 20)
	g := newGov(t, testOpts(), budget)
	s := vtime.NewScheduler()
	s.Go("q", func(tk *vtime.Task) {
		c := g.Begin(tk, "q1")
		if err := c.Alloc(50); err != nil {
			t.Error(err)
		}
		if err := c.Alloc(30); err != nil {
			t.Error(err)
		}
		if c.Used() != 80 || g.Tracker().Used() != 80 {
			t.Errorf("used = %d/%d, want 80/80", c.Used(), g.Tracker().Used())
		}
		c.Free(20)
		if c.Used() != 60 {
			t.Errorf("used after Free = %d", c.Used())
		}
		c.Finish()
		if g.Tracker().Used() != 0 {
			t.Errorf("tracker leaked %d after Finish", g.Tracker().Used())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Finished() != 1 || g.Active() != 0 {
		t.Fatalf("finished=%d active=%d", g.Finished(), g.Active())
	}
}

func TestDisabledGovernorStillAccounts(t *testing.T) {
	budget := mem.NewBudget(1000)
	g := newGov(t, Options{Enabled: false}, budget)
	s := vtime.NewScheduler()
	s.Go("q", func(tk *vtime.Task) {
		c := g.Begin(tk, "q")
		// Far past every gate threshold; must not block (no chain).
		if err := c.Alloc(900); err != nil {
			t.Error(err)
		}
		// But the budget still binds:
		if err := c.Alloc(200); !errors.Is(err, mem.ErrOutOfMemory) {
			t.Errorf("err = %v, want OOM", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Chain() != nil {
		t.Fatal("disabled governor built a chain")
	}
	if g.Aborted() != 1 {
		t.Fatalf("aborted = %d, want 1 (OOM path)", g.Aborted())
	}
	if g.Tracker().Used() != 0 {
		t.Fatalf("failed compilation leaked %d bytes", g.Tracker().Used())
	}
}

func TestGateBlocksSecondBigCompilation(t *testing.T) {
	budget := mem.NewBudget(1 << 30)
	g := newGov(t, testOpts(), budget)
	s := vtime.NewScheduler()
	var secondDone time.Duration
	s.Go("big1", func(tk *vtime.Task) {
		c := g.Begin(tk, "big1")
		if err := c.Alloc(50000); err != nil {
			t.Error(err)
		}
		tk.Sleep(time.Second)
		c.Finish()
	})
	s.Go("big2", func(tk *vtime.Task) {
		tk.Sleep(time.Millisecond)
		c := g.Begin(tk, "big2")
		if err := c.Alloc(50000); err != nil {
			t.Error(err)
		}
		secondDone = tk.Now()
		if c.GateWait() == 0 {
			t.Error("big2 reports zero gate wait")
		}
		c.Finish()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if secondDone != time.Second {
		t.Fatalf("big2 admitted at %v, want 1s (after big1 released)", secondDone)
	}
}

func TestGateTimeoutAbortsCompilation(t *testing.T) {
	budget := mem.NewBudget(1 << 30)
	g := newGov(t, testOpts(), budget)
	s := vtime.NewScheduler()
	var gotErr error
	s.Go("hog", func(tk *vtime.Task) {
		c := g.Begin(tk, "hog")
		_ = c.Alloc(50000)
		tk.Sleep(time.Hour)
		c.Finish()
	})
	s.Go("victim", func(tk *vtime.Task) {
		tk.Sleep(time.Millisecond)
		c := g.Begin(tk, "victim")
		gotErr = c.Alloc(50000)
		// Victim's partial memory must be rolled back while the hog (still
		// compiling at this instant) keeps its 50000.
		if g.Tracker().Used() != 50000 {
			t.Errorf("tracker = %d right after timeout, want 50000", g.Tracker().Used())
		}
		if g.Aborted() != 1 {
			t.Errorf("aborted = %d, want 1", g.Aborted())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var te *gateway.ErrTimeout
	if !errors.As(gotErr, &te) {
		t.Fatalf("err = %v, want gateway timeout", gotErr)
	}
}

func TestBrokerDrivesDynamicThresholds(t *testing.T) {
	budget := mem.NewBudget(100000)
	g := newGov(t, testOpts(), budget)
	b := broker.New(broker.DefaultConfig(), budget)
	g.AttachBroker(b, 1, 0)

	// Create pressure: a second component hogging most of memory with a
	// rising trend.
	hog := budget.NewTracker("hog")
	hog.MustReserve(60000)
	b.Register("hog", 1, 0, hog.Used, nil)

	s := vtime.NewScheduler()
	s.Go("q", func(tk *vtime.Task) {
		c := g.Begin(tk, "q")
		_ = c.Alloc(150) // one small compilation
		for i := 1; i <= 8; i++ {
			_ = hog.Reserve(3000)
			b.Tick(tk.Now())
			tk.Sleep(time.Second)
		}
		// Broker assigned a compile target; dynamic medium threshold must
		// differ from the static 1000.
		if g.Chain().Target() == 0 {
			t.Error("broker target not installed on chain")
		}
		c.Finish()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBestEffortSignal(t *testing.T) {
	budget := mem.NewBudget(1 << 20)
	g := newGov(t, testOpts(), budget)
	s := vtime.NewScheduler()
	s.Go("q", func(tk *vtime.Task) {
		c := g.Begin(tk, "q")
		if c.ShouldYieldBestEffort() {
			t.Error("best-effort signaled with no exhaustion")
		}
		g.OnBrokerNotice(broker.Notification{Decision: broker.Shrink, Exhaustion: true})
		if !c.ShouldYieldBestEffort() {
			t.Error("best-effort not signaled under exhaustion")
		}
		if c.ShouldYieldBestEffort() {
			t.Error("best-effort signaled twice for one compilation")
		}
		c.Finish()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if g.BestEffortCount() != 1 {
		t.Fatalf("best-effort count = %d", g.BestEffortCount())
	}
}

func TestBestEffortDisabled(t *testing.T) {
	opts := testOpts()
	opts.BestEffort = false
	budget := mem.NewBudget(1 << 20)
	g := newGov(t, opts, budget)
	s := vtime.NewScheduler()
	s.Go("q", func(tk *vtime.Task) {
		c := g.Begin(tk, "q")
		g.OnBrokerNotice(broker.Notification{Exhaustion: true})
		if c.ShouldYieldBestEffort() {
			t.Error("best-effort fired while disabled")
		}
		c.Finish()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBrownoutNeedsBestEffort: brown-out acts through best-effort plans,
// so without them sustained pressure never enters it and counts no ticks.
func TestBrownoutNeedsBestEffort(t *testing.T) {
	for _, bestEffort := range []bool{true, false} {
		opts := testOpts()
		opts.BestEffort, opts.Brownout = bestEffort, true
		g := newGov(t, opts, mem.NewBudget(1<<20))
		for range brownoutEnter + 2 {
			g.OnBrokerNotice(broker.Notification{Pressure: true})
		}
		if entered := g.BrownoutEntries() > 0; entered != bestEffort || (g.BrownoutTicks() > 0) != bestEffort {
			t.Errorf("best-effort=%v: %d entries, %d ticks after %d pressured ticks",
				bestEffort, g.BrownoutEntries(), g.BrownoutTicks(), brownoutEnter+2)
		}
	}
}

func TestFinishIdempotentAndAbort(t *testing.T) {
	budget := mem.NewBudget(1 << 20)
	g := newGov(t, testOpts(), budget)
	s := vtime.NewScheduler()
	s.Go("q", func(tk *vtime.Task) {
		c := g.Begin(tk, "q")
		_ = c.Alloc(500)
		c.Finish()
		c.Finish()
		c.Abort() // after Finish: no effect
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Finished() != 1 || g.Aborted() != 0 {
		t.Fatalf("finished=%d aborted=%d, want 1/0", g.Finished(), g.Aborted())
	}
	s2 := vtime.NewScheduler()
	s2.Go("q", func(tk *vtime.Task) {
		c := g.Begin(tk, "q2")
		_ = c.Alloc(500)
		c.Abort()
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Aborted() != 1 {
		t.Fatalf("aborted = %d, want 1", g.Aborted())
	}
	if g.Tracker().Used() != 0 {
		t.Fatal("abort leaked memory")
	}
}

func TestDefaultOptions(t *testing.T) {
	opts := DefaultOptions(8, 4*mem.GiB)
	budget := mem.NewBudget(4 * mem.GiB)
	g := newGov(t, opts, budget)
	if !g.Enabled() || g.Chain() == nil || g.Chain().Levels() != 3 {
		t.Fatal("default options did not build the 3-monitor chain")
	}
}

// Property: any schedule of compilations with random sizes and outcomes
// (finish/abort) leaves zero tracker memory, zero active compilations, and
// all gates free; and started == finished + aborted.
func TestQuickGovernorLifecycle(t *testing.T) {
	type job struct {
		Size  uint32
		Hold  uint8
		Abort bool
	}
	f := func(jobs []job) bool {
		if len(jobs) > 20 {
			jobs = jobs[:20]
		}
		budget := mem.NewBudget(1 << 40)
		opts := testOpts()
		for i := range opts.Gateways.Levels {
			opts.Gateways.Levels[i].Timeout = time.Hour * time.Duration(i+1)
		}
		g, err := NewGovernor(opts, budget.NewTracker("compile"))
		if err != nil {
			return false
		}
		s := vtime.NewScheduler()
		for _, j := range jobs {
			j := j
			s.Go("q", func(tk *vtime.Task) {
				c := g.Begin(tk, "q")
				size := int64(j.Size % 200000)
				if err := c.Alloc(size); err != nil {
					return // fail() already counted the abort
				}
				tk.Sleep(time.Duration(j.Hold) * time.Millisecond)
				if j.Abort {
					c.Abort()
				} else {
					c.Finish()
				}
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		if g.Tracker().Used() != 0 || g.Active() != 0 {
			return false
		}
		if g.Started() != g.Finished()+g.Aborted() {
			return false
		}
		for _, l := range g.Chain().Info() {
			if l.Holders != 0 || l.Waiting != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
