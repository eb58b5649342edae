package gateway

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"compilegate/internal/errclass"
	"compilegate/internal/mem"
	"compilegate/internal/vtime"
)

// testConfig builds a small, fast chain: thresholds 100/1000/10000 bytes,
// slots 4/2/1, timeouts 1s/2s/4s.
func testConfig() Config {
	return Config{Levels: []LevelConfig{
		{Name: "small", Threshold: 100, Slots: 4, Timeout: time.Second},
		{Name: "medium", Threshold: 1000, Slots: 2, Timeout: 2 * time.Second,
			Dynamic: true, TargetFraction: 0.5, MinThreshold: 200},
		{Name: "big", Threshold: 10000, Slots: 1, Timeout: 4 * time.Second,
			Dynamic: true, TargetFraction: 0.5, MinThreshold: 2000},
	}}
}

func mustChain(t *testing.T, cfg Config) *Chain {
	t.Helper()
	c, err := NewChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Levels: []LevelConfig{{Name: "a", Threshold: 10, Slots: 0, Timeout: time.Second}}},
		{Levels: []LevelConfig{
			{Name: "a", Threshold: 100, Slots: 2, Timeout: time.Second},
			{Name: "b", Threshold: 50, Slots: 1, Timeout: time.Second}, // threshold not ascending
		}},
		{Levels: []LevelConfig{
			{Name: "a", Threshold: 100, Slots: 2, Timeout: time.Second},
			{Name: "b", Threshold: 200, Slots: 4, Timeout: time.Second}, // slots not descending
		}},
		{Levels: []LevelConfig{
			{Name: "a", Threshold: 100, Slots: 2, Timeout: 2 * time.Second},
			{Name: "b", Threshold: 200, Slots: 1, Timeout: time.Second}, // timeout not ascending
		}},
	}
	for i, cfg := range bad {
		if _, err := NewChain(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	if _, err := NewChain(testConfig()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestDefaultConfigShape(t *testing.T) {
	cfg := DefaultConfig(8, 4*mem.GiB)
	c := mustChain(t, cfg)
	info := c.Info()
	if len(info) != 3 {
		t.Fatalf("levels = %d, want 3", len(info))
	}
	if info[0].Slots != 32 || info[1].Slots != 8 || info[2].Slots != 1 {
		t.Fatalf("slots = %d/%d/%d, want 32/8/1", info[0].Slots, info[1].Slots, info[2].Slots)
	}
	for i := 1; i < 3; i++ {
		if info[i].Threshold <= info[i-1].Threshold {
			t.Fatal("thresholds not ascending")
		}
		if info[i].Timeout <= info[i-1].Timeout {
			t.Fatal("timeouts not ascending")
		}
	}
}

func TestBelowFirstThresholdNeverBlocks(t *testing.T) {
	s := vtime.NewScheduler()
	c := mustChain(t, testConfig())
	done := 0
	for i := 0; i < 50; i++ {
		s.Go("diag", func(tk *vtime.Task) {
			ti := c.NewTicket()
			if err := tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, 99, errp, k) }); err != nil {
				t.Error(err)
			}
			if ti.Held() != 0 {
				t.Errorf("tiny query holds %d gates", ti.Held())
			}
			ti.Close()
			done++
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 50 {
		t.Fatalf("done = %d", done)
	}
}

func TestGateConcurrencyLimits(t *testing.T) {
	s := vtime.NewScheduler()
	c := mustChain(t, testConfig())
	inSmall, maxSmall := 0, 0
	for i := 0; i < 10; i++ {
		s.Go("q", func(tk *vtime.Task) {
			ti := c.NewTicket()
			if err := tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, 500, errp, k) }); err != nil { // crosses small only
				t.Error(err)
				return
			}
			inSmall++
			if inSmall > maxSmall {
				maxSmall = inSmall
			}
			tk.Sleep(100 * time.Millisecond)
			inSmall--
			ti.Close()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxSmall != 4 {
		t.Fatalf("max concurrent past small gate = %d, want 4", maxSmall)
	}
}

func TestGatesAcquiredInOrderAndReleasedReverse(t *testing.T) {
	s := vtime.NewScheduler()
	c := mustChain(t, testConfig())
	s.Go("q", func(tk *vtime.Task) {
		ti := c.NewTicket()
		if err := tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, 150, errp, k) }); err != nil {
			t.Error(err)
		}
		if ti.Held() != 1 {
			t.Errorf("held = %d after crossing small, want 1", ti.Held())
		}
		if err := tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, 50000, errp, k) }); err != nil {
			t.Error(err)
		}
		if ti.Held() != 3 {
			t.Errorf("held = %d after crossing big, want 3", ti.Held())
		}
		info := c.Info()
		for i, l := range info {
			if l.Holders != 1 {
				t.Errorf("level %d holders = %d, want 1", i, l.Holders)
			}
		}
		ti.Close()
		for i, l := range c.Info() {
			if l.Holders != 0 {
				t.Errorf("level %d holders = %d after Close, want 0", i, l.Holders)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTimeoutAbortsAndReleases(t *testing.T) {
	s := vtime.NewScheduler()
	cfg := testConfig()
	cfg.Levels[2].Slots = 1
	c := mustChain(t, cfg)
	var timeoutErr error
	s.Go("hog", func(tk *vtime.Task) {
		ti := c.NewTicket()
		if err := tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, 50000, errp, k) }); err != nil {
			t.Error(err)
		}
		tk.Sleep(time.Hour) // hold the big gate forever
		ti.Close()
	})
	s.Go("victim", func(tk *vtime.Task) {
		tk.Sleep(time.Millisecond)
		ti := c.NewTicket()
		start := tk.Now()
		err := tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, 50000, errp, k) })
		timeoutErr = err
		if ti.Held() != 0 {
			t.Errorf("victim still holds %d gates after timeout", ti.Held())
		}
		if waited := tk.Now() - start; waited != 4*time.Second {
			t.Errorf("victim waited %v, want the big gate's 4s timeout", waited)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var te *ErrTimeout
	if !errors.As(timeoutErr, &te) {
		t.Fatalf("err = %v, want *ErrTimeout", timeoutErr)
	}
	if te.Gate != "big" {
		t.Fatalf("timed out at %q, want big", te.Gate)
	}
	if c.Timeouts() != 1 {
		t.Fatalf("chain timeouts = %d, want 1", c.Timeouts())
	}
}

func TestBlockedCompilationResumes(t *testing.T) {
	s := vtime.NewScheduler()
	c := mustChain(t, testConfig())
	var resumedAt, waited time.Duration
	s.Go("holder", func(tk *vtime.Task) {
		ti := c.NewTicket()
		_ = tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, 50000, errp, k) })
		tk.Sleep(500 * time.Millisecond)
		ti.Close()
	})
	s.Go("waiter", func(tk *vtime.Task) {
		tk.Sleep(time.Millisecond)
		ti := c.NewTicket()
		if err := tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, 50000, errp, k) }); err != nil {
			t.Error(err)
			return
		}
		resumedAt, waited = tk.Now(), ti.WaitTime()
		ti.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if resumedAt != 500*time.Millisecond {
		t.Fatalf("waiter resumed at %v, want 500ms", resumedAt)
	}
	if waited != 499*time.Millisecond {
		t.Fatalf("waiter's wait accounted as %v, want 499ms", waited)
	}
}

func TestDynamicThresholds(t *testing.T) {
	c := mustChain(t, testConfig())
	// No target: static thresholds.
	if c.Info()[1].Threshold != 1000 {
		t.Fatalf("static medium threshold = %d", c.Info()[1].Threshold)
	}
	// Target 10000, F=0.5, one small compilation => medium threshold 5000.
	s := vtime.NewScheduler()
	s.Go("q", func(tk *vtime.Task) {
		ti := c.NewTicket()
		_ = tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, 150, errp, k) }) // now 1 holder at small
		c.SetTarget(10000)
		if got := c.Info()[1].Threshold; got != 5000 {
			t.Errorf("medium threshold = %d, want 5000 (= 10000*0.5/1)", got)
		}
		ti.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// After release, population floor of 1 keeps the same value.
	if got := c.Info()[1].Threshold; got != 5000 {
		t.Fatalf("medium threshold after release = %d", got)
	}
	// More small compilations split the allotment: threshold drops.
	s2 := vtime.NewScheduler()
	s2.Go("pair", func(tk *vtime.Task) {
		a, b := c.NewTicket(), c.NewTicket()
		_ = tk.AwaitErr(func(errp *error, k vtime.Step) { a.UpdateThen(tk, 150, errp, k) })
		_ = tk.AwaitErr(func(errp *error, k vtime.Step) { b.UpdateThen(tk, 150, errp, k) })
		if got := c.Info()[1].Threshold; got != 2500 {
			t.Errorf("medium threshold with 2 small = %d, want 2500", got)
		}
		a.Close()
		b.Close()
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	// Clearing the target restores statics.
	c.SetTarget(0)
	if got := c.Info()[1].Threshold; got != 1000 {
		t.Fatalf("threshold after clearing target = %d, want 1000", got)
	}
}

func TestDynamicThresholdFloor(t *testing.T) {
	c := mustChain(t, testConfig())
	c.SetTarget(10) // absurdly low target
	if got := c.Info()[1].Threshold; got != 200 {
		t.Fatalf("medium threshold = %d, want MinThreshold 200", got)
	}
	// Ladder stays monotonic even when floors collide.
	info := c.Info()
	for i := 1; i < len(info); i++ {
		if info[i].Threshold <= info[i-1].Threshold {
			t.Fatalf("ladder not monotonic: %v", info)
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	s := vtime.NewScheduler()
	c := mustChain(t, testConfig())
	s.Go("q", func(tk *vtime.Task) {
		ti := c.NewTicket()
		_ = tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, 5000, errp, k) })
		ti.Close()
		ti.Close()
		ti.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, l := range c.Info() {
		if l.Holders != 0 {
			t.Fatalf("holders = %d after multiple Close", l.Holders)
		}
	}
}

func TestStringRendering(t *testing.T) {
	c := mustChain(t, testConfig())
	if c.String() == "" {
		t.Fatal("empty String()")
	}
}

// Property: for any interleaving of compilations with random peak usages
// and hold times, (a) holder counts never exceed slots at any level,
// (b) a ticket holding gate i holds every gate below i, and (c) after all
// tasks finish every gate is free.
func TestQuickGatewayInvariants(t *testing.T) {
	type job struct {
		Peak uint32
		Hold uint8
	}
	f := func(jobs []job) bool {
		if len(jobs) > 24 {
			jobs = jobs[:24]
		}
		s := vtime.NewScheduler()
		cfg := testConfig()
		// Long timeouts so slow interleavings don't time out spuriously.
		for i := range cfg.Levels {
			cfg.Levels[i].Timeout = time.Hour * time.Duration(i+1)
		}
		c, err := NewChain(cfg)
		if err != nil {
			return false
		}
		violated := false
		check := func() {
			info := c.Info()
			for i, l := range info {
				if l.Holders > l.Slots {
					violated = true
				}
				if i > 0 && info[i].Holders > info[i-1].Holders {
					// More holders above than below => some ticket skipped
					// a gate.
					violated = true
				}
			}
		}
		for _, j := range jobs {
			j := j
			s.Go("q", func(tk *vtime.Task) {
				ti := c.NewTicket()
				peak := int64(j.Peak % 100000)
				// Grow in 3 steps to exercise incremental acquisition.
				for step := int64(1); step <= 3; step++ {
					if err := tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, peak*step/3, errp, k) }); err != nil {
						return // timeout path still valid
					}
					check()
					tk.Sleep(time.Duration(j.Hold) * time.Millisecond)
				}
				ti.Close()
				check()
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		for _, l := range c.Info() {
			if l.Holders != 0 || l.Waiting != 0 {
				return false
			}
		}
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTimeoutErrorRecycled pins the allocation discipline of the retry
// path: every timeout on a chain returns the same recycled *ErrTimeout,
// rewritten in place, and the taxonomy classifies it as shed work
// without formatting anything. Callers that retain the error must copy
// it — this test is the contract saying so.
func TestTimeoutErrorRecycled(t *testing.T) {
	s := vtime.NewScheduler()
	cfg := testConfig()
	c := mustChain(t, cfg)
	s.Go("hog", func(tk *vtime.Task) {
		ti := c.NewTicket()
		if err := tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, 50000, errp, k) }); err != nil {
			t.Error(err)
		}
		tk.Sleep(time.Hour)
		ti.Close()
	})
	var errs []error
	for v := 0; v < 2; v++ {
		s.Go("victim", func(tk *vtime.Task) {
			tk.Sleep(time.Millisecond)
			ti := c.NewTicket()
			if err := tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, 50000, errp, k) }); err != nil {
				errs = append(errs, err)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(errs) != 2 {
		t.Fatalf("got %d timeout errors, want 2", len(errs))
	}
	if errs[0] != errs[1] {
		t.Fatalf("timeout errors not recycled: %p vs %p", errs[0], errs[1])
	}
	if !errclass.IsShed(errs[0]) {
		t.Fatalf("recycled timeout not classified as shed: %v", errs[0])
	}
	te := errs[0].(*ErrTimeout)
	if allocs := testing.AllocsPerRun(100, func() {
		*te = ErrTimeout{Gate: "big", Wait: 4 * time.Second}
		if !errclass.IsShed(te) {
			t.Error("rewritten timeout lost its class")
		}
	}); allocs != 0 {
		t.Fatalf("recycled timeout rewrite allocates %.1f/op, want 0", allocs)
	}
}
