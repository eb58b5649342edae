package mem

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestReserveRelease(t *testing.T) {
	b := NewBudget(100)
	tr := b.NewTracker("c")
	if err := tr.Reserve(60); err != nil {
		t.Fatal(err)
	}
	if b.Used() != 60 || b.Free() != 40 || tr.Used() != 60 {
		t.Fatalf("used=%d free=%d tracker=%d", b.Used(), b.Free(), tr.Used())
	}
	tr.Release(10)
	if b.Used() != 50 || tr.Used() != 50 {
		t.Fatalf("after release: used=%d tracker=%d", b.Used(), tr.Used())
	}
	if tr.Peak() != 60 {
		t.Fatalf("peak=%d, want 60", tr.Peak())
	}
}

func TestReserveZeroIsNoop(t *testing.T) {
	b := NewBudget(10)
	tr := b.NewTracker("c")
	if err := tr.Reserve(0); err != nil {
		t.Fatal(err)
	}
	if tr.Allocs() != 0 || b.Used() != 0 {
		t.Fatal("zero reservation had an effect")
	}
}

func TestOOM(t *testing.T) {
	b := NewBudget(100)
	tr := b.NewTracker("c")
	if err := tr.Reserve(101); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if b.OOMCount() != 1 || tr.Fails() != 1 {
		t.Fatalf("oom=%d fails=%d", b.OOMCount(), tr.Fails())
	}
	if b.Used() != 0 {
		t.Fatalf("failed reservation leaked %d bytes", b.Used())
	}
}

func TestReclaimSavesReservation(t *testing.T) {
	b := NewBudget(100)
	cache := b.NewTracker("cache")
	cache.MustReserve(90)
	b.RegisterReclaimer("cache", 0, func(want int64) int64 {
		n := want
		if n > cache.Used() {
			n = cache.Used()
		}
		cache.Release(n)
		return n
	})
	work := b.NewTracker("work")
	if err := work.Reserve(50); err != nil {
		t.Fatalf("reserve with reclaimable cache failed: %v", err)
	}
	if cache.Used() != 50 {
		t.Fatalf("cache shrunk to %d, want 50", cache.Used())
	}
	if b.Used() != 100 {
		t.Fatalf("budget used=%d, want 100", b.Used())
	}
}

func TestReclaimerPriorityOrder(t *testing.T) {
	b := NewBudget(100)
	a := b.NewTracker("a")
	c := b.NewTracker("c")
	a.MustReserve(50)
	c.MustReserve(50)
	var order []string
	b.RegisterReclaimer("second", 5, func(want int64) int64 {
		order = append(order, "second")
		c.Release(want)
		return want
	})
	b.RegisterReclaimer("first", 1, func(want int64) int64 {
		order = append(order, "first")
		n := int64(10)
		if n > want {
			n = want
		}
		a.Release(n)
		return n
	})
	w := b.NewTracker("w")
	if err := w.Reserve(30); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("reclaim order = %v", order)
	}
}

func TestComponentLimit(t *testing.T) {
	b := NewBudget(1000)
	tr := b.NewTracker("c")
	tr.SetLimit(100)
	if err := tr.Reserve(100); err != nil {
		t.Fatal(err)
	}
	if err := tr.Reserve(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("limit not enforced: %v", err)
	}
	tr.SetLimit(0)
	if err := tr.Reserve(1); err != nil {
		t.Fatalf("cap removal not honored: %v", err)
	}
}

func TestReleaseTooMuchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	b := NewBudget(10)
	tr := b.NewTracker("c")
	tr.MustReserve(5)
	tr.Release(6)
}

func TestReleaseAll(t *testing.T) {
	b := NewBudget(100)
	tr := b.NewTracker("c")
	tr.MustReserve(30)
	tr.MustReserve(20)
	if n := tr.ReleaseAll(); n != 50 {
		t.Fatalf("ReleaseAll = %d, want 50", n)
	}
	if tr.Used() != 0 || b.Used() != 0 {
		t.Fatal("ReleaseAll left residue")
	}
}

func TestTrackerUsageByName(t *testing.T) {
	b := NewBudget(100)
	zeta, alpha := b.NewTracker("zeta"), b.NewTracker("alpha")
	zeta.MustReserve(1)
	alpha.MustReserve(2)
	if zeta.Name() != "zeta" || alpha.Name() != "alpha" {
		t.Fatalf("names = %q, %q", zeta.Name(), alpha.Name())
	}
	if alpha.Used() != 2 || alpha.Peak() != 2 || alpha.Limit() != 0 || zeta.Used() != 1 || b.Used() != 3 {
		t.Fatalf("alpha used %d peak %d limit %d, zeta used %d, budget used %d",
			alpha.Used(), alpha.Peak(), alpha.Limit(), zeta.Used(), b.Used())
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512 B"},
		{2 * KiB, "2.00 KiB"},
		{3 * MiB, "3.00 MiB"},
		{GiB + GiB/2, "1.50 GiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
	if !strings.Contains(FormatBytes(4*GiB), "GiB") {
		t.Error("4GiB not formatted as GiB")
	}
}

// Property: for any sequence of reserve/release operations, the budget's
// used counter equals the sum over trackers, never exceeds total, and is
// never negative.
func TestQuickAccountingInvariant(t *testing.T) {
	type op struct {
		Tracker uint8
		Amount  uint16
		Release bool
	}
	f := func(ops []op) bool {
		b := NewBudget(1 << 20)
		trs := []*Tracker{b.NewTracker("a"), b.NewTracker("b"), b.NewTracker("c")}
		for _, o := range ops {
			tr := trs[int(o.Tracker)%len(trs)]
			n := int64(o.Amount)
			if o.Release {
				if n > tr.Used() {
					n = tr.Used()
				}
				tr.Release(n)
			} else {
				_ = tr.Reserve(n) // OOM is fine; must not corrupt accounting
			}
			var sum int64
			for _, x := range trs {
				if x.Used() < 0 {
					return false
				}
				sum += x.Used()
			}
			if sum != b.Used() || b.Used() > b.Total() || b.Used() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckConservationHealthy(t *testing.T) {
	b := NewBudget(1 << 30)
	g := b.NewGroup("exec", 256*MiB)
	if g.Name() != "exec" || g.Total() != g.Cap() || g.Free() != g.Cap() {
		t.Fatalf("group surface: name=%q total=%d cap=%d free=%d", g.Name(), g.Total(), g.Cap(), g.Free())
	}
	grants := b.NewTracker("grants")
	grants.SetGroup(g)
	if grants.Name() != "grants" || grants.Limit() != 0 {
		t.Fatalf("tracker surface: name=%q limit=%d", grants.Name(), grants.Limit())
	}
	cache := b.NewTracker("cache")
	cache.MarkReclaimable()
	grants.MustReserve(64 * MiB)
	cache.MustReserve(32 * MiB)
	if err := b.CheckConservation(); err != nil {
		t.Fatalf("healthy budget: %v", err)
	}
	grants.Release(64 * MiB)
	cache.ReleaseAll()
	if err := b.CheckConservation(); err != nil {
		t.Fatalf("drained budget: %v", err)
	}
}

// TestCheckConservationViolations corrupts one side of the double-entry
// bookkeeping at a time and expects the audit to name exactly that
// violation.
func TestCheckConservationViolations(t *testing.T) {
	wantErr := func(t *testing.T, err error, frag string) {
		t.Helper()
		if err == nil {
			t.Fatalf("CheckConservation passed; want error containing %q", frag)
		}
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("CheckConservation = %q, want %q", err, frag)
		}
	}
	t.Run("negative-tracker", func(t *testing.T) {
		b := NewBudget(1 << 20)
		b.NewTracker("x").used = -3
		wantErr(t, b.CheckConservation(), "used -3 < 0")
	})
	t.Run("budget-sum", func(t *testing.T) {
		b := NewBudget(1 << 20)
		b.NewTracker("x").MustReserve(100)
		b.used++
		wantErr(t, b.CheckConservation(), "budget used")
	})
	t.Run("wired-sum", func(t *testing.T) {
		b := NewBudget(1 << 20)
		tr := b.NewTracker("x")
		tr.MustReserve(100)
		tr.reclaimable = true // lie post-hoc: wired total now overcounts
		wantErr(t, b.CheckConservation(), "non-reclaimable sum")
	})
	t.Run("group-sum", func(t *testing.T) {
		b := NewBudget(1 << 20)
		g := b.NewGroup("g", 1<<19)
		tr := b.NewTracker("x")
		tr.SetGroup(g)
		tr.MustReserve(100)
		g.used++
		wantErr(t, b.CheckConservation(), "member sum")
	})
}

func TestMustReservePanicsOnOOM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustReserve past the budget did not panic")
		}
	}()
	b := NewBudget(100)
	b.NewTracker("x").MustReserve(200)
}

func TestOOMErrorMessage(t *testing.T) {
	b := NewBudget(100)
	err := b.NewTracker("x").Reserve(200)
	if err == nil {
		t.Fatal("over-budget Reserve succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, "budget exhausted") {
		t.Fatalf("oom message = %q", msg)
	}
}

func TestPressureModelLimits(t *testing.T) {
	m := DefaultPressureModel()
	if !m.Enabled {
		t.Fatal("default pressure model disabled")
	}
	if got := m.commitLimit(1000); got != 1500 {
		t.Fatalf("commitLimit(1000) = %d, want 1500", got)
	}
	if got, want := m.pagingThreshold(1000), int64((1-m.CacheReserveFrac)*1000); got != want {
		t.Fatalf("pagingThreshold(1000) = %d, want %d", got, want)
	}
	m.CacheReserveFrac = 2 // nonsense fraction clamps to the whole machine
	if got := m.pagingThreshold(1000); got != 1000 {
		t.Fatalf("clamped pagingThreshold = %d, want 1000", got)
	}
	m.Enabled = false
	if got := m.commitLimit(1000); got != 1000 {
		t.Fatalf("disabled commitLimit(1000) = %d, want 1000", got)
	}

	b := NewBudget(1 << 20)
	tr := b.NewTracker("x")
	if tr.Overcommittable() {
		t.Fatal("tracker overcommittable by default")
	}
	tr.AllowOvercommit()
	if !tr.Overcommittable() {
		t.Fatal("AllowOvercommit did not stick")
	}
}
