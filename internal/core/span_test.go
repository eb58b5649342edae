package core

import (
	"fmt"
	"testing"

	"compilegate/internal/broker"
	"compilegate/internal/mem"
	"compilegate/internal/vtime"
)

// TestAllocSpanIsKAllocs places, in turn, the next gate's threshold (static,
// and dynamic under a broker target with neighbours in the category), the
// end of physical memory and the tracker's limit at every offset of a span
// of k allocations: at its start, on each allocation, a byte to either
// side, and past it. AllocSpan must report true exactly when the k Alloc calls
// neither take a gate, nor make the budget reclaim, nor fail — and then the
// compilation, the tracker, the budget, the chain and the governor stand
// where the k calls leave them. A refused span changes nothing but the
// refusal count.
func TestAllocSpanIsKAllocs(t *testing.T) {
	const k, unit = 10, 24
	type world struct {
		name     string
		throttle bool
		target   int64  // broker target installed on the chain (0: static)
		held     int    // gates the compilation holds before the span
		ceiling  string // what lies off bytes ahead: "gate", "budget", "limit"
	}
	var worlds []world
	for _, target := range []int64{0, 9000} {
		for held := 0; held <= 2; held++ {
			worlds = append(worlds, world{fmt.Sprintf("gate%d/target=%d", held, target), true, target, held, "gate"})
		}
	}
	worlds = append(worlds,
		world{"budget/throttled", true, 0, 3, "budget"},
		world{"budget/unthrottled", false, 0, 0, "budget"},
		world{"limit/unthrottled", false, 0, 0, "limit"},
	)

	settled, refused := 0, 0
	for _, w := range worlds {
		for off := -unit - 1; off <= (k+1)*unit+1; off++ {
			var states [2]string
			var ok, clean bool
			for pass, fast := range []bool{true, false} {
				budget := mem.NewBudget(1 << 20)
				cache := budget.NewTracker("cache")
				cache.MarkReclaimable()
				reclaims := 0
				budget.RegisterReclaimer("cache", 1, func(want int64) int64 {
					reclaims++
					freed := min(want, cache.Used())
					cache.Release(freed)
					return freed
				})
				opts := testOpts()
				opts.Enabled = w.throttle
				g := newGov(t, opts, budget)
				s := vtime.NewScheduler()
				s.Go("q", func(tk *vtime.Task) {
					if w.target > 0 {
						// Two neighbours past the small gate: the medium
						// threshold is target*F/population.
						for i := 0; i < 2; i++ {
							if err := g.Begin(tk, "n").Alloc(150); err != nil {
								t.Fatal(err)
							}
						}
						g.OnBrokerNotice(broker.Notification{Target: w.target, Pressure: true})
					}
					c := g.Begin(tk, "q")
					for g.chain != nil && c.ticket.Held() < w.held {
						if err := c.Alloc(g.chain.Info()[c.ticket.Held()].Threshold + 1 - c.Used()); err != nil {
							t.Fatal(err)
						}
					}
					// Put the ceiling off bytes past the span's first byte.
					switch w.ceiling {
					case "gate":
						if pre := g.chain.Info()[w.held].Threshold - max(int64(off), 0) - c.Used(); pre > 0 {
							if err := c.Alloc(pre); err != nil {
								t.Fatal(err)
							}
						}
					case "budget":
						cache.MustReserve(budget.Free() - max(int64(off), 0))
					case "limit":
						g.tracker.SetLimit(g.tracker.Used() + max(int64(off), 1))
					}
					state := func() string {
						st := fmt.Sprintf("comp used=%d peak=%d wait=%v closed=%v | tracker used=%d peak=%d allocs=%d fails=%d | budget used=%d wired=%d wiredPeak=%d cache=%d | active=%d aborted=%d",
							c.Used(), c.Peak(), c.GateWait(), c.closed,
							g.tracker.Used(), g.tracker.Peak(), g.tracker.Allocs(), g.tracker.Fails(),
							budget.Used(), budget.WiredBytes(), budget.WiredPeak(), cache.Used(), g.Active(), g.Aborted())
						if g.chain != nil {
							st += fmt.Sprintf(" | ticket held=%d usage=%d | acquires=%d %+v", c.ticket.Held(), c.ticket.Usage(), g.chain.Acquires(), g.chain.Info())
						}
						return st
					}
					kAllocs := func() bool {
						for i := 0; i < k; i++ {
							if c.Alloc(unit) != nil {
								return false
							}
						}
						return true
					}
					before := state()
					if !fast {
						clean = kAllocs() && reclaims == 0 && (g.chain == nil || c.ticket.Held() == w.held)
						states[pass] = state()
						return
					}
					ok = c.AllocSpan(k*unit, k)
					if a, b := g.Spans(); (ok && (a != 1 || b != 0)) || (!ok && (a != 0 || b != 1)) {
						t.Errorf("%s off=%d: AllocSpan=%v counted settled=%d replayed=%d", w.name, off, ok, a, b)
					}
					if !ok {
						if after := state(); after != before {
							t.Errorf("%s off=%d: a refused span changed the world:\n before %s\n  after %s", w.name, off, before, after)
						}
						kAllocs() // the fallback the caller owes
					}
					states[pass] = state()
				})
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
			}
			if ok != clean {
				t.Fatalf("%s off=%d: AllocSpan=%v but the %d allocations ran clean=%v\n slow %s", w.name, off, ok, k, clean, states[1])
			}
			if states[0] != states[1] {
				t.Fatalf("%s off=%d (AllocSpan=%v):\n span %s\n slow %s", w.name, off, ok, states[0], states[1])
			}
			if ok {
				settled++
			} else {
				refused++
			}
		}
	}
	if settled == 0 || refused == 0 {
		t.Fatalf("%d spans settled, %d refused: both sides must be reached", settled, refused)
	}
	t.Logf("%d spans settled, %d refused", settled, refused)
}
