package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// spanWorld is one random tracker configuration: a budget with an optional
// pressure model, a cache whose reclaimer the budget may run, and the
// tracker under test with an optional limit, an optional group (whose
// reclaimer shrinks a second cache inside it), wired or reclaimable,
// overcommitting or not — pre-filled to somewhere near its ceilings. Two
// worlds built from one seed are identical.
type spanWorld struct {
	b             *Budget
	g             *Group
	t             *Tracker
	cache, gcache *Tracker
	reclaims      int // reclaimer calls
}

func newSpanWorld(seed int64) *spanWorld {
	rng := rand.New(rand.NewSource(seed))
	w := &spanWorld{b: NewBudget(1 << 20)}
	if rng.Intn(2) == 0 {
		w.b.SetPressure(PressureModel{Enabled: true, CommitFrac: 1.5, CacheReserveFrac: 0.4, SlowdownSlope: 10, MaxSlowdown: 20})
	}
	shrink := func(c *Tracker) Reclaimer {
		return func(want int64) int64 {
			w.reclaims++
			freed := min(want, c.Used())
			c.Release(freed)
			return freed
		}
	}
	w.cache = w.b.NewTracker("cache")
	w.cache.MarkReclaimable()
	w.b.RegisterReclaimer("cache", 1, shrink(w.cache))

	w.t = w.b.NewTracker("compile")
	if rng.Intn(2) == 0 {
		w.t.MarkReclaimable()
	}
	if rng.Intn(2) == 0 {
		w.t.AllowOvercommit()
	}
	if rng.Intn(2) == 0 {
		w.g = w.b.NewGroup("vas", 256<<10+rng.Int63n(512<<10))
		w.t.SetGroup(w.g)
		w.gcache = w.b.NewTracker("group-cache")
		w.gcache.MarkReclaimable()
		w.gcache.SetGroup(w.g)
		w.g.RegisterReclaimer("group-cache", 1, shrink(w.gcache))
		w.gcache.MustReserve(rng.Int63n(w.g.Cap() / 2))
	}
	if rng.Intn(2) == 0 {
		w.t.SetLimit(64<<10 + rng.Int63n(512<<10))
	}
	// Fill: the tracker itself, the cache, and a wired neighbour, each to a
	// random share of what is left — spans then land on either side of every
	// ceiling.
	if r := slices.Min(w.rooms()); r > 0 {
		w.t.MustReserve(rng.Int63n(r + 1))
	}
	if f := w.b.Free(); f > 0 {
		w.cache.MustReserve(rng.Int63n(f + 1))
	}
	if f := w.b.Free(); f > 0 && rng.Intn(2) == 0 {
		w.b.NewTracker("neighbour").MustReserve(rng.Int63n(f + 1))
	}
	return w
}

// rooms lists how far the tracker is from each ceiling it has.
func (w *spanWorld) rooms() []int64 {
	rooms := []int64{w.b.Free()}
	if w.g != nil {
		rooms = append(rooms, w.g.Free())
	}
	if l := w.t.Limit(); l > 0 {
		rooms = append(rooms, l-w.t.Used())
	}
	return rooms
}

// observables renders everything a span or its k reservations may touch.
func (w *spanWorld) observables() string {
	s := fmt.Sprintf("tracker used=%d peak=%d allocs=%d fails=%d | budget used=%d wired=%d wiredPeak=%d ooms=%d | cache=%d",
		w.t.Used(), w.t.Peak(), w.t.Allocs(), w.t.Fails(),
		w.b.Used(), w.b.WiredBytes(), w.b.WiredPeak(), w.b.OOMCount(), w.cache.Used())
	if w.g != nil {
		s += fmt.Sprintf(" | group used=%d peak=%d gcache=%d", w.g.Used(), w.g.Peak(), w.gcache.Used())
	}
	return s
}

// TestReserveSpanIsKReserves: on a random configuration and a random split
// of n bytes into k reservations, ReserveSpan reports true exactly when none
// of the k Reserve calls runs a reclaimer or fails, and then leaves every
// observable where they leave it; when it reports false it has changed
// nothing.
func TestReserveSpanIsKReserves(t *testing.T) {
	settled, refused := 0, 0
	prop := func(seed int64, kRaw uint8, nRaw uint32) bool {
		fast, slow := newSpanWorld(seed), newSpanWorld(seed)
		if fast.observables() != slow.observables() {
			t.Fatalf("seed %d: worlds differ before the span", seed)
		}
		k := int(kRaw)%96 + 1
		// Sizes of the k reservations: memo-like (two sizes) or ragged.
		rng := rand.New(rand.NewSource(seed ^ int64(nRaw)))
		unit := int64(nRaw)%(24<<10) + 1
		sizes := make([]int64, k)
		var n int64
		for i := range sizes {
			sizes[i] = unit
			switch rng.Intn(4) {
			case 0:
				sizes[i] = 2 * unit
			case 1:
				sizes[i] = 1 + rng.Int63n(unit)
			}
			n += sizes[i]
		}

		// Every other span ends exactly at, one byte short of, or one byte
		// past one of the tracker's ceilings.
		if rooms := fast.rooms(); rng.Intn(2) == 0 {
			if target := rooms[rng.Intn(len(rooms))] + int64(rng.Intn(3)-1); target >= int64(k) {
				n = target
				for i := range sizes {
					sizes[i] = n / int64(k)
				}
				sizes[rng.Intn(k)] += n % int64(k)
			}
		}

		before := fast.observables()
		ok := fast.t.ReserveSpan(n, k)

		clean := true
		for _, sz := range sizes {
			if err := slow.t.Reserve(sz); err != nil {
				clean = false
				break
			}
		}
		clean = clean && slow.reclaims == 0

		switch {
		case ok != clean:
			t.Errorf("seed %d k=%d n=%d: ReserveSpan=%v, but the %d reservations ran clean=%v (reclaimer calls %d)\n before %s",
				seed, k, n, ok, k, clean, slow.reclaims, before)
		case ok && fast.observables() != slow.observables():
			t.Errorf("seed %d k=%d n=%d:\n span %s\n slow %s", seed, k, n, fast.observables(), slow.observables())
		case !ok && (fast.observables() != before || fast.reclaims != 0):
			t.Errorf("seed %d k=%d n=%d: a refused span changed the world:\n before %s\n  after %s", seed, k, n, before, fast.observables())
		}
		if err := fast.b.CheckConservation(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if ok {
			settled++
		} else {
			refused++
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8000, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
	if settled < 500 || refused < 500 {
		t.Fatalf("lopsided generator: %d spans settled, %d refused", settled, refused)
	}
	t.Logf("%d spans settled, %d refused", settled, refused)
}

func TestReserveSpanRejectsEmptyReservations(t *testing.T) {
	tr := NewBudget(MiB).NewTracker("x")
	defer func() {
		if recover() == nil {
			t.Fatal("a span of 3 reservations in 2 bytes did not panic")
		}
	}()
	tr.ReserveSpan(2, 3)
}
