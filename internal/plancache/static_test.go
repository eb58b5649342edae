package plancache

import (
	"math/rand"
	"testing"

	"compilegate/internal/mem"
)

// TestStaticSlotsMatchFingerprintOnly drives two caches through the same
// random Get/Put/Shrink/SetTarget/Clear sequence over the same statements.
// One is told which of them belong to the closed set (and keeps those in
// its slice); the reference is told of none, so it keys every one by
// fingerprint as the cache did before it had the slice. Counters, bytes
// and — after every step — the exact set of cached statements must agree,
// which they do only if every eviction took the same statement.
func TestStaticSlotsMatchFingerprintOnly(t *testing.T) {
	const statements, statics = 24, 9
	type stmt struct {
		fp     uint64
		static int
	}
	stmts := make([]stmt, statements)
	for i := range stmts {
		// Closed-set members are scattered among the others.
		stmts[i] = stmt{fp: uint64(i), static: -1}
		if i%3 == 1 && i/3 < statics {
			stmts[i].static = i / 3
		}
	}
	unit := tinyPlan(1).PlanBytes()
	var evictions, hits, staticHits uint64
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		budget := int64(6+rng.Intn(20)) * unit
		got := New(mem.NewBudget(budget).NewTracker("plancache"), statics, drop)
		ref := New(mem.NewBudget(budget).NewTracker("plancache"), 0, drop)
		for step := 0; step < 4000; step++ {
			s := stmts[rng.Intn(len(stmts))]
			switch op := rng.Intn(40); {
			case op < 20:
				gp, gok := got.Get(s.fp, s.static)
				rp, rok := ref.Get(s.fp, -1)
				if gok != rok || gp != rp {
					t.Fatalf("seed %d step %d: Get(%d) = %p, %v; reference %p, %v", seed, step, s.fp, gp, gok, rp, rok)
				}
				if gok && s.static >= 0 {
					staticHits++
				}
			case op < 34:
				p := tinyPlan(1 + 2*rng.Intn(3))
				got.Put(s.fp, s.static, p)
				ref.Put(s.fp, -1, p)
			case op < 36:
				want := int64(rng.Intn(4)) * unit
				if g, r := got.Shrink(want), ref.Shrink(want); g != r {
					t.Fatalf("seed %d step %d: Shrink(%d) freed %d, reference %d", seed, step, want, g, r)
				}
			case op < 39:
				target := int64(rng.Intn(2)) * int64(rng.Intn(16)) * unit
				got.SetTarget(target)
				ref.SetTarget(target)
			default:
				got.Clear()
				ref.Clear()
				for i, e := range got.statics {
					if e != nil {
						t.Fatalf("seed %d step %d: Clear left static slot %d occupied", seed, step, i)
					}
				}
			}
			if got.hits != ref.hits || got.misses != ref.misses || got.evictions != ref.evictions || got.inserts != ref.inserts {
				t.Fatalf("seed %d step %d: hits/misses/evictions/inserts = %d/%d/%d/%d, reference %d/%d/%d/%d", seed, step,
					got.hits, got.misses, got.evictions, got.inserts, ref.hits, ref.misses, ref.evictions, ref.inserts)
			}
			if got.Bytes() != ref.Bytes() || got.Len() != ref.Len() {
				t.Fatalf("seed %d step %d: bytes/len = %d/%d, reference %d/%d", seed, step, got.Bytes(), got.Len(), ref.Bytes(), ref.Len())
			}
			inMap := 0
			for _, s := range stmts {
				e := got.lookup(s.fp, s.static)
				if (e != nil) != (ref.lookup(s.fp, -1) != nil) {
					t.Fatalf("seed %d step %d: %d cached = %v, reference disagrees", seed, step, s.fp, e != nil)
				}
				// An entry lives in exactly one of the two.
				if s.static >= 0 && got.entries[s.fp] != nil {
					t.Fatalf("seed %d step %d: static statement %d is in the fingerprint map", seed, step, s.fp)
				}
				if e != nil && s.static < 0 {
					inMap++
				}
			}
			if inMap != len(got.entries) {
				t.Fatalf("seed %d step %d: fingerprint map holds %d entries, %d expected", seed, step, len(got.entries), inMap)
			}
		}
		evictions, hits = evictions+ref.evictions, hits+ref.hits
	}
	if evictions == 0 || hits == 0 || staticHits == 0 {
		t.Fatalf("evictions %d, hits %d, static hits %d: the runs are too tame to compare anything", evictions, hits, staticHits)
	}
}

// TestStaticRePutReplacesSlot: a recompiled closed-set statement takes over
// its slot — one entry, the new plan, the new charge — and an eviction
// empties the slot.
func TestStaticRePutReplacesSlot(t *testing.T) {
	c := New(mem.NewBudget(mem.GiB).NewTracker("plancache"), 3, drop)
	old, fresh := tinyPlan(1), tinyPlan(3)
	c.Put(key("fp"), 2, old)
	c.Put(key("fp"), 2, fresh)
	if p, ok := c.Get(key("fp"), 2); !ok || p != fresh {
		t.Fatalf("Get after re-Put = %p, %v; want the fresh plan %p", p, ok, fresh)
	}
	if c.Len() != 1 || c.Bytes() != fresh.PlanBytes() || len(c.entries) != 0 {
		t.Fatalf("after re-Put: %d plans, %d bytes, %d in the map; want 1, %d, 0", c.Len(), c.Bytes(), len(c.entries), fresh.PlanBytes())
	}
	// The same fingerprint outside the closed set is another statement.
	if _, ok := c.Get(key("fp"), -1); ok {
		t.Fatal("a static entry was found through the fingerprint map")
	}
	c.Shrink(c.Bytes())
	if _, ok := c.Get(key("fp"), 2); ok || c.statics[2] != nil || c.Len() != 0 {
		t.Fatal("eviction left the static slot occupied")
	}
}
