package plancache

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"testing/quick"

	"compilegate/internal/mem"
	"compilegate/internal/plan"
)

// tinyPlan builds a plan with n nodes (n >= 1, left-deep).
// key stands in for a statement's fingerprint.
func key(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

func tinyPlan(n int) *plan.Plan {
	root := &plan.Node{Op: plan.OpSeqScan, Table: "t"}
	for i := 1; i < n; i++ {
		root = &plan.Node{Op: plan.OpHashJoin, Left: root, Right: &plan.Node{Op: plan.OpSeqScan}}
		n-- // each join adds two nodes; compensate
	}
	return &plan.Plan{Root: root}
}

func TestGetPutHitMiss(t *testing.T) {
	b := mem.NewBudget(mem.GiB)
	c := New(b.NewTracker("plancache"), 0, drop)
	p := tinyPlan(1)
	if _, ok := c.Get(key("q1"), -1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key("q1"), -1, p)
	got, ok := c.Get(key("q1"), -1)
	if !ok || got != p {
		t.Fatal("cached plan not returned")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
	if c.Bytes() != p.PlanBytes() {
		t.Fatalf("bytes = %d, want %d", c.Bytes(), p.PlanBytes())
	}
}

func TestPutDuplicateRefreshes(t *testing.T) {
	b := mem.NewBudget(mem.GiB)
	c := New(b.NewTracker("plancache"), 0, drop)
	p := tinyPlan(1)
	c.Put(key("q1"), -1, p)
	c.Put(key("q1"), -1, p)
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Bytes() != p.PlanBytes() {
		t.Fatal("duplicate Put double-charged")
	}
}

// TestPutReplacesStalePlan pins the re-put contract: the cache must
// serve the newest plan and charge its size, not keep the stale entry
// with a refreshed recency.
func TestPutReplacesStalePlan(t *testing.T) {
	b := mem.NewBudget(mem.GiB)
	c := New(b.NewTracker("plancache"), 0, drop)
	old, fresh := tinyPlan(1), tinyPlan(5)
	if old.PlanBytes() == fresh.PlanBytes() {
		t.Fatal("test plans must differ in size")
	}
	c.Put(key("q1"), -1, old)
	c.Put(key("q1"), -1, fresh)
	got, ok := c.Get(key("q1"), -1)
	if !ok || got != fresh {
		t.Fatal("re-put kept the stale plan")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Bytes() != fresh.PlanBytes() {
		t.Fatalf("bytes = %d, want the fresh plan's %d", c.Bytes(), fresh.PlanBytes())
	}

	// Shrinking on re-put releases the difference too.
	c.Put(key("q1"), -1, old)
	if c.Bytes() != old.PlanBytes() {
		t.Fatalf("bytes = %d after shrink, want %d", c.Bytes(), old.PlanBytes())
	}
}

// drop is the recycle function of a cache whose plans nobody reuses.
func drop(*plan.Plan) {}

// TestEveryDroppedPlanIsRecycled: each plan the cache lets go of — on
// replacement, eviction, Shrink and Clear — reaches the recycle function
// once, and only then; a plan Put did not keep stays the caller's.
func TestEveryDroppedPlanIsRecycled(t *testing.T) {
	unit := tinyPlan(1).PlanBytes()
	var recycled []*plan.Plan
	c := New(mem.NewBudget(3*unit).NewTracker("plancache"), 1, func(p *plan.Plan) { recycled = append(recycled, p) })
	plans := make([]*plan.Plan, 8)
	for i := range plans {
		plans[i] = tinyPlan(1)
	}
	expect := func(step string, want ...*plan.Plan) {
		t.Helper()
		if !slices.Equal(recycled, want) {
			t.Fatalf("%s: recycled %p, want %p", step, recycled, want)
		}
		recycled = recycled[:0]
	}
	for i, p := range plans[:3] {
		if !c.Put(key(fmt.Sprint(i)), -1, p) {
			t.Fatalf("Put %d refused with room", i)
		}
	}
	expect("fill")
	c.Put(key("0"), -1, plans[3])
	expect("replace", plans[0])
	c.Put(key("static"), 0, plans[4])
	expect("evict", plans[1])
	c.Shrink(unit)
	expect("shrink", plans[2])
	c.Clear()
	expect("clear", plans[3], plans[4])
	if c.Put(key("refused"), -1, tinyPlan(5)) {
		t.Fatal("a plan larger than the budget was kept")
	}
	expect("refused")
}

func TestLRUEvictionUnderBudget(t *testing.T) {
	p := tinyPlan(1)
	// Budget fits exactly 3 plans.
	b := mem.NewBudget(3 * p.PlanBytes())
	c := New(b.NewTracker("plancache"), 0, drop)
	for i := 0; i < 3; i++ {
		c.Put(key(fmt.Sprintf("q%d", i)), -1, tinyPlan(1))
	}
	// Touch q0 so q1 is the LRU.
	c.Get(key("q0"), -1)
	c.Put(key("q3"), -1, tinyPlan(1))
	if _, ok := c.Get(key("q1"), -1); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(key("q0"), -1); !ok {
		t.Fatal("recently-used entry evicted")
	}
	if c.evictions != 1 {
		t.Fatalf("evictions = %d", c.evictions)
	}
}

func TestShrink(t *testing.T) {
	b := mem.NewBudget(mem.GiB)
	c := New(b.NewTracker("plancache"), 0, drop)
	for i := 0; i < 10; i++ {
		c.Put(key(fmt.Sprintf("q%d", i)), -1, tinyPlan(1))
	}
	before := c.Bytes()
	freed := c.Shrink(before / 2)
	if freed < before/2 {
		t.Fatalf("freed %d of requested %d", freed, before/2)
	}
	if c.Bytes() != before-freed {
		t.Fatal("bytes inconsistent after shrink")
	}
	// Oldest (q0...) went first.
	if _, ok := c.Get(key("q0"), -1); ok {
		t.Fatal("oldest survived shrink")
	}
	if _, ok := c.Get(key("q9"), -1); !ok {
		t.Fatal("newest evicted by shrink")
	}
}

func TestSetTargetShrinksAndCaps(t *testing.T) {
	b := mem.NewBudget(mem.GiB)
	c := New(b.NewTracker("plancache"), 0, drop)
	for i := 0; i < 10; i++ {
		c.Put(key(fmt.Sprintf("q%d", i)), -1, tinyPlan(1))
	}
	target := c.Bytes() / 2
	c.SetTarget(target)
	if c.Bytes() > target {
		t.Fatalf("bytes %d > target %d", c.Bytes(), target)
	}
	// New puts respect the cap (evict-to-fit).
	lenBefore := c.Len()
	c.Put(key("new"), -1, tinyPlan(1))
	if c.Bytes() > target {
		t.Fatal("Put grew past target")
	}
	if c.Len() != lenBefore {
		t.Fatalf("len changed unexpectedly: %d -> %d", lenBefore, c.Len())
	}
	c.SetTarget(0)
	if c.target != 0 {
		t.Fatal("target not cleared")
	}
}

func TestPutSkipsWhenNoRoom(t *testing.T) {
	p := tinyPlan(1)
	b := mem.NewBudget(p.PlanBytes() / 2) // can't fit even one
	c := New(b.NewTracker("plancache"), 0, drop)
	c.Put(key("q"), -1, p)
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("plan cached despite no memory")
	}
}

func TestString(t *testing.T) {
	b := mem.NewBudget(mem.GiB)
	c := New(b.NewTracker("plancache"), 0, drop)
	if c.String() == "" {
		t.Fatal("empty String")
	}
}

// Property: cache bytes always equal the sum of cached plans' bytes and
// never exceed the budget; Len matches the LRU list.
func TestQuickCacheAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		p := tinyPlan(1)
		b := mem.NewBudget(5 * p.PlanBytes())
		c := New(b.NewTracker("plancache"), 0, drop)
		for _, op := range ops {
			k := uint64(op % 12)
			if op%3 == 0 {
				c.Get(k, -1)
			} else {
				c.Put(k, -1, tinyPlan(1))
			}
			if c.Bytes() != int64(c.Len())*p.PlanBytes() {
				return false
			}
			if c.Bytes() > b.Total() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
