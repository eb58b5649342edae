package memo

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAddLeafDedup(t *testing.T) {
	m := New()
	g1 := m.AddLeaf(0, 0)
	g2 := m.AddLeaf(0, 0)
	if g1 != g2 {
		t.Fatal("duplicate leaf created a second group")
	}
	if m.Groups() != 1 || m.Exprs() != 1 {
		t.Fatalf("groups=%d exprs=%d, want 1/1", m.Groups(), m.Exprs())
	}
}

func TestAddJoinCreatesUnionGroup(t *testing.T) {
	m := New()
	a := m.AddLeaf(0, 0b010)
	b := m.AddLeaf(1, 0b101)
	j, e := m.AddJoin(a, b)
	if e == NoExpr {
		t.Fatal("AddJoin: no expression")
	}
	jg := m.Group(j)
	if jg.Set != m.Group(a).Set|m.Group(b).Set {
		t.Fatalf("join set = %b", jg.Set)
	}
	if jg.Nbr != 0b111 {
		t.Fatalf("join neighbourhood = %b, want the OR of its children's", jg.Nbr)
	}
	// Commuted join lands in the same group as a distinct expr.
	j2, e2 := m.AddJoin(b, a)
	if e2 == NoExpr {
		t.Fatal("commuted AddJoin: no expression")
	}
	if j2 != j {
		t.Fatal("commuted join created a new group")
	}
	if m.Group(j).Len() != 2 {
		t.Fatalf("group exprs = %d, want 2", m.Group(j).Len())
	}
	if first := m.Group(j).FirstExpr(); first != e || m.Expr(first).Next() != e2 || m.Expr(e2).Next() != NoExpr {
		t.Fatal("group list is not in insertion order")
	}
	// Exact duplicate is rejected.
	if _, e3 := m.AddJoin(a, b); e3 != NoExpr {
		t.Fatal("duplicate join expr added")
	}
	if e4 := m.AddJoinInto(j, b, a); e4 != NoExpr {
		t.Fatal("duplicate join expr added through AddJoinInto")
	}
}

func TestPopUnexploredFollowsAppends(t *testing.T) {
	m := New()
	a := m.AddLeaf(0, 0)
	b := m.AddLeaf(1, 0)
	j, e1 := m.AddJoin(a, b)
	if got := m.PopUnexplored(j); got != e1 {
		t.Fatalf("first pop = %d, want %d", got, e1)
	}
	if got := m.PopUnexplored(j); got != NoExpr {
		t.Fatalf("pop of an explored group = %d", got)
	}
	e2 := m.AddJoinInto(j, b, a)
	if got := m.PopUnexplored(j); got != e2 {
		t.Fatalf("pop after append = %d, want %d", got, e2)
	}
	if got := m.PopUnexplored(j); got != NoExpr {
		t.Fatalf("pop of an explored group = %d", got)
	}
}

func TestAddJoinOverlapRejected(t *testing.T) {
	m := New()
	a := m.AddLeaf(0, 0)
	b := m.AddLeaf(1, 0)
	j, _ := m.AddJoin(a, b)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping join accepted")
		}
	}()
	m.AddJoin(j, a)
}

// The memo charges nothing itself: its simulated footprint is its size
// priced by a Config.
func TestBytesAreCountsTimesConfig(t *testing.T) {
	cfg := Config{BytesPerGroup: 100, BytesPerExpr: 10}
	m := New()
	a := m.AddLeaf(0, 0) // group + expr = 110
	b := m.AddLeaf(1, 0) // 110
	m.AddJoin(a, b)      // 110
	m.AddJoin(b, a)      // expr only = 10
	if got := cfg.Bytes(m.Groups(), m.Exprs()); got != 340 {
		t.Fatalf("Bytes = %d, want 340", got)
	}
}

func TestGroupLookup(t *testing.T) {
	m := New()
	a := m.AddLeaf(0, 0)
	if g, ok := m.GroupBySet(m.Group(a).Set); !ok || g != a {
		t.Fatal("GroupBySet broken")
	}
	if _, ok := m.GroupBySet(1 << 63); ok {
		t.Fatal("phantom group")
	}
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

// Property: after any sequence of joins over random group pairs, the
// memo has exactly one group per distinct table set and expression count
// >= group count; and the hash-free dedup agrees with a reference set
// keyed on the ordered (left, right) child pair — an expression is new
// exactly when its pair is.
func TestQuickMemoAccounting(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		m := New()
		groups := make([]GroupID, 0, 16)
		for table := 0; table < 6; table++ {
			groups = append(groups, m.AddLeaf(table, 0))
		}
		seen := make(map[[2]GroupID]bool)
		for _, p := range pairs {
			a := groups[int(p[0])%len(groups)]
			b := groups[int(p[1])%len(groups)]
			if m.Group(a).Set&m.Group(b).Set != 0 {
				continue
			}
			g, e := m.AddJoin(a, b)
			if (e != NoExpr) == seen[[2]GroupID{a, b}] {
				return false // dedup disagrees with the (l, r) reference
			}
			seen[[2]GroupID{a, b}] = true
			groups = append(groups, g)
		}
		sets := make(map[uint64]bool)
		for g := 0; g < m.Groups(); g++ {
			set := m.Group(GroupID(g)).Set
			if sets[set] {
				return false // duplicate set
			}
			sets[set] = true
		}
		return m.Exprs() >= m.Groups()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// intervalMemo fills m with every contiguous-interval group over an
// n-table chain and every (split, order) expression of each: the connected
// bushy space of a chain query, n(n+1)/2 groups.
func intervalMemo(m *Memo, n int) {
	iv := make([][]GroupID, n)
	for i := range iv {
		iv[i] = make([]GroupID, n)
		iv[i][i] = m.AddLeaf(i, 0)
	}
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			for k := i; k < i+span; k++ {
				l, r := iv[i][k], iv[k+1][i+span]
				iv[i][i+span], _ = m.AddJoin(l, r)
				m.AddJoin(r, l)
			}
		}
	}
}

// TestResetCostFollowsUse: a pooled memo that served one budget-sized
// compilation must not make the small compilations after it pay for its
// footprint — Reset clears what the previous compilation touched (the
// dedup matrix up to its high-water word, the set map's filled slots),
// not what the memo ever grew to — and steady-state reuse allocates
// nothing.
func TestResetCostFollowsUse(t *testing.T) {
	m := New()
	intervalMemo(m, 45) // 1035 groups: the size a MaxTasks compilation reaches
	bigGroups := m.Groups()
	small := func() {
		m.Reset()
		a := m.AddLeaf(0, 0)
		b := m.AddLeaf(1, 0)
		j, _ := m.AddJoin(a, b)
		m.AddJoinInto(j, b, a)
	}
	before := m.cleared
	small() // this Reset pays for the large compilation
	big := m.cleared - before
	if wantMin := bigGroups + bigGroups*(bigGroups-1)/2/64; big < wantMin {
		t.Fatalf("reset after the large compilation cleared %d words, want >= %d", big, wantMin)
	}

	const rounds = 1000
	before = m.cleared
	for i := 0; i < rounds; i++ {
		small()
	}
	// Three groups: three set-map slots and one matrix word each.
	if got := m.cleared - before; got != rounds*4 {
		t.Fatalf("%d two-table resets cleared %d words, want %d (%d per reset; the large one cleared %d)",
			rounds, got, rounds*4, 4, big)
	}
	if allocs := testing.AllocsPerRun(100, small); allocs != 0 {
		t.Fatalf("steady-state memo reuse allocates %v times per compilation", allocs)
	}
}

// The arenas' element sizes are the kernel's cache footprint: two groups or
// four expressions to a 64-byte line.
func TestStructSizes(t *testing.T) {
	if n := unsafe.Sizeof(Group{}); n != 32 {
		t.Errorf("Group is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(Expr{}); n != 16 {
		t.Errorf("Expr is %d bytes, want 16", n)
	}
}

// TestSeenTailStaysZero: growSeen extends the dedup matrix by reslicing, so
// every word past its length must be zero — after Reserve, after growth past
// the floor, and after Reset.
func TestSeenTailStaysZero(t *testing.T) {
	m := New()
	check := func(when string) {
		t.Helper()
		for i, w := range m.seen[len(m.seen):cap(m.seen)] {
			if w != 0 {
				t.Fatalf("%s: seen[%d] = %#x past the high-water word %d", when, len(m.seen)+i, w, len(m.seen))
			}
		}
	}
	for round := 0; round < 2; round++ {
		m.Reserve(64)
		check("reserved")
		intervalMemo(m, 45) // 1035 groups
		if m.Groups() <= minGroups || cap(m.seen) <= seenWords(minGroups) {
			t.Fatalf("%d groups in %d words did not grow past the floor", m.Groups(), cap(m.seen))
		}
		check("grown past the floor")
		m.Reset()
		check("reset")
	}
}

// TestReserve: a compilation over 8 tables or more starts at the floors,
// one over fewer reserves nothing, and reaching the floors regrows nothing.
func TestReserve(t *testing.T) {
	m := New()
	if g, e := m.Reserve(7); g != 0 || e != 0 || cap(m.groups)+cap(m.exprs)+cap(m.seen) != 0 {
		t.Fatalf("a 7-table compilation reserved %d groups and %d exprs", g, e)
	}
	if g, e := m.Reserve(8); g != minGroups || e != minExprs {
		t.Fatalf("an 8-table compilation reserved %d groups and %d exprs, want the floors", g, e)
	}
	// A chain of n tables has n(n+1)/2 connected sets, each of them a group.
	const n = 20
	caps := [3]int{cap(m.groups), cap(m.exprs), cap(m.seen)}
	intervalMemo(m, n)
	if m.Groups() != n*(n+1)/2 || m.Groups() > minGroups || m.Exprs() > minExprs {
		t.Fatalf("a %d-table chain made %d groups and %d exprs", n, m.Groups(), m.Exprs())
	}
	if grown := [3]int{cap(m.groups), cap(m.exprs), cap(m.seen)}; grown != caps {
		t.Fatalf("arenas regrew from %v to %v inside the floors", caps, grown)
	}
}
