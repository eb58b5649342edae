// Package memo implements the Cascades-style memo structure ([4] in the
// paper) the optimizer explores: groups of logically-equivalent
// expressions, deduplicated so each alternative is stored once.
//
// The memo is where compilation memory goes, and it is a pure structure:
// it neither charges nor fails. Every group and every expression stands
// for a fixed number of simulated bytes (Config), so a compilation's
// memory is a count of what it has been shown of the memo — the optimizer
// charges those bytes through the governor as it walks its record of the
// memo's growth. The paper's premise — "the memory consumed during
// optimization is closely related to the number of considered
// alternatives" — is therefore true by construction.
//
// It is also purely structural: a group is a table set, its join-graph
// neighbourhood and a list of expressions. What a set is estimated to
// produce is never read while exploring, so it is not stored here; the
// optimizer computes cardinalities from Group.Set when it costs a plan.
package memo

import (
	"fmt"
	"slices"

	"compilegate/internal/u64hash"
)

// GroupID indexes a group within a memo, in creation order.
type GroupID int32

// ExprID indexes an expression within a memo, in creation order.
type ExprID int32

// NoExpr is the absent expression: the end of a group's list, and what a
// duplicate insertion returns.
const NoExpr ExprID = -1

// ExprKind distinguishes leaf (table) expressions from join expressions.
type ExprKind int8

// Expression kinds.
const (
	KindLeaf ExprKind = iota
	KindJoin
)

// Expr is one logical alternative inside a group: 16 bytes, four to a
// cache line. Expressions of one group form an intrusive singly-linked
// list in insertion order, linked by index into the memo's one flat
// expression arena. A leaf carries no payload: its table is the single
// bit of its group's Set.
type Expr struct {
	L, R GroupID // KindJoin children
	next ExprID  // intrusive group-list link
	Kind ExprKind

	// Rule-application flags prevent re-deriving the same alternatives.
	CommuteApplied bool
	AssocApplied   bool
}

// Next returns the expression inserted after e in its group (NoExpr at
// the tail). Iteration order is exactly insertion order.
func (e *Expr) Next() ExprID { return e.next }

// Group holds logically-equivalent expressions producing the same join
// set: 32 bytes, two to a cache line. Its ID is its index in the memo's
// group arena.
type Group struct {
	Set uint64 // bitset of table IDs covered
	// Nbr is the group's neighbourhood: the union of its tables' join-graph
	// neighbours, fixed at creation (a leaf's is supplied by the caller, a
	// join group's is the OR of its children's). Two groups are linked by
	// a join edge iff a.Nbr&b.Set != 0.
	Nbr uint64

	// Intrusive expression list plus the exploration cursor: every
	// expression up to and including lastExplored has had rules applied.
	head, tail   ExprID
	lastExplored ExprID
	nExprs       int32
}

// FirstExpr returns the group's first expression.
func (g *Group) FirstExpr() ExprID { return g.head }

// Len returns the number of expressions in the group.
func (g *Group) Len() int { return int(g.nExprs) }

// Config sizes the memo's simulated memory footprint.
type Config struct {
	// BytesPerGroup / BytesPerExpr are the simulated allocation charged
	// for each structure. They are deliberately larger than the Go
	// structs: they model SQL Server's per-alternative optimizer memory
	// (operator trees, properties, required/derived physical props).
	BytesPerGroup int64
	BytesPerExpr  int64
}

// Bytes returns the simulated footprint of a memo (or a memo prefix) of
// the given size.
func (c Config) Bytes(groups, exprs int) int64 {
	return int64(groups)*c.BytesPerGroup + int64(exprs)*c.BytesPerExpr
}

// DefaultConfig matches the calibration in DESIGN.md: the memo is the
// *exploration* share of compile memory — a large SALES compilation
// reaches ~100 simulated MiB of memo, and the engine's staged
// costing/codegen phases (engine.CompileStages) multiply that into the
// several-hundred-MiB peak footprint of the "several medium/large
// concurrent ad hoc compilations" regime the paper identifies.
func DefaultConfig() Config {
	return Config{
		BytesPerGroup: 32 << 10, // 32 KiB
		BytesPerExpr:  16 << 10, // 16 KiB
	}
}

// Memo is the search-space store: two flat arenas indexed by ID, a
// set-to-group map and a dedup bit matrix. All four keep their capacity
// across Reset, so a pooled memo compiles thousands of statements
// without allocating, and Reset costs what the previous compilation
// touched — never the largest one the memo has served.
//
// *Group and *Expr pointers handed out by Group and Expr alias the
// arenas: they are valid until the next Add* call, which may move them.
// IDs are stable for the life of a compilation.
//
// Both arenas are append-only and a group's expression list is in
// ascending ID order, so the memo as it stood after its first g groups
// and e expressions is still readable once it has grown past them: visit
// groups below g and stop each list at the first ID >= e.
type Memo struct {
	groups []Group
	exprs  []Expr
	bySet  u64hash.MapI32
	// seen dedups join expressions without hashing. A group's children
	// partition its table set and groups are unique per set, so within
	// group g the left child l determines the expression (the right child
	// is the group covering g.Set&^l.Set). Parent and child never swap
	// roles (a child's set is a strict subset), so the unordered ID pair
	// {g, l} names the expression: seen is a triangular bit matrix over
	// group-ID pairs, bit hi*(hi-1)/2+lo. Row hi is appended when group
	// hi is created, so len(seen) is the high-water word and everything
	// in seen[len:cap] is zero.
	seen []uint64

	// cleared counts the words Reset has zeroed over the memo's life; the
	// tests read it to pin that reset cost follows use.
	cleared int
}

// The arena floors. A compilation over floorTables tables or more starts its
// memo at the size SALES compilations reach, so that a cold run allocates each
// arena once: over four seeds of dss-governed a memo reached 301 groups and
// 1 500 expressions on average, 699 and 3 965 at most, and of the powers of two
// around these, 512 and 4096 allocated the fewest bytes per run. Fewer tables
// never reach the floors (2^7-1 groups, under 3^7 expressions).
const minGroups, minExprs, floorTables = 512, 4096, 8

// New creates an empty memo.
func New() *Memo { return &Memo{} }

// Reserve makes room in an empty memo for a compilation over n tables and
// returns the groups and expressions it made room for: the floors, or none.
func (m *Memo) Reserve(tables int) (groups, exprs int) {
	if tables < floorTables {
		return 0, 0
	}
	m.groups, m.exprs = slices.Grow(m.groups, minGroups), slices.Grow(m.exprs, minExprs)
	m.seen = slices.Grow(m.seen, seenWords(minGroups)) // zeroes what it adds: seen[len:cap] stays zero
	return minGroups, minExprs
}

// Reset empties the memo for reuse, retaining every backing array. The
// arenas are truncated, not cleared (slots are fully initialized on
// reuse); the dedup matrix clears up to its high-water word and the set
// map clears the slots it filled. The optimizer pools memos across
// compilations through this.
func (m *Memo) Reset() {
	m.groups = m.groups[:0]
	m.exprs = m.exprs[:0]
	m.cleared += m.bySet.Len() + len(m.seen)
	m.bySet.Reset()
	clear(m.seen)
	m.seen = m.seen[:0]
}

// Groups returns the number of groups; IDs run from 0 to Groups()-1.
func (m *Memo) Groups() int { return len(m.groups) }

// Exprs returns the number of expressions.
func (m *Memo) Exprs() int { return len(m.exprs) }

// Group returns the group with the given ID.
func (m *Memo) Group(id GroupID) *Group { return &m.groups[id] }

// Expr returns the expression with the given ID.
func (m *Memo) Expr(id ExprID) *Expr { return &m.exprs[id] }

// GroupBySet returns the group covering exactly the given table set.
func (m *Memo) GroupBySet(set uint64) (GroupID, bool) {
	id, ok := m.bySet.Get(set)
	return GroupID(id), ok
}

// PopUnexplored returns the next expression of g that rules have not yet
// been applied to, advancing the exploration cursor, or NoExpr when every
// expression (including ones appended since the last call) is explored.
func (m *Memo) PopUnexplored(id GroupID) ExprID {
	g := &m.groups[id]
	e := g.head
	if g.lastExplored != NoExpr {
		e = m.exprs[g.lastExplored].next
	}
	if e != NoExpr {
		g.lastExplored = e
	}
	return e
}

// addGroup creates the group for set, which must not exist yet.
func (m *Memo) addGroup(set, nbr uint64) GroupID {
	id := GroupID(len(m.groups))
	m.groups = append(m.groups, Group{
		Set: set, Nbr: nbr,
		head: NoExpr, tail: NoExpr, lastExplored: NoExpr,
	})
	m.bySet.Put(set, int32(id))
	m.growSeen(len(m.groups))
	return id
}

// seenWords is the size of the dedup matrix over n groups: n(n-1)/2 bits.
func seenWords(n int) int { return (n*(n-1)/2 + 63) / 64 }

// growSeen extends the dedup matrix to cover n groups.
func (m *Memo) growSeen(n int) {
	words := seenWords(n)
	if words <= len(m.seen) {
		return
	}
	if words > cap(m.seen) {
		m.seen = slices.Grow(m.seen, 2*words-len(m.seen)) // zeroes what it adds
	}
	m.seen = m.seen[:words]
}

// markSeen test-and-sets the bit naming the expression of group g whose
// left child is l, reporting whether it was newly set.
func (m *Memo) markSeen(g, l GroupID) bool {
	hi, lo := uint(g), uint(l)
	if hi < lo {
		hi, lo = lo, hi
	}
	bit := hi*(hi-1)/2 + lo
	w, mask := &m.seen[bit>>6], uint64(1)<<(bit&63)
	if *w&mask != 0 {
		return false
	}
	*w |= mask
	return true
}

// AddLeaf inserts a leaf group for the table with the given ID (its bit
// position in join sets) and join-graph neighbours. Adding the same table
// twice returns the existing group.
func (m *Memo) AddLeaf(table int, nbr uint64) GroupID {
	set := uint64(1) << uint(table)
	if g, ok := m.GroupBySet(set); ok {
		return g
	}
	g := m.addGroup(set, nbr)
	m.addExpr(g, KindLeaf, 0, 0)
	return g
}

// AddJoin inserts a join expression L⋈R into the group covering
// L.Set ∪ R.Set (creating the group if new). The returned expression is
// NoExpr when the group already held L⋈R. Overlapping sides are a caller
// bug and panic.
func (m *Memo) AddJoin(l, r GroupID) (GroupID, ExprID) {
	lg, rg := &m.groups[l], &m.groups[r]
	if lg.Set&rg.Set != 0 {
		panic(fmt.Sprintf("memo: join sides overlap: %b & %b", lg.Set, rg.Set))
	}
	set := lg.Set | rg.Set
	g, ok := m.GroupBySet(set)
	if !ok {
		g = m.addGroup(set, lg.Nbr|rg.Nbr)
	}
	return g, m.AddJoinInto(g, l, r)
}

// AddJoinInto is AddJoin when the covering group is already in hand —
// the commute and associate rules derive alternatives for the very group
// they are exploring, so the set lookup AddJoin pays is pure overhead
// there. g's set must equal l's ∪ r's. It returns the new expression, or
// NoExpr when g already holds L⋈R.
func (m *Memo) AddJoinInto(g, l, r GroupID) ExprID {
	if !m.markSeen(g, l) {
		return NoExpr
	}
	return m.addExpr(g, KindJoin, l, r)
}

func (m *Memo) addExpr(g GroupID, kind ExprKind, l, r GroupID) ExprID {
	id := ExprID(len(m.exprs))
	m.exprs = append(m.exprs, Expr{L: l, R: r, next: NoExpr, Kind: kind})
	grp := &m.groups[g]
	if grp.tail == NoExpr {
		grp.head = id
	} else {
		m.exprs[grp.tail].next = id
	}
	grp.tail = id
	grp.nExprs++
	return id
}

// String summarizes the memo.
func (m *Memo) String() string {
	return fmt.Sprintf("memo: %d groups, %d exprs", len(m.groups), len(m.exprs))
}
