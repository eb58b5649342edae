// Package optimizer implements a Cascades-style query optimizer over the
// memo: join-order exploration via commutativity/associativity rules,
// dynamic optimization effort proportional to estimated plan cost, and
// cost-based plan extraction.
//
// The optimizer is deliberately faithful to the properties the paper
// depends on:
//
//   - memory grows with the number of alternatives considered (every memo
//     structure is charged through the Charge hook, which the engine wires
//     to the governor's Compilation.Alloc — where gateway blocking happens);
//   - optimization time is a function of estimated query cost (dynamic
//     optimization), so expensive 15-20-join queries compile for tens of
//     virtual seconds while OLTP queries finish instantly;
//   - a complete plan (the initial left-deep tree) exists almost
//     immediately, so the best-effort path (§4.1) can always return
//     something once the broker predicts exhaustion.
package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"compilegate/internal/catalog"
	"compilegate/internal/memo"
	"compilegate/internal/plan"
	"compilegate/internal/stats"
)

// Hooks connect one optimization run to the engine.
type Hooks struct {
	// Charge charges simulated compilation memory; may block at gateways
	// and may fail (OOM / gateway timeout).
	Charge memo.ChargeFunc
	// Work reports n units of optimizer work so the engine can consume
	// virtual CPU time. May be nil.
	Work func(tasks int)
	// BestEffort, polled periodically, asks whether to stop exploring and
	// return the best complete plan so far. May be nil.
	BestEffort func() bool
}

// Config tunes the optimizer.
type Config struct {
	Memo memo.Config
	Cost plan.CostModel
	// MinTasks/MaxTasks clamp the exploration budget.
	MinTasks, MaxTasks int
	// EffortPerCost converts the initial plan's estimated cost into the
	// task budget: budget = MinTasks + cost*EffortPerCost. This is the
	// "dynamic optimization" knob: more expensive queries get
	// proportionally more optimization (and therefore memory).
	EffortPerCost float64
	// WorkBatch is how many tasks pass between Work/BestEffort callbacks.
	WorkBatch int
}

// DefaultConfig returns the calibrated tuning.
func DefaultConfig() Config {
	return Config{
		Memo:          memo.DefaultConfig(),
		Cost:          plan.DefaultCostModel(),
		MinTasks:      32,
		MaxTasks:      6_000,
		EffortPerCost: 1.5,
		WorkBatch:     64,
	}
}

// Optimizer holds immutable state shared across optimizations. Per-
// optimization state (runs and memos) comes from process-wide pools:
// each in-flight compilation holds its run and memo until it finishes
// or aborts, and recycled instances keep their grown arenas, so a
// sweep's later runs compile without re-paying the first run's
// arena warm-up.
type Optimizer struct {
	est *stats.Estimator
	cat *catalog.Catalog
	cfg Config
}

// runPool and memoPool recycle per-optimization state across every
// optimizer in the process. Optimizers on different sweep shards drain
// and fill them concurrently, so they must be synchronized pools; a
// pooled instance carries only capacity (arenas, map slots) —
// getRun and memo.Reset restore observable state bit-identically, so
// reuse never affects results.
var (
	runPool  = sync.Pool{New: func() any { return &run{tableOf: make(map[string]*catalog.Table)} }}
	memoPool = sync.Pool{New: func() any { return memo.New(memo.Config{}, nil) }}
)

// New creates an optimizer over the estimator's catalog.
func New(est *stats.Estimator, cfg Config) *Optimizer {
	if cfg.WorkBatch <= 0 {
		cfg.WorkBatch = 64
	}
	return &Optimizer{est: est, cat: est.Catalog(), cfg: cfg}
}

// run is the per-optimization state. It is pooled: every field is either
// reset by getRun or overwritten by resolve. Leaf cardinalities,
// selectivities, and adjacency are dense arrays indexed by table ID (the
// bit position in the join bitsets) instead of maps — the hot lookups in
// cardOfSet cost an array index. Nothing here is hashed or memoized per
// group: what exploration needs of a group (set, cardinality,
// neighbourhood) is stored in the group.
type run struct {
	o     *Optimizer
	q     *plan.Query
	hooks Hooks
	m     *memo.Memo

	terms    []*plan.TableTerm         // query terms by table ID position
	tabs     []*catalog.Table          // resolved tables, parallel to terms
	tableOf  map[string]*catalog.Table // name -> table, for join validation
	leafCard [64]float64               // filtered cardinality by table ID
	leafSel  [64]float64               // combined filter selectivity by table ID
	adjacent [64]uint64                // neighbor bitset by table ID
	edges    []joinEdge                // join edges in insertion order (deterministic)

	// Extraction DP and buildInitial scratch, reused across phases.
	dp        []costed
	order     []memo.GroupID // groups by ascending table count, for the DP
	leaves    []memo.GroupID // leaf group per term
	remaining []bool         // buildInitial: term not yet joined
	aggCols   []struct{ Table, Column string }
	// Plan-node arena for the current extraction; ownership transfers to
	// the plan, so it is not pooled.
	arena     []plan.Node
	arenaNext int

	tasks        int
	budget       int
	sinceWork    int
	cutBestFirst bool // best-effort fired
}

// getRun returns a pooled, reset run with a pooled memo attached.
func (o *Optimizer) getRun(q *plan.Query, hooks Hooks) *run {
	r := runPool.Get().(*run)
	m := memoPool.Get().(*memo.Memo)
	m.Reset(o.cfg.Memo, hooks.Charge)
	r.o = o
	r.q, r.hooks, r.m = q, hooks, m
	r.terms = r.terms[:0]
	r.tabs = r.tabs[:0]
	clear(r.tableOf)
	r.leafCard = [64]float64{}
	r.leafSel = [64]float64{}
	r.adjacent = [64]uint64{}
	r.edges = r.edges[:0]
	r.tasks, r.budget, r.sinceWork = 0, 0, 0
	r.cutBestFirst = false
	return r
}

// putRun recycles a finished run and its memo. The returned plan holds
// no references into either.
func (o *Optimizer) putRun(r *run) {
	memoPool.Put(r.m)
	r.o, r.q, r.m = nil, nil, nil
	r.hooks = Hooks{}
	runPool.Put(r)
}

// Optimize compiles q to a physical plan. Errors are either query errors
// (validation), mem.ErrOutOfMemory, or *gateway.ErrTimeout propagated from
// the Charge hook.
func (o *Optimizer) Optimize(q *plan.Query, hooks Hooks) (*plan.Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	r := o.getRun(q, hooks)
	defer o.putRun(r)
	if err := r.resolve(); err != nil {
		return nil, err
	}
	root, err := r.buildInitial()
	if err != nil {
		return nil, err
	}
	// Dynamic optimization: size the exploration budget from the initial
	// plan's estimated cost. The cost is computed without materializing
	// the throwaway initial plan's nodes (same arithmetic, no allocation).
	r.budget = r.effortBudget(r.initialCost(root))

	if err := r.explore(); err != nil {
		return nil, err
	}
	p := r.extract(root)
	p.BestEffort = r.cutBestFirst
	p.ExprsExplored = r.m.Exprs()
	p.CompileBytes = r.m.Bytes()
	return p, nil
}

// EstimateInitialCost returns the cost of the unexplored left-deep plan
// for q — what dynamic optimization keys its effort from. Used by tests
// and diagnostics; it charges no memory.
func (o *Optimizer) EstimateInitialCost(q *plan.Query) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	r := o.getRun(q, Hooks{})
	defer o.putRun(r)
	if err := r.resolve(); err != nil {
		return 0, err
	}
	root, err := r.buildInitial()
	if err != nil {
		return 0, err
	}
	return r.initialCost(root), nil
}

func (r *run) effortBudget(cost float64) int {
	b := r.o.cfg.MinTasks + int(cost*r.o.cfg.EffortPerCost)
	if b > r.o.cfg.MaxTasks {
		b = r.o.cfg.MaxTasks
	}
	return b
}

// resolve binds query tables against the catalog and precomputes the join
// graph structures.
func (r *run) resolve() error {
	for i := range r.q.Tables {
		term := &r.q.Tables[i]
		t := r.o.cat.Table(term.Name)
		if t == nil {
			return fmt.Errorf("optimizer: unknown table %s", term.Name)
		}
		r.tableOf[term.Name] = t
		sel := r.o.est.CombinedSelectivity(term.Preds)
		card := float64(t.Rows) * sel
		if card < 1 {
			card = 1
		}
		r.leafCard[t.ID] = card
		r.leafSel[t.ID] = sel
		r.terms = append(r.terms, term)
		r.tabs = append(r.tabs, t)
	}
	for _, j := range r.q.Joins {
		a, b := r.tableOf[j.A], r.tableOf[j.B]
		if a == nil || b == nil {
			return fmt.Errorf("optimizer: join references unknown table %s-%s", j.A, j.B)
		}
		if r.adjacent[a.ID]&(1<<uint(b.ID)) != 0 {
			continue // repeated edge: one selectivity factor per table pair
		}
		r.adjacent[a.ID] |= 1 << uint(b.ID)
		r.adjacent[b.ID] |= 1 << uint(a.ID)
		r.edges = append(r.edges, joinEdge{
			mask: 1<<uint(a.ID) | 1<<uint(b.ID),
			sel:  r.o.est.JoinSelectivity(j.A, j.B),
		})
	}
	return nil
}

type joinEdge struct {
	mask uint64 // both endpoint bits
	sel  float64
}

// cardOfSet estimates the cardinality of joining exactly the tables in
// set: the product of filtered leaf cardinalities (ascending table ID,
// so the float rounding matches run to run) and the selectivities of all
// join edges internal to the set. It is a pure function of the resolved
// query, paid once per genuinely new group.
func (r *run) cardOfSet(set uint64) float64 {
	card := 1.0
	for s := set; s != 0; s &= s - 1 {
		card *= r.leafCard[bits.TrailingZeros64(s)]
	}
	for _, e := range r.edges {
		if set&e.mask == e.mask {
			card *= e.sel
		}
	}
	if card < 1 {
		card = 1
	}
	return card
}

// buildInitial creates leaf groups and a connectivity-respecting left-deep
// join tree in greedy smallest-cardinality-first order, returning the root
// group. This is the "first complete plan" dynamic optimization starts
// from.
func (r *run) buildInitial() (memo.GroupID, error) {
	r.leaves = r.leaves[:0]
	for i := range r.terms {
		t := r.tabs[i]
		g, err := r.m.AddLeaf(t.ID, r.leafCard[t.ID], r.adjacent[t.ID])
		if err != nil {
			return 0, err
		}
		r.leaves = append(r.leaves, g)
	}
	if len(r.terms) == 1 {
		return r.leaves[0], nil
	}

	// Pick the smallest filtered leaf as the seed, then greedily join the
	// connected table that minimizes intermediate cardinality.
	r.remaining = r.remaining[:0]
	for range r.terms {
		r.remaining = append(r.remaining, true)
	}
	curIdx := 0
	for i := range r.terms {
		if r.leafCard[r.tabs[i].ID] < r.leafCard[r.tabs[curIdx].ID] {
			curIdx = i
		}
	}
	cur := r.leaves[curIdx]
	r.remaining[curIdx] = false
	for left := len(r.terms) - 1; left > 0; left-- {
		curSet, curNbr := r.m.Group(cur).Set, r.m.Group(cur).Nbr
		bestIdx := -1
		bestCard := math.Inf(1)
		for i := range r.terms {
			if !r.remaining[i] {
				continue
			}
			bit := uint64(1) << uint(r.tabs[i].ID)
			if curNbr&bit == 0 {
				continue
			}
			c := r.cardOfSet(curSet | bit)
			if c < bestCard {
				bestIdx, bestCard = i, c
			}
		}
		if bestIdx < 0 {
			// Validate() guarantees connectivity, so this is unreachable
			// unless the query lied; fail loudly.
			return 0, fmt.Errorf("optimizer: disconnected join graph at %s", r.terms[curIdx].Name)
		}
		joined, _, err := r.m.AddJoin(cur, r.leaves[bestIdx], bestCard)
		if err != nil {
			return 0, err
		}
		cur = joined
		r.remaining[bestIdx] = false
	}
	return cur, nil
}

// step accounts one unit of optimizer work, firing the Work/BestEffort
// callbacks on batch boundaries. It returns false when exploration must
// stop (budget exhausted or best-effort requested).
func (r *run) step() bool {
	r.tasks++
	r.sinceWork++
	if r.sinceWork >= r.o.cfg.WorkBatch {
		if r.hooks.Work != nil {
			r.hooks.Work(r.sinceWork)
		}
		r.sinceWork = 0
		if r.hooks.BestEffort != nil && r.hooks.BestEffort() {
			r.cutBestFirst = true
			return false
		}
	}
	return r.tasks < r.budget
}

// explore runs rule application round-robin across groups until the
// budget is exhausted, best-effort fires, or the space is fully explored.
func (r *run) explore() error {
	flushWork := func() {
		if r.hooks.Work != nil && r.sinceWork > 0 {
			r.hooks.Work(r.sinceWork)
			r.sinceWork = 0
		}
	}
	for {
		progressed := false
		// The group count grows while we iterate.
		for g := memo.GroupID(0); int(g) < r.m.Groups(); g++ {
			for e := r.m.PopUnexplored(g); e != memo.NoExpr; e = r.m.PopUnexplored(g) {
				progressed = true
				if err := r.applyRules(g, e); err != nil {
					flushWork()
					return err
				}
				if !r.step() {
					flushWork()
					return nil
				}
			}
		}
		if !progressed {
			flushWork()
			return nil
		}
	}
}

// applyRules derives new alternatives from one expression: join
// commutativity and left-associativity (with commutativity these generate
// the connected bushy space). The memo's arenas may move on every add, so
// expressions and groups are re-read by ID rather than held by pointer.
func (r *run) applyRules(g memo.GroupID, id memo.ExprID) error {
	m := r.m
	e := m.Expr(id)
	if e.Kind != memo.KindJoin {
		return nil
	}
	l, rt := e.L, e.R
	commute, assoc := !e.CommuteApplied, !e.AssocApplied
	e.CommuteApplied, e.AssocApplied = true, true

	// Commute: L ⋈ R  =>  R ⋈ L. The alternative lands in g itself, so
	// no set lookup is needed. The twin is born commuted: commuting it
	// back could only re-derive e.
	if commute {
		twin, err := m.AddJoinInto(g, rt, l)
		if err != nil {
			return err
		}
		if twin != memo.NoExpr {
			m.Expr(twin).CommuteApplied = true
		}
	}
	if !assoc {
		return nil
	}

	// Associate: (A ⋈ B) ⋈ R  =>  A ⋈ (B ⋈ R), for every join shape of L.
	rtSet := m.Group(rt).Set
	for le := m.Group(l).FirstExpr(); le != memo.NoExpr; le = m.Expr(le).Next() {
		x := m.Expr(le)
		if x.Kind != memo.KindJoin {
			continue
		}
		a, b := x.L, x.R
		bg := m.Group(b)
		if bg.Nbr&rtSet == 0 {
			continue // would introduce a cross product
		}
		// Look the inner group up before estimating its cardinality: once
		// exploration converges the group almost always exists, and only a
		// genuinely new group needs cardOfSet.
		innerSet := bg.Set | rtSet
		inner, ok := m.GroupBySet(innerSet)
		var ne memo.ExprID
		var err error
		if ok {
			ne, err = m.AddJoinInto(inner, b, rt)
		} else {
			inner, ne, err = m.AddJoin(b, rt, r.cardOfSet(innerSet))
		}
		if err != nil {
			return err
		}
		if ne != memo.NoExpr && !r.step() {
			return nil
		}
		if _, err := m.AddJoinInto(g, a, inner); err != nil {
			return err
		}
	}
	return nil
}

// costed is the DP table entry for plan extraction: a group's cheapest
// expression.
type costed struct {
	cost float64
	expr memo.ExprID
	// Leaf access path choice:
	op   plan.Op
	frac float64 // fraction of extents read
}

// solve fills the DP table with every group's cheapest expression,
// bottom-up: a join's children cover strictly fewer tables than its
// group, so visiting groups by ascending table count (a counting sort on
// the popcount of their sets) finds both children's entries final. Each
// group keeps the first of its cheapest expressions in insertion order.
func (r *run) solve() {
	m := r.m
	n := m.Groups()
	if cap(r.dp) < n {
		r.dp = make([]costed, n)
		r.order = make([]memo.GroupID, n)
	}
	r.dp, r.order = r.dp[:n], r.order[:n]
	var start [66]int32 // start[c]: first slot of the groups covering c tables
	for g := 0; g < n; g++ {
		start[bits.OnesCount64(m.Group(memo.GroupID(g)).Set)+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	for g := 0; g < n; g++ {
		c := bits.OnesCount64(m.Group(memo.GroupID(g)).Set)
		r.order[start[c]] = memo.GroupID(g)
		start[c]++
	}

	cm := r.o.cfg.Cost
	for _, id := range r.order {
		g := m.Group(id)
		if m.Expr(g.FirstExpr()).Kind == memo.KindLeaf {
			r.dp[id] = r.bestScan(bits.TrailingZeros64(g.Set), g.FirstExpr())
			continue
		}
		out := costed{cost: math.Inf(1), expr: memo.NoExpr}
		for eid := g.FirstExpr(); eid != memo.NoExpr; {
			e := m.Expr(eid)
			l, rt := m.Group(e.L), m.Group(e.R)
			// Hash join, right side builds.
			c := r.dp[e.L].cost + r.dp[e.R].cost + rt.Card*cm.BuildRow + l.Card*cm.CPURow + g.Card*cm.CPURow
			if c < out.cost {
				out = costed{cost: c, expr: eid}
			}
			eid = e.Next()
		}
		r.dp[id] = out
	}
}

// bestScan picks the access path of the leaf group over table tid, whose
// one expression is e.
func (r *run) bestScan(tid int, e memo.ExprID) costed {
	cm := r.o.cfg.Cost
	t := r.o.cat.Tables()[tid]
	extents := float64(r.o.cat.Extents(t))
	sel := r.leafSel[tid]
	// Sequential scan.
	out := costed{cost: extents*cm.SeqExtent + float64(t.Rows)*cm.CPURow, expr: e, op: plan.OpSeqScan, frac: 1}
	// Index scan when a filtered column has a leading index and the filter
	// is selective enough to beat sequential I/O.
	if term := r.q.Table(t.Name); term != nil {
		for _, p := range term.Preds {
			if !t.HasIndexOn(p.Column) {
				continue
			}
			idx := extents*sel*cm.RandExtent + float64(t.Rows)*sel*cm.CPURow
			if idx < out.cost {
				out = costed{cost: idx, expr: e, op: plan.OpIndexScan, frac: sel}
			}
		}
	}
	return out
}

// extract computes the cheapest implementation of every group and
// materializes the physical plan reachable from root (with the query's
// aggregate on top when present). The DP table is a pooled slice indexed
// by group ID rather than a map, and the plan's nodes come from a single
// exactly-sized arena owned by the plan — one allocation per extraction
// instead of one per node.
func (r *run) extract(root memo.GroupID) *plan.Plan {
	r.solve()
	count := r.countNodes(root)
	if len(r.q.GroupBy) > 0 {
		count++
	}
	arena := make([]plan.Node, count)
	r.arena, r.arenaNext = arena, 0
	node := r.buildNode(root)
	// Aggregation on top.
	if len(r.q.GroupBy) > 0 {
		groups := r.groupByDistinct(node.OutCard)
		aggs := r.q.Aggregates
		if aggs < 1 {
			aggs = 1
		}
		cm := r.o.cfg.Cost
		aggCost := node.OutCard*cm.AggRow*float64(aggs) + groups*cm.BuildRow
		agg := r.newNode()
		*agg = plan.Node{
			Op:          plan.OpHashAgg,
			Left:        node,
			OutCard:     groups,
			NodeCost:    aggCost,
			SubtreeCost: node.SubtreeCost + aggCost,
			BuildBytes:  int64(groups) * cm.HashRowBytes * 2,
		}
		node = agg
	}
	r.arena = nil // the plan owns the arena now
	return &plan.Plan{Root: node}
}

// countNodes sizes the plan-node arena: the number of nodes buildNode
// will materialize for the chosen expression tree.
func (r *run) countNodes(g memo.GroupID) int {
	e := r.m.Expr(r.dp[g].expr)
	if e.Kind == memo.KindLeaf {
		return 1
	}
	return 1 + r.countNodes(e.L) + r.countNodes(e.R)
}

// newNode hands out the next arena slot.
func (r *run) newNode() *plan.Node {
	n := &r.arena[r.arenaNext]
	r.arenaNext++
	return n
}

// groupByDistinct estimates the aggregate's output groups, reusing the
// run's column scratch.
func (r *run) groupByDistinct(card float64) float64 {
	r.aggCols = r.aggCols[:0]
	for _, c := range r.q.GroupBy {
		r.aggCols = append(r.aggCols, struct{ Table, Column string }{c.Table, c.Column})
	}
	return r.o.est.DistinctAfterGroupBy(card, r.aggCols)
}

// initialCost is extract().Cost() without materializing plan nodes: the
// same DP over the same groups with the same operand order, so the
// effort budget it feeds is bit-identical to the materializing version.
func (r *run) initialCost(root memo.GroupID) float64 {
	r.solve()
	cost := r.subtreeCost(root)
	if len(r.q.GroupBy) > 0 {
		card := r.m.Group(root).Card
		groups := r.groupByDistinct(card)
		aggs := r.q.Aggregates
		if aggs < 1 {
			aggs = 1
		}
		cm := r.o.cfg.Cost
		aggCost := card*cm.AggRow*float64(aggs) + groups*cm.BuildRow
		cost = cost + aggCost
	}
	return cost
}

// subtreeCost mirrors buildNode's SubtreeCost arithmetic (operand order
// included — float addition is not associative) without allocating the
// nodes.
func (r *run) subtreeCost(id memo.GroupID) float64 {
	c := &r.dp[id]
	e := r.m.Expr(c.expr)
	if e.Kind == memo.KindLeaf {
		return c.cost
	}
	g, l, rt := r.m.Group(id), r.m.Group(e.L), r.m.Group(e.R)
	lc := r.subtreeCost(e.L)
	rc := r.subtreeCost(e.R)
	cm := r.o.cfg.Cost
	own := rt.Card*cm.BuildRow + l.Card*cm.CPURow + g.Card*cm.CPURow
	return lc + rc + own
}

// buildNode materializes the chosen expression tree for g out of the
// extraction arena.
func (r *run) buildNode(id memo.GroupID) *plan.Node {
	c := &r.dp[id]
	g := r.m.Group(id)
	e := r.m.Expr(c.expr)
	if e.Kind == memo.KindLeaf {
		n := r.newNode()
		*n = plan.Node{
			Op:           c.op,
			Table:        r.o.cat.Tables()[bits.TrailingZeros64(g.Set)].Name,
			ScanFraction: c.frac,
			OutCard:      g.Card,
			NodeCost:     c.cost,
			SubtreeCost:  c.cost,
		}
		return n
	}
	l, rt := r.m.Group(e.L), r.m.Group(e.R)
	ln := r.buildNode(e.L)
	rn := r.buildNode(e.R)
	cm := r.o.cfg.Cost
	own := rt.Card*cm.BuildRow + l.Card*cm.CPURow + g.Card*cm.CPURow
	n := r.newNode()
	*n = plan.Node{
		Op:          plan.OpHashJoin,
		Left:        ln,
		Right:       rn,
		OutCard:     g.Card,
		NodeCost:    own,
		SubtreeCost: ln.SubtreeCost + rn.SubtreeCost + own,
		BuildBytes:  int64(rt.Card) * cm.HashRowBytes,
	}
	return n
}
