// Package plan defines the optimizer's input (a logical query description:
// tables, predicates, join graph, grouping) and output (a costed physical
// operator tree), plus the cost model shared by the optimizer and the
// execution engine.
package plan

import (
	"fmt"
	"strings"

	"compilegate/internal/catalog"
	"compilegate/internal/stats"
)

// ColRef names a column of a table.
type ColRef = stats.ColRef

// TableTerm is one table referenced by a query with its local filter
// predicates.
type TableTerm struct {
	Name  string
	Preds []stats.Pred
}

// JoinEdge is one equi-join between two referenced tables.
type JoinEdge struct {
	A, B string
}

// Query is the logical query the optimizer receives: a conjunctive
// join/filter/aggregate block, which covers the paper's workloads (star
// joins with aggregates on top).
type Query struct {
	// Text is the original SQL (used for fingerprinting/diagnostics).
	Text string
	// Tables lists referenced tables with their filters.
	Tables []TableTerm
	// Joins is the join graph over Tables.
	Joins []JoinEdge
	// GroupBy lists grouping columns; empty means no aggregation.
	GroupBy []ColRef
	// Aggregates counts aggregate expressions computed per group.
	Aggregates int
}

// NumJoins returns the number of join edges (the paper characterizes
// queries by join count).
func (q *Query) NumJoins() int { return len(q.Joins) }

// Reset empties q for reuse, retaining the backing storage of every
// slice. Pooled queries flow through this so a steady-state parse
// allocates nothing; use AppendTable (not plain append) to keep each
// recycled table term's predicate capacity too.
func (q *Query) Reset() {
	q.Text = ""
	q.Tables = q.Tables[:0]
	q.Joins = q.Joins[:0]
	q.GroupBy = q.GroupBy[:0]
	q.Aggregates = 0
}

// AppendTable appends a term for name and returns it. When the tables
// slice still has capacity from a previous parse, the recycled term's
// predicate list keeps its storage (truncated to empty), so re-parsing
// a same-shaped statement reserves nothing.
func (q *Query) AppendTable(name string) *TableTerm {
	if len(q.Tables) < cap(q.Tables) {
		q.Tables = q.Tables[:len(q.Tables)+1]
		t := &q.Tables[len(q.Tables)-1]
		t.Name = name
		t.Preds = t.Preds[:0]
		return t
	}
	q.Tables = append(q.Tables, TableTerm{Name: name})
	return &q.Tables[len(q.Tables)-1]
}

// Table returns the term for the named table, or nil.
func (q *Query) Table(name string) *TableTerm {
	for i := range q.Tables {
		if q.Tables[i].Name == name {
			return &q.Tables[i]
		}
	}
	return nil
}

// Validate checks internal consistency: joins reference listed tables and
// the join graph is connected (the engine rejects cross products).
func (q *Query) Validate() error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("plan: query references no tables")
	}
	// Duplicate detection and union-find run on the stack for the query
	// sizes the engine supports (join bitsets cap tables at 64); this is
	// validated on every compilation, so it must not allocate.
	index := func(name string) int {
		for i := range q.Tables {
			if q.Tables[i].Name == name {
				return i
			}
		}
		return -1
	}
	for i := range q.Tables {
		for j := 0; j < i; j++ {
			if q.Tables[j].Name == q.Tables[i].Name {
				return fmt.Errorf("plan: table %s referenced twice (self-joins unsupported)", q.Tables[i].Name)
			}
		}
	}
	var parentBuf [64]int
	var parent []int
	if len(q.Tables) <= len(parentBuf) {
		parent = parentBuf[:len(q.Tables)]
	} else {
		parent = make([]int, len(q.Tables))
	}
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, j := range q.Joins {
		a, b := index(j.A), index(j.B)
		if a < 0 || b < 0 {
			return fmt.Errorf("plan: join %s-%s references unlisted table", j.A, j.B)
		}
		parent[find(a)] = find(b)
	}
	root := find(0)
	for i := range q.Tables {
		if find(i) != root {
			return fmt.Errorf("plan: join graph is disconnected at %s (cross products unsupported)", q.Tables[i].Name)
		}
	}
	return nil
}

// Op identifies a physical operator.
type Op int

// Physical operator kinds.
const (
	OpSeqScan Op = iota
	OpIndexScan
	OpHashJoin
	OpHashAgg
)

// String names the operator.
func (o Op) String() string {
	switch o {
	case OpSeqScan:
		return "SeqScan"
	case OpIndexScan:
		return "IndexScan"
	case OpHashJoin:
		return "HashJoin"
	case OpHashAgg:
		return "HashAgg"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// The cost model the optimizer and executor share. Units are abstract
// "cost units"; the executor converts them to virtual time.
const (
	// SeqExtentCost is the cost of scanning one extent sequentially.
	SeqExtentCost = 1.0
	// RandExtentCost is the cost of one random extent fetch (index path).
	RandExtentCost = 4.0
	// CPURowCost is the per-row CPU cost of scans/probes.
	CPURowCost = 0.0000015
	// BuildRowCost is the per-row cost of inserting into a hash table.
	BuildRowCost = 0.000002
	// AggRowCost is the per-row cost of aggregate evaluation per aggregate.
	AggRowCost = 0.000001
	// HashRowBytes is the in-memory footprint per hash-table row, used to
	// size execution memory grants.
	HashRowBytes = 384
)

// Node is one node of a physical plan tree.
type Node struct {
	Op    Op
	Table string // scans only
	// Tab is the catalog entry Table names. The optimizer sets it, so that
	// executing a scan looks nothing up; a hand-built plan may leave it nil.
	Tab *catalog.Table
	// ScanFraction is the fraction of the table's extents this scan
	// touches (selectivity pushed into the access path).
	ScanFraction float64
	Left, Right  *Node

	// OutCard is the estimated output cardinality.
	OutCard float64
	// NodeCost is this node's own cost; SubtreeCost includes children.
	NodeCost, SubtreeCost float64
	// BuildBytes is the hash-table grant this node needs at runtime
	// (hash joins and aggregates).
	BuildBytes int64
}

// Plan is a complete physical plan.
type Plan struct {
	Root *Node
	// BestEffort marks plans returned early under predicted memory
	// exhaustion (§4.1).
	BestEffort bool
	// ExprsExplored counts memo expressions considered while optimizing.
	ExprsExplored int
	// CompileBytes is the peak simulated compilation memory used.
	CompileBytes int64

	nodes []Node // the arena Root's tree lives in, kept for Reuse
}

// Reuse empties p and returns its node arena resized to n nodes, grown when
// it is too small; the caller rewrites every node, and sets Root.
func (p *Plan) Reuse(n int) []Node {
	if cap(p.nodes) < n {
		p.nodes = make([]Node, n)
	}
	*p = Plan{nodes: p.nodes[:n]}
	return p.nodes
}

// Cost returns the plan's total estimated cost.
func (p *Plan) Cost() float64 {
	if p.Root == nil {
		return 0
	}
	return p.Root.SubtreeCost
}

// MemoryGrant returns the execution memory the plan needs: the peak of
// concurrently-held hash builds. The executor pipelines one join at a
// time with its build side resident, so the grant is the largest single
// build plus the largest aggregate, a close match to how SQL Server
// reserves query-execution memory up front.
func (p *Plan) MemoryGrant() int64 {
	var maxBuild, agg int64
	walk(p.Root, 0, func(n *Node, _ int) {
		if n.Op == OpHashJoin {
			maxBuild = max(maxBuild, n.BuildBytes)
		} else if n.Op == OpHashAgg {
			agg = max(agg, n.BuildBytes)
		}
	})
	return maxBuild + agg
}

// Nodes returns the plan's node count: the length of its arena (Reuse), or
// for a hand-built plan the size of its tree.
func (p *Plan) Nodes() int {
	if p.nodes != nil {
		return len(p.nodes)
	}
	count := 0
	walk(p.Root, 0, func(*Node, int) { count++ })
	return count
}

// walk visits the tree under n in preorder, left before right, with each
// node's depth below n's.
func walk(n *Node, depth int, visit func(n *Node, depth int)) {
	if n != nil {
		visit(n, depth)
		walk(n.Left, depth+1, visit)
		walk(n.Right, depth+1, visit)
	}
}

// PlanBytes estimates the cached-plan footprint: proportional to node
// count, matching how plan cache memory scales with plan complexity.
func (p *Plan) PlanBytes() int64 {
	return int64(p.Nodes()) * 24 << 10 // 24 KiB per operator
}

// String renders the plan tree indented, with cardinalities and costs.
func (p *Plan) String() string {
	var sb strings.Builder
	if p.BestEffort {
		sb.WriteString("(best-effort plan)\n")
	}
	walk(p.Root, 0, func(n *Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		switch n.Op {
		case OpSeqScan, OpIndexScan:
			fmt.Fprintf(&sb, "%s %s (%.2f%% extents) card=%.3g cost=%.3g\n",
				n.Op, n.Table, n.ScanFraction*100, n.OutCard, n.SubtreeCost)
		default:
			fmt.Fprintf(&sb, "%s card=%.3g cost=%.3g build=%dB\n",
				n.Op, n.OutCard, n.SubtreeCost, n.BuildBytes)
		}
	})
	return sb.String()
}
