package plan

import (
	"strings"
	"testing"
	"testing/quick"

	"compilegate/internal/stats"
)

func validStarQuery() *Query {
	return &Query{
		Tables: []TableTerm{{Name: "f"}, {Name: "a"}, {Name: "b"}},
		Joins:  []JoinEdge{{A: "f", B: "a"}, {A: "f", B: "b"}},
	}
}

func TestValidateAcceptsConnected(t *testing.T) {
	if err := validStarQuery().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadQueries(t *testing.T) {
	cases := []struct {
		name string
		q    *Query
	}{
		{"empty", &Query{}},
		{"duplicate table", &Query{Tables: []TableTerm{{Name: "a"}, {Name: "a"}}}},
		{"unlisted join", &Query{
			Tables: []TableTerm{{Name: "a"}, {Name: "b"}},
			Joins:  []JoinEdge{{A: "a", B: "zz"}},
		}},
		{"disconnected", &Query{
			Tables: []TableTerm{{Name: "a"}, {Name: "b"}, {Name: "c"}},
			Joins:  []JoinEdge{{A: "a", B: "b"}},
		}},
	}
	for _, c := range cases {
		if err := c.q.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestQueryLookups(t *testing.T) {
	q := validStarQuery()
	if q.NumJoins() != 2 {
		t.Fatalf("NumJoins = %d", q.NumJoins())
	}
	if q.Table("a") == nil || q.Table("zz") != nil {
		t.Fatal("Table lookup broken")
	}
	q.Tables[1].Preds = append(q.Tables[1].Preds, stats.Pred{Table: "a", Column: "x", Op: "=", Lo: 1})
	if len(q.Table("a").Preds) != 1 {
		t.Fatal("Table returned a copy, not a pointer")
	}
}

func TestColRefString(t *testing.T) {
	if (ColRef{Table: "t", Column: "c"}).String() != "t.c" {
		t.Fatal("ColRef.String broken")
	}
}

func TestOpString(t *testing.T) {
	for _, o := range []Op{OpSeqScan, OpIndexScan, OpHashJoin, OpHashAgg} {
		if strings.Contains(o.String(), "Op(") {
			t.Fatalf("unnamed op %d", o)
		}
	}
	if !strings.Contains(Op(99).String(), "Op(99)") {
		t.Fatal("unknown op should render numerically")
	}
}

// buildPlan constructs scan ⨝ scan with an agg on top.
func buildPlan() *Plan {
	l := &Node{Op: OpSeqScan, Table: "a", ScanFraction: 1, OutCard: 100, NodeCost: 5, SubtreeCost: 5}
	r := &Node{Op: OpIndexScan, Table: "b", ScanFraction: 0.1, OutCard: 10, NodeCost: 2, SubtreeCost: 2}
	j := &Node{Op: OpHashJoin, Left: l, Right: r, OutCard: 100, NodeCost: 1, SubtreeCost: 8, BuildBytes: 640}
	agg := &Node{Op: OpHashAgg, Left: j, OutCard: 5, NodeCost: 1, SubtreeCost: 9, BuildBytes: 320}
	return &Plan{Root: agg}
}

func TestPlanAccounting(t *testing.T) {
	p := buildPlan()
	if p.Nodes() != 4 {
		t.Fatalf("nodes = %d", p.Nodes())
	}
	if p.Cost() != 9 {
		t.Fatalf("cost = %v", p.Cost())
	}
	if p.MemoryGrant() != 640+320 {
		t.Fatalf("grant = %d, want largest join build + largest agg", p.MemoryGrant())
	}
	if p.PlanBytes() != 4*24<<10 {
		t.Fatalf("plan bytes = %d", p.PlanBytes())
	}
	if !strings.Contains(p.String(), "HashAgg") || !strings.Contains(p.String(), "IndexScan") {
		t.Fatalf("rendering:\n%s", p.String())
	}
}

func TestEmptyPlan(t *testing.T) {
	p := &Plan{}
	if p.Cost() != 0 || p.Nodes() != 0 || p.MemoryGrant() != 0 {
		t.Fatal("empty plan not all-zero")
	}
}

func TestBestEffortRendering(t *testing.T) {
	p := buildPlan()
	p.BestEffort = true
	if !strings.Contains(p.String(), "best-effort") {
		t.Fatal("best-effort marker missing")
	}
}

func TestDefaultCostModelSane(t *testing.T) {
	if RandExtentCost <= SeqExtentCost {
		t.Fatal("random I/O must cost more than sequential")
	}
	if CPURowCost <= 0 || BuildRowCost <= 0 || AggRowCost <= 0 || HashRowBytes <= 0 {
		t.Fatal("non-positive cost constants")
	}
	if BuildRowCost <= CPURowCost {
		t.Fatal("hash build should cost more per row than a probe")
	}
}

// Property: MemoryGrant is monotone — adding a bigger hash join build
// never decreases the grant.
func TestQuickGrantMonotone(t *testing.T) {
	f := func(builds []uint32) bool {
		root := &Node{Op: OpSeqScan, OutCard: 1}
		var maxBuild int64
		for _, b := range builds {
			bb := int64(b % (1 << 24))
			if bb > maxBuild {
				maxBuild = bb
			}
			root = &Node{Op: OpHashJoin, Left: root,
				Right: &Node{Op: OpSeqScan}, BuildBytes: bb}
		}
		p := &Plan{Root: root}
		return p.MemoryGrant() == maxBuild
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a connected random star query always validates; removing any
// edge from a tree-shaped join graph always fails validation.
func TestQuickValidateTreeEdges(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%6) + 2 // 2..7 tables
		q := &Query{}
		for i := 0; i < n; i++ {
			q.Tables = append(q.Tables, TableTerm{Name: string(rune('a' + i))})
		}
		for i := 1; i < n; i++ {
			q.Joins = append(q.Joins, JoinEdge{A: "a", B: string(rune('a' + i))})
		}
		if q.Validate() != nil {
			return false
		}
		if n > 2 {
			// Drop the last edge: table becomes disconnected.
			q.Joins = q.Joins[:len(q.Joins)-1]
			if q.Validate() == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
