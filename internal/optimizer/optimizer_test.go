package optimizer

import (
	"errors"
	"testing"
	"time"

	"compilegate/internal/catalog"
	"compilegate/internal/plan"
	"compilegate/internal/stats"
)

func salesEnv() (*catalog.Catalog, *Optimizer) {
	cat := catalog.NewSales(catalog.SalesConfig{Scale: 0.01, ExtentBytes: 8 << 20})
	est := stats.NewEstimator(cat)
	return cat, New(est, DefaultConfig())
}

// starQuery builds a fact ⋈ n-dimension star query.
func starQuery(n int) *plan.Query {
	dims := []string{"dim_product", "dim_store", "dim_customer", "dim_date",
		"dim_promotion", "dim_employee", "dim_channel"}
	q := &plan.Query{Tables: []plan.TableTerm{{Name: "sales_fact"}}}
	for i := 0; i < n && i < len(dims); i++ {
		q.Tables = append(q.Tables, plan.TableTerm{Name: dims[i]})
		q.Joins = append(q.Joins, plan.JoinEdge{A: "sales_fact", B: dims[i]})
	}
	return q
}

// snowQuery extends the star with snowflake chains for deep join counts.
func snowQuery() *plan.Query {
	q := starQuery(7)
	chains := [][2]string{
		{"dim_product", "dim_subcategory"},
		{"dim_subcategory", "dim_category"},
		{"dim_category", "dim_department"},
		{"dim_product", "dim_brand"},
		{"dim_brand", "dim_manufacturer"},
		{"dim_store", "dim_city"},
		{"dim_city", "dim_region"},
		{"dim_region", "dim_country"},
		{"dim_date", "dim_month"},
		{"dim_month", "dim_quarter"},
		{"dim_customer", "dim_segment"},
	}
	for _, ch := range chains {
		q.Tables = append(q.Tables, plan.TableTerm{Name: ch[1]})
		q.Joins = append(q.Joins, plan.JoinEdge{A: ch[0], B: ch[1]})
	}
	return q
}

func TestSingleTablePlan(t *testing.T) {
	_, o := salesEnv()
	q := &plan.Query{Tables: []plan.TableTerm{{Name: "dim_product"}}}
	p, err := o.Optimize(q, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Op != plan.OpSeqScan || p.Root.Table != "dim_product" {
		t.Fatalf("plan = %s", p)
	}
	if p.Cost() <= 0 {
		t.Fatal("zero cost")
	}
}

func TestIndexScanChosenForSelectiveFilter(t *testing.T) {
	_, o := salesEnv()
	q := &plan.Query{Tables: []plan.TableTerm{{
		Name:  "sales_fact",
		Preds: []stats.Pred{{Table: "sales_fact", Column: "date_id", Op: "=", Lo: 100}},
	}}}
	p, err := o.Optimize(q, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Op != plan.OpIndexScan {
		t.Fatalf("op = %v, want IndexScan for 1/3653 filter on indexed column", p.Root.Op)
	}
	if p.Root.ScanFraction >= 1 {
		t.Fatalf("index scan fraction = %v", p.Root.ScanFraction)
	}
}

func TestSeqScanForUnindexedFilter(t *testing.T) {
	_, o := salesEnv()
	q := &plan.Query{Tables: []plan.TableTerm{{
		Name:  "sales_fact",
		Preds: []stats.Pred{{Table: "sales_fact", Column: "quantity", Op: "=", Lo: 5}},
	}}}
	p, err := o.Optimize(q, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Op != plan.OpSeqScan {
		t.Fatalf("op = %v, want SeqScan (no index on quantity)", p.Root.Op)
	}
}

func TestJoinPlanShape(t *testing.T) {
	_, o := salesEnv()
	p, err := o.Optimize(starQuery(3), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 tables => 3 hash joins + 4 scans = 7 nodes.
	if p.Nodes() != 7 {
		t.Fatalf("nodes = %d, want 7\n%s", p.Nodes(), p)
	}
	var joins int
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n == nil {
			return
		}
		if n.Op == plan.OpHashJoin {
			joins++
			if n.BuildBytes <= 0 {
				t.Error("hash join without build memory")
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(p.Root)
	if joins != 3 {
		t.Fatalf("joins = %d, want 3", joins)
	}
}

func TestAggregationOnTop(t *testing.T) {
	_, o := salesEnv()
	q := starQuery(2)
	q.GroupBy = []plan.ColRef{{Table: "dim_store", Column: "city_id"}}
	q.Aggregates = 2
	p, err := o.Optimize(q, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Op != plan.OpHashAgg {
		t.Fatalf("root = %v, want HashAgg", p.Root.Op)
	}
	if p.Root.OutCard > p.Root.Left.OutCard {
		t.Fatal("aggregation increased cardinality")
	}
	if p.MemoryGrant() <= 0 {
		t.Fatal("no memory grant for agg plan")
	}
}

func TestExplorationImprovesOrBound(t *testing.T) {
	_, o := salesEnv()
	q := snowQuery()
	initial, err := o.estimateInitialCost(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := o.Optimize(q, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost() > initial*1.0000001 {
		t.Fatalf("explored cost %v worse than initial %v", p.Cost(), initial)
	}
	if p.ExprsExplored == 0 || p.CompileBytes == 0 {
		t.Fatal("no exploration accounted")
	}
}

func TestCompileMemoryGrowsWithJoins(t *testing.T) {
	_, o := salesEnv()
	small, err := o.Optimize(starQuery(2), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := o.Optimize(snowQuery(), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if big.CompileBytes < 4*small.CompileBytes {
		t.Fatalf("18-join compile bytes %d not ≫ 2-join %d", big.CompileBytes, small.CompileBytes)
	}
	t.Logf("2-join: %d bytes (%d exprs); 18-join: %d bytes (%d exprs)",
		small.CompileBytes, small.ExprsExplored, big.CompileBytes, big.ExprsExplored)
}

func TestWorkCallbackDrivenByEffort(t *testing.T) {
	_, o := salesEnv()
	var tasks int
	_, err := o.Optimize(snowQuery(), Hooks{Work: func(n int) { tasks += n }})
	if err != nil {
		t.Fatal(err)
	}
	if tasks == 0 {
		t.Fatal("Work never called")
	}
	// Dynamic optimization: small query gets less work.
	var smallTasks int
	if _, err := o.Optimize(starQuery(1), Hooks{Work: func(n int) { smallTasks += n }}); err != nil {
		t.Fatal(err)
	}
	if smallTasks >= tasks {
		t.Fatalf("small query tasks %d >= large %d", smallTasks, tasks)
	}
}

func TestBestEffortCutsExploration(t *testing.T) {
	_, o := salesEnv()
	calls := 0
	p, err := o.Optimize(snowQuery(), Hooks{
		BestEffort: func() bool { calls++; return calls >= 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.BestEffort {
		t.Fatal("plan not flagged best-effort")
	}
	if p.Root == nil {
		t.Fatal("best-effort plan has no root")
	}
	full, err := o.Optimize(snowQuery(), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if p.ExprsExplored >= full.ExprsExplored {
		t.Fatalf("best-effort explored %d >= full %d", p.ExprsExplored, full.ExprsExplored)
	}
}

func TestChargeFailurePropagates(t *testing.T) {
	_, o := salesEnv()
	boom := errors.New("oom")
	var charged int64
	_, err := o.Optimize(snowQuery(), Hooks{
		Charge: func(n int64) error {
			charged += n
			if charged > 1<<20 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestValidationErrors(t *testing.T) {
	_, o := salesEnv()
	bad := []*plan.Query{
		{}, // no tables
		{Tables: []plan.TableTerm{{Name: "nope"}}},
		{Tables: []plan.TableTerm{{Name: "sales_fact"}, {Name: "dim_product"}}}, // disconnected
		{Tables: []plan.TableTerm{{Name: "sales_fact"}, {Name: "sales_fact"}}},  // dup
	}
	for i, q := range bad {
		if _, err := o.Optimize(q, Hooks{}); err == nil {
			t.Errorf("query %d accepted", i)
		}
	}
}

func TestDynamicEffortScalesWithCost(t *testing.T) {
	_, o := salesEnv()
	cheap, err := o.estimateInitialCost(starQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	costly, err := o.estimateInitialCost(snowQuery())
	if err != nil {
		t.Fatal(err)
	}
	if costly <= cheap {
		t.Fatalf("snowflake cost %v <= 1-join cost %v", costly, cheap)
	}
}

func TestPlanStringAndGrant(t *testing.T) {
	_, o := salesEnv()
	q := snowQuery()
	q.GroupBy = []plan.ColRef{{Table: "dim_region", Column: "country_id"}}
	q.Aggregates = 3
	p, err := o.Optimize(q, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if s := p.String(); len(s) < 100 {
		t.Fatalf("suspicious plan rendering: %q", s)
	}
	if p.MemoryGrant() <= 0 || p.PlanBytes() <= 0 {
		t.Fatal("grant/plan bytes not positive")
	}
}

func TestOptimizeIsDeterministic(t *testing.T) {
	_, o := salesEnv()
	p1, err := o.Optimize(snowQuery(), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := o.Optimize(snowQuery(), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Cost() != p2.Cost() || p1.ExprsExplored != p2.ExprsExplored {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d",
			p1.Cost(), p1.ExprsExplored, p2.Cost(), p2.ExprsExplored)
	}
}

func TestOptimizerSpeed(t *testing.T) {
	// Guard: one 18-join optimization must stay fast enough for the
	// thousands of compilations in a benchmark run.
	_, o := salesEnv()
	start := time.Now()
	if _, err := o.Optimize(snowQuery(), Hooks{}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("one optimization took %v", el)
	}
}

// TestBestEffortStopsAtTheFirstStep is §4.1's valve at the optimizer's
// boundary: once BestEffort answers true the compilation returns the best
// plan so far — whether the poll landed on the associate rule's inner step
// or on the end of an expression — so the hook is never polled again, and
// no compilation, cut or not, reports more tasks than its budget.
func TestBestEffortStopsAtTheFirstStep(t *testing.T) {
	_, o := salesEnv()
	initial, err := o.estimateInitialCost(snowQuery())
	if err != nil {
		t.Fatal(err)
	}
	budget := o.effortBudget(initial)
	for firePoll := 0; firePoll <= 8; firePoll++ { // 0: never fires
		polls, work := 0, 0
		p, err := o.Optimize(snowQuery(), Hooks{
			Work:       func(n int) { work += n },
			BestEffort: func() bool { polls++; return polls == firePoll },
		})
		if err != nil {
			t.Fatal(err)
		}
		if work > budget {
			t.Errorf("poll %d: %d tasks reported, budget %d", firePoll, work, budget)
		}
		if firePoll == 0 {
			if p.BestEffort || work != budget {
				t.Fatalf("uncut: best-effort %t, %d tasks, want the whole budget %d (the query must be budget-bound)", p.BestEffort, work, budget)
			}
			continue
		}
		if !p.BestEffort || polls != firePoll || work != firePoll*o.cfg.WorkBatch {
			t.Errorf("poll %d: best-effort %t after %d polls and %d tasks, want a stop at that poll", firePoll, p.BestEffort, polls, work)
		}
	}
}

// A steady-state Optimize allocates the plan and its node arena, nothing
// else: the run, the memo's arenas, its dedup matrix and set map, and the
// extraction DP are pooled — whether the pooled instances last served a
// budget-sized compilation or a two-table one.
func TestSteadyStateOptimizeAllocatesOnlyThePlan(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	_, o := salesEnv()
	big, small := snowQuery(), starQuery(1)
	if _, err := o.Optimize(big, Hooks{}); err != nil { // grow the pooled state
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		q    *plan.Query
	}{{"two-table", small}, {"18-join", big}} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := o.Optimize(c.q, Hooks{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("%s: %v allocations per Optimize, want 2 (the plan and its arena)", c.name, allocs)
		}
	}
}

// A segment counts the expressions added to existing groups in 13 bits. An
// expression's rules can add more than that only past MaxTasks settings no
// scenario uses, so the spill is pinned here: a full count goes to the tape
// as a segment without a step (the player charges its expressions and moves
// on, as it does for buildInitial's), and counting restarts at one.
func TestSegmentCountSpills(t *testing.T) {
	r := &run{}
	n := r.count(segExprs - 1)
	if n != segExprs || len(r.tape) != 0 {
		t.Fatalf("count(%d) = %d with %d segments taped, want %d and none", segExprs-1, n, len(r.tape), segExprs)
	}
	n = r.count(n)
	if n != 1 || len(r.tape) != 1 || r.tape[0] != segExprs {
		t.Fatalf("count(full) = %d, tape %v; want 1 and one stepless segment of %d expressions", n, r.tape, segExprs)
	}
	if r.tape[0]&(segGroup|segStep) != 0 {
		t.Fatalf("the spilled segment %#x carries a flag", r.tape[0])
	}
}
