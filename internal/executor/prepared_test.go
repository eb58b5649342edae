package executor

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"compilegate/internal/mem"
	"compilegate/internal/optimizer"
	"compilegate/internal/plan"
	"compilegate/internal/sqlparser"
	"compilegate/internal/storage"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// stmtSeed is the engine's execution-locality seed for a statement.
func stmtSeed(sql string) int64 {
	return int64(sqlparser.Hash64(sqlparser.Fingerprint(sql)))
}

// postorder lists the plan tree in execution order: right subtree (build
// side), left subtree (probe side), then the node itself.
func postorder(nodes []*plan.Node, n *plan.Node) []*plan.Node {
	if n == nil {
		return nodes
	}
	nodes = postorder(nodes, n.Right)
	nodes = postorder(nodes, n.Left)
	return append(nodes, n)
}

// freshLists is the reference the replay path must reproduce: every scan
// of p in execution order, drawn from a new source seeded with seed.
func freshLists(e *env, p *plan.Plan, seed int64) [][]storage.ExtentKey {
	rng := vtime.NewRand(seed)
	var lists [][]storage.ExtentKey
	for _, n := range postorder(nil, p.Root) {
		if n.Op == plan.OpSeqScan || n.Op == plan.OpIndexScan {
			lists = append(lists, e.layout.ScanInto(nil, e.layout.Table(n.Table), n.ScanFraction, scanPattern, rng))
		}
	}
	return lists
}

func (pr *Prepared) lists() [][]storage.ExtentKey {
	var out [][]storage.ExtentKey
	lo := 0
	for _, hi := range pr.ends {
		out = append(out, pr.keys[lo:hi])
		lo = hi
	}
	return out
}

// TestReplayEqualsFreshDraws is the differential for the prepared path:
// for every OLTP statement and a handful of SALES plans, a server that
// records on the first execution and replays afterwards is
// indistinguishable, execution by execution, from one that reseeds a
// source per execution, and the recorded lists are the fresh draws.
func TestReplayEqualsFreshDraws(t *testing.T) {
	stmts := workload.SpecOLTP.StaticStatements()
	sales, salesRNG := workload.NewSales(), rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		stmts = append(stmts, sales.Next(salesRNG))
	}

	prepared, oneShot := newEnv(mem.GiB), newEnv(mem.GiB)
	type stmt struct {
		sql  string
		p    *plan.Plan
		seed int64
		prep *Prepared
	}
	var cases []stmt
	for _, sql := range stmts {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, stmt{sql, prepared.plan(t, q), stmtSeed(sql), new(Prepared)})
	}

	const execs = 3 // record, replay, replay
	run := func(e *env, withPrep bool) []outcome {
		var out []outcome
		s := vtime.NewScheduler()
		s.Go("client", func(tk *vtime.Task) {
			for i := 0; i < execs; i++ {
				for _, c := range cases {
					var prep *Prepared
					if withPrep {
						prep = c.prep
					}
					st, err := e.execute(tk, c.p, c.seed, prep)
					if err != nil {
						t.Errorf("%s: %v", c.sql, err)
					}
					out = append(out, st)
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	got, want := run(prepared, true), run(oneShot, false)
	if n, r := prepared.exec.Executed(), prepared.exec.Replayed(); int(n) != execs*len(cases) || int(r) != (execs-1)*len(cases) {
		t.Errorf("%d executions, %d replayed; want %d and %d", n, r, execs*len(cases), (execs-1)*len(cases))
	}
	if r := oneShot.exec.Replayed(); r != 0 {
		t.Errorf("%d executions replayed without a Prepared", r)
	}
	for i := range want {
		if got[i] != want[i] {
			c := cases[i%len(cases)]
			t.Fatalf("execution %d of %q: prepared %+v, reseeded %+v", i/len(cases), c.sql, got[i], want[i])
		}
	}
	for _, c := range cases {
		ref := freshLists(prepared, c.p, c.seed)
		rec := c.prep.lists()
		if cap(c.prep.keys) != len(c.prep.keys) || cap(c.prep.ends) != len(c.prep.ends) {
			t.Errorf("%q: recording of %d keys in %d lists has room for %d and %d: it was not sized before drawing",
				c.sql, len(c.prep.keys), len(c.prep.ends), cap(c.prep.keys), cap(c.prep.ends))
		}
		if len(rec) != len(ref) {
			t.Fatalf("%q: %d lists recorded, plan has %d scans", c.sql, len(rec), len(ref))
		}
		for i := range ref {
			if !slices.Equal(rec[i], ref[i]) {
				t.Fatalf("%q: scan %d's recorded list differs from a fresh source's draws", c.sql, i)
			}
		}
	}
}

// TestFailedExecutionRecordsNothing: an execution that never reaches its
// scans (its grant times out) leaves the Prepared empty, and the next
// complete execution records.
func TestFailedExecutionRecordsNothing(t *testing.T) {
	e := newEnv(mem.GiB)
	q := starQ(2)
	q.GroupBy = []plan.ColRef{{Table: "dim_store", Column: "city_id"}}
	q.Aggregates = 1
	p := e.plan(t, q)
	if p.MemoryGrant() <= 0 {
		t.Fatal("plan needs no grant; test is vacuous")
	}
	prep := new(Prepared)
	s := vtime.NewScheduler()
	s.Go("hog", func(tk *vtime.Task) {
		hog := mem.GiB - p.MemoryGrant()/2
		if err := tk.AwaitErr(func(errp *error, k vtime.Step) { e.grants.AcquireThen(tk, hog, errp, k) }); err != nil {
			t.Error(err)
		}
		tk.Sleep(grantTimeout + time.Minute)
		e.grants.Release(hog)
	})
	s.Go("client", func(tk *vtime.Task) {
		tk.Sleep(time.Millisecond)
		err := tk.AwaitErr(func(errp *error, k vtime.Step) { e.exec.ExecuteThen(tk, p, 1, prep, errp, k) })
		var ge *ErrGrantTimeout
		if !errors.As(err, &ge) {
			t.Errorf("err = %v, want grant timeout", err)
		}
		if prep.Scans() != 0 {
			t.Errorf("a failed execution recorded %d scans", prep.Scans())
		}
		tk.Sleep(2 * time.Minute)
		if err := tk.AwaitErr(func(errp *error, k vtime.Step) { e.exec.ExecuteThen(tk, p, 1, prep, errp, k) }); err != nil {
			t.Error(err)
		}
		if want := len(freshLists(e, p, 1)); prep.Scans() != want {
			t.Errorf("recorded %d scans after a complete execution, want %d", prep.Scans(), want)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratingAfterReplayLeavesListsIntact: one pooled op serves a
// recording, a replaying, a one-shot and another recording execution in
// turn; the first plan's installed lists must come through untouched and
// share no storage with the op's scratch buffer.
func TestGeneratingAfterReplayLeavesListsIntact(t *testing.T) {
	e := newEnv(mem.GiB)
	p1, p2 := e.plan(t, starQ(2)), e.plan(t, starQ(3))
	prep1, prep2 := new(Prepared), new(Prepared)
	s := vtime.NewScheduler()
	s.Go("client", func(tk *vtime.Task) {
		exec := func(p *plan.Plan, seed int64, prep *Prepared) {
			if err := tk.AwaitErr(func(errp *error, k vtime.Step) { e.exec.ExecuteThen(tk, p, seed, prep, errp, k) }); err != nil {
				t.Error(err)
			}
		}
		exec(p1, 11, prep1) // records
		keys, ends := slices.Clone(prep1.keys), slices.Clone(prep1.ends)
		exec(p1, 11, prep1) // replays
		exec(p2, 22, nil)   // generates into the op's scratch buffer
		exec(p2, 22, prep2) // records on the same op
		exec(p1, 11, prep1) // replays again
		if !slices.Equal(prep1.keys, keys) || !slices.Equal(prep1.ends, ends) {
			t.Error("installed lists changed after later executions on the same op")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	op := e.exec.execs.Get()
	if op == nil || e.exec.execs.Get() != nil {
		t.Fatal("sequential executions did not share one pooled op")
	}
	if len(op.keys) == 0 {
		t.Fatal("the one-shot execution left no scratch list; test is vacuous")
	}
	for _, prep := range []*Prepared{prep1, prep2} {
		if &op.keys[0] == &prep.keys[0] {
			t.Error("the op's scratch buffer aliases an installed list")
		}
	}
	if op.recKeys != nil || op.scan != nil {
		t.Error("a pooled op still references a recording or a plan's list")
	}
}

// TestReplayOfAnotherPlanPanics: a recording replays only on a plan with
// as many scans as it holds lists. Any other pairing is a bug in whoever
// kept the lists, so the execution refuses it before it starts, naming
// both counts.
func TestReplayOfAnotherPlanPanics(t *testing.T) {
	e := newEnv(mem.GiB)
	p := e.plan(t, starQ(1))
	lists := freshLists(e, p, 1)
	if len(lists) != 2 {
		t.Fatalf("plan of %d scans, want 2", len(lists))
	}
	one := &Prepared{keys: lists[0], ends: []int{len(lists[0])}}
	defer func() {
		want := "executor: replaying 1 recorded scan lists on a plan of 2 scans"
		if got := recover(); got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	}()
	var err error
	e.exec.ExecuteThen(nil, p, 1, one, &err, nil)
}

// TestExecutionGrantIsThePlans: the grant an execution takes as it copies
// the plan is Plan.MemoryGrant, for every OLTP statement, a draw of every
// SALES template and a best-effort cut, and the copy has a step per node.
func TestExecutionGrantIsThePlans(t *testing.T) {
	e := newEnv(mem.GiB)
	var plans []*plan.Plan
	stmts := workload.SpecOLTP.StaticStatements()
	sales, rng := workload.NewSales(), rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		stmts = append(stmts, sales.Next(rng))
	}
	for _, sql := range stmts {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, e.plan(t, q))
	}
	q, err := sqlparser.Parse(stmts[len(stmts)-1])
	if err != nil {
		t.Fatal(err)
	}
	cut, err := e.opt.Optimize(q, optimizer.Hooks{BestEffort: func() bool { return true }})
	if err != nil || !cut.BestEffort {
		t.Fatalf("no best-effort cut: %v", err)
	}
	plans = append(plans, cut)

	s := vtime.NewScheduler()
	s.Go("client", func(tk *vtime.Task) {
		for i, p := range plans {
			// A tracker of its own per plan: its peak is this execution's grant.
			grants := e.budget.NewTracker("exec")
			grants.SetLimit(mem.GiB)
			e.exec = New(e.pool, e.layout, e.cpu, NewGrantManager(grants))
			if _, err := e.execute(tk, p, 1, nil); err != nil {
				t.Error(err)
			}
			if got := grants.Peak(); got != p.MemoryGrant() {
				t.Errorf("plan %d: the execution took a grant of %d bytes, the plan needs %d\n%s", i, got, p.MemoryGrant(), p)
			}
			var sh shape
			if steps := e.exec.appendSteps(nil, p.Root, &sh); len(steps) != p.Nodes() || len(steps) != len(postorder(nil, p.Root)) {
				t.Errorf("plan %d: %d steps for %d nodes (%d in its tree)", i, len(steps), p.Nodes(), len(postorder(nil, p.Root)))
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
