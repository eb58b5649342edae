package executor

import (
	"errors"
	"testing"
	"time"

	"compilegate/internal/bufferpool"
	"compilegate/internal/catalog"
	"compilegate/internal/mem"
	"compilegate/internal/optimizer"
	"compilegate/internal/plan"
	"compilegate/internal/stats"
	"compilegate/internal/storage"
	"compilegate/internal/vtime"
)

type env struct {
	budget *mem.Budget
	pool   *bufferpool.Pool
	layout *storage.Layout
	cpu    *vtime.CPUSet
	grants *GrantManager
	exec   *Executor
	opt    *optimizer.Optimizer
}

func newEnv(grantLimit int64) *env {
	cat := catalog.NewSales(catalog.SalesConfig{Scale: 0.001, ExtentBytes: 8 << 20})
	est := stats.NewEstimator(cat)
	budget := mem.NewBudget(4 * mem.GiB)
	layout := storage.NewLayout(cat)
	pool := bufferpool.New(cat.ExtentBytes, budget.NewTracker("bufferpool"), layout.ExtentCounts())
	cpu := vtime.NewCPUSet(8, 50*time.Millisecond)
	gt := budget.NewTracker("exec")
	gt.SetLimit(grantLimit)
	grants := NewGrantManager(gt)
	exec := New(pool, layout, cpu, grants)
	return &env{
		budget: budget, pool: pool, layout: layout, cpu: cpu,
		grants: grants, exec: exec,
		opt: optimizer.New(est, optimizer.DefaultConfig()),
	}
}

func (e *env) plan(t testing.TB, q *plan.Query) *plan.Plan {
	t.Helper()
	p, err := e.opt.Optimize(q, optimizer.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// outcome is what one execution shows from outside the executor: the
// buffer-pool reads it made, the CPU it charged and the virtual time it
// took.
type outcome struct {
	hits, misses  uint64
	busy, elapsed time.Duration
}

// execute runs p on behalf of tk and returns its outcome.
func (e *env) execute(tk *vtime.Task, p *plan.Plan, seed int64, prep *Prepared) (outcome, error) {
	h, m, b, at := e.pool.Hits(), e.pool.Misses(), e.cpu.BusyTime(), tk.Now()
	err := tk.AwaitErr(func(errp *error, k vtime.Step) { e.exec.ExecuteThen(tk, p, seed, prep, errp, k) })
	return outcome{e.pool.Hits() - h, e.pool.Misses() - m, e.cpu.BusyTime() - b, tk.Now() - at}, err
}

func starQ(n int) *plan.Query {
	dims := []string{"dim_product", "dim_store", "dim_date", "dim_channel"}
	q := &plan.Query{Tables: []plan.TableTerm{{Name: "sales_fact"}}}
	for i := 0; i < n && i < len(dims); i++ {
		q.Tables = append(q.Tables, plan.TableTerm{Name: dims[i]})
		q.Joins = append(q.Joins, plan.JoinEdge{A: "sales_fact", B: dims[i]})
	}
	return q
}

func TestExecuteSimpleScan(t *testing.T) {
	e := newEnv(mem.GiB)
	p := e.plan(t, &plan.Query{Tables: []plan.TableTerm{{Name: "dim_product"}}})
	s := vtime.NewScheduler()
	var st outcome
	s.Go("q", func(tk *vtime.Task) {
		var err error
		if st, err = e.execute(tk, p, 1, nil); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st.hits+st.misses == 0 {
		t.Fatal("no extents read")
	}
	if st.elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if e.exec.Executed() != 1 {
		t.Fatal("execution not counted")
	}
}

func TestWarmCacheFasterThanCold(t *testing.T) {
	e := newEnv(mem.GiB)
	p := e.plan(t, starQ(2))
	s := vtime.NewScheduler()
	var cold, warm outcome
	s.Go("q", func(tk *vtime.Task) {
		var err error
		if cold, err = e.execute(tk, p, 1, nil); err != nil {
			t.Error(err)
		}
		if warm, err = e.execute(tk, p, 1, nil); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if warm.hits <= cold.hits {
		t.Fatalf("warm hits %d <= cold hits %d", warm.hits, cold.hits)
	}
	if warm.elapsed >= cold.elapsed {
		t.Fatalf("warm run %v not faster than cold %v", warm.elapsed, cold.elapsed)
	}
}

func TestGrantAcquireRelease(t *testing.T) {
	e := newEnv(mem.GiB)
	q := starQ(2)
	q.GroupBy = []plan.ColRef{{Table: "dim_store", Column: "city_id"}}
	q.Aggregates = 1
	p := e.plan(t, q)
	if p.MemoryGrant() <= 0 {
		t.Fatal("plan needs no grant; test is vacuous")
	}
	s := vtime.NewScheduler()
	s.Go("q", func(tk *vtime.Task) {
		if _, err := e.execute(tk, p, 1, nil); err != nil {
			t.Error(err)
		}
		if e.grants.Tracker().Used() != 0 {
			t.Errorf("grant leaked: %d", e.grants.Tracker().Used())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.grants.Tracker().Peak(); got != p.MemoryGrant() {
		t.Fatalf("granted %d bytes, want the plan's %d", got, p.MemoryGrant())
	}
}

func TestGrantQueueingSerializes(t *testing.T) {
	e := newEnv(mem.GiB)
	gm := e.grants
	s := vtime.NewScheduler()
	var order []string
	var bGranted time.Duration
	hold := func(name string, bytes int64, holdFor time.Duration, after time.Duration) {
		s.Go(name, func(tk *vtime.Task) {
			tk.Sleep(after)
			if err := tk.AwaitErr(func(errp *error, k vtime.Step) { gm.AcquireThen(tk, bytes, errp, k) }); err != nil {
				t.Error(err)
				return
			}
			order = append(order, name)
			if name == "b" {
				bGranted = tk.Now()
			}
			tk.Sleep(holdFor)
			gm.Release(bytes)
		})
	}
	hold("a", 700*mem.MiB, time.Second, 0)
	hold("b", 700*mem.MiB, time.Second, time.Millisecond) // must wait for a
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
	if bGranted < time.Second {
		t.Fatalf("b granted at %v, before a released at 1s", bGranted)
	}
}

func TestGrantTimeout(t *testing.T) {
	e := newEnv(mem.GiB)
	gm := e.grants
	s := vtime.NewScheduler()
	var gotErr error
	s.Go("hog", func(tk *vtime.Task) {
		if err := tk.AwaitErr(func(errp *error, k vtime.Step) { gm.AcquireThen(tk, 900*mem.MiB, errp, k) }); err != nil {
			t.Error(err)
		}
		tk.Sleep(grantTimeout + time.Minute)
		gm.Release(900 * mem.MiB)
	})
	s.Go("victim", func(tk *vtime.Task) {
		tk.Sleep(time.Millisecond)
		gotErr = tk.AwaitErr(func(errp *error, k vtime.Step) { gm.AcquireThen(tk, 500*mem.MiB, errp, k) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var ge *ErrGrantTimeout
	if !errors.As(gotErr, &ge) {
		t.Fatalf("err = %v, want grant timeout", gotErr)
	}
	if gm.Timeouts() != 1 {
		t.Fatalf("timeouts = %d", gm.Timeouts())
	}
}

func TestGrantFIFONoBarge(t *testing.T) {
	e := newEnv(mem.GiB)
	gm := e.grants
	s := vtime.NewScheduler()
	var order []string
	s.Go("hog", func(tk *vtime.Task) {
		tk.AwaitErr(func(errp *error, k vtime.Step) { gm.AcquireThen(tk, 900*mem.MiB, errp, k) })
		tk.Sleep(time.Second)
		gm.Release(900 * mem.MiB)
	})
	s.Go("big-waiter", func(tk *vtime.Task) {
		tk.Sleep(time.Millisecond)
		if err := tk.AwaitErr(func(errp *error, k vtime.Step) { gm.AcquireThen(tk, 800*mem.MiB, errp, k) }); err != nil {
			t.Error(err)
			return
		}
		order = append(order, "big")
		tk.Sleep(time.Second)
		gm.Release(800 * mem.MiB)
	})
	s.Go("small-late", func(tk *vtime.Task) {
		tk.Sleep(2 * time.Millisecond)
		if err := tk.AwaitErr(func(errp *error, k vtime.Step) { gm.AcquireThen(tk, 10*mem.MiB, errp, k) }); err != nil {
			t.Error(err)
			return
		}
		order = append(order, "small")
		gm.Release(10 * mem.MiB)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "big" {
		t.Fatalf("order = %v: small request barged past queued big grant", order)
	}
}

func TestCPUConsumption(t *testing.T) {
	e := newEnv(mem.GiB)
	p := e.plan(t, starQ(3))
	s := vtime.NewScheduler()
	var st outcome
	s.Go("q", func(tk *vtime.Task) {
		st, _ = e.execute(tk, p, 1, nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st.busy <= 0 {
		t.Fatal("no CPU consumed by 3-join plan")
	}
	if st.elapsed < st.busy/time.Duration(e.cpu.N()) {
		t.Fatalf("%v of CPU on %d processors in %v", st.busy, e.cpu.N(), st.elapsed)
	}
}

func TestKickWakesWaiter(t *testing.T) {
	e := newEnv(mem.GiB)
	gm := e.grants
	// Occupy budget with non-grant memory so Acquire queues, then free it
	// and Kick.
	other := e.budget.NewTracker("other")
	s := vtime.NewScheduler()
	var acquiredAt time.Duration
	s.Go("setup", func(tk *vtime.Task) {
		// Fill almost the whole machine (bufferpool empty, so no reclaim).
		if err := other.Reserve(3900 * mem.MiB); err != nil {
			t.Error(err)
		}
		tk.Sleep(10 * time.Second)
		other.Release(3900 * mem.MiB)
		gm.Kick()
	})
	s.Go("waiter", func(tk *vtime.Task) {
		tk.Sleep(time.Millisecond)
		if err := tk.AwaitErr(func(errp *error, k vtime.Step) { gm.AcquireThen(tk, 800*mem.MiB, errp, k) }); err != nil {
			t.Error(err)
			return
		}
		acquiredAt = tk.Now()
		gm.Release(800 * mem.MiB)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if acquiredAt != 10*time.Second {
		t.Fatalf("waiter acquired at %v, want 10s (via Kick)", acquiredAt)
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() outcome {
		e := newEnv(mem.GiB)
		p := e.plan(t, starQ(2))
		s := vtime.NewScheduler()
		var st outcome
		s.Go("q", func(tk *vtime.Task) {
			st, _ = e.execute(tk, p, 42, nil)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic execution: %+v vs %+v", a, b)
	}
}

// TestHandBuiltPlanResolvesByName: the optimizer hands every scan node its
// catalog table; a plan built by hand carries only the name, and executes
// exactly as the optimizer's does — one-shot and recording alike.
func TestHandBuiltPlanResolvesByName(t *testing.T) {
	var strip func(n *plan.Node) *plan.Node
	strip = func(n *plan.Node) *plan.Node {
		if n == nil {
			return nil
		}
		c := *n
		c.Tab, c.Left, c.Right = nil, strip(n.Left), strip(n.Right)
		return &c
	}
	run := func(byName bool) (oneShot, recording, replay outcome, now time.Duration) {
		e := newEnv(mem.GiB)
		p := e.plan(t, starQ(3))
		if byName {
			p = &plan.Plan{Root: strip(p.Root)}
		}
		for _, n := range postorder(nil, p.Root) {
			if scan := n.Op == plan.OpSeqScan || n.Op == plan.OpIndexScan; scan && (n.Tab == nil) != byName {
				t.Fatalf("scan of %s: Tab = %v with byName = %v", n.Table, n.Tab, byName)
			}
		}
		s := vtime.NewScheduler()
		s.Go("q", func(tk *vtime.Task) {
			var prep Prepared
			for i, st := range []*outcome{&oneShot, &recording, &replay} {
				pr := &prep
				if i == 0 {
					pr = nil
				}
				var err error
				if *st, err = e.execute(tk, p, 42, pr); err != nil {
					t.Error(err)
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return oneShot, recording, replay, s.Now()
	}
	o1, r1, p1, t1 := run(false)
	o2, r2, p2, t2 := run(true)
	if o1 != o2 || r1 != r2 || p1 != p2 || t1 != t2 {
		t.Fatalf("by name: %+v %+v %+v at %v\nresolved: %+v %+v %+v at %v", o2, r2, p2, t2, o1, r1, p1, t1)
	}
	if o1.hits+o1.misses == 0 {
		t.Fatal("no extents read")
	}
}

// TestUnknownTableInHandBuiltPlanPanics: a name the catalog does not know
// is a bug in whoever built the plan.
func TestUnknownTableInHandBuiltPlanPanics(t *testing.T) {
	e := newEnv(mem.GiB)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for an unknown table")
		}
	}()
	e.exec.table(&plan.Node{Op: plan.OpSeqScan, Table: "no_such_table"})
}
