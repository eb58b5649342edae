package harness

import (
	"math/rand"
	"testing"
	"time"

	"compilegate/internal/cluster"
	"compilegate/internal/engine"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// TestCoroutinesFollowCompilations pins what the hit path costs in
// stacks: on a fleet run whose plans are cached after the first minute,
// the coroutines created and the switches into them are bounded by the
// compilations, not by the clients or the queries.
func TestCoroutinesFollowCompilations(t *testing.T) {
	const clients = 200
	o := defaults(clients).WithWindow(10*time.Minute, 5*time.Minute).WithSlice(5 * time.Minute)
	o.Workload = workload.SpecOLTP
	o.Nodes = 2
	o.Load = func(l *workload.LoadConfig) { l.ThinkTime = 5 * time.Second }
	sched := vtime.NewScheduler()
	r, err := o.RunOn(sched)
	if err != nil {
		t.Fatal(err)
	}
	var compiles uint64
	for _, n := range r.NodeResults {
		compiles += n.PlanCacheMisses
	}
	coros, switches := sched.Coroutines(), sched.CoroSwitches()
	t.Logf("%d clients, %d queries, %d events: %d compilations, %d coroutines, %d switches",
		clients, r.Load.Submitted, r.SimEvents, compiles, coros, switches)
	if compiles == 0 || uint64(r.Load.Submitted) < 100*compiles {
		t.Fatalf("%d compilations in %d queries: not a hit-path run", compiles, r.Load.Submitted)
	}
	if coros > compiles || coros >= clients {
		t.Errorf("%d coroutines for %d compilations and %d clients", coros, compiles, clients)
	}
	// A point query's compilation parks a handful of times (its work
	// batches); nothing else on the path may.
	if switches > 4*compiles {
		t.Errorf("%d switches into coroutines for %d compilations", switches, compiles)
	}
}

// TestSteadyStateClientCycleAllocatesLikeNext: one turn of a client's
// loop on the hit path — think, draw, route, identify, probe, execute,
// record — allocates what the generator's draw allocates and nothing
// else. A meter task sleeps through windows of client cycles; everything
// the process allocates in a window is the cycles'.
func TestSteadyStateClientCycleAllocatesLikeNext(t *testing.T) {
	snap := SnapshotFor(workload.SpecOLTP, 0.04)
	sched := vtime.NewScheduler()
	servers := make([]*engine.Server, 2)
	nodes := make([]cluster.Node, len(servers))
	for i := range servers {
		srv, err := engine.NewShared(engine.DefaultConfig(), snap.Catalog, snap.prebuilt(), sched)
		if err != nil {
			t.Fatal(err)
		}
		servers[i], nodes[i] = srv, srv
	}
	router, err := cluster.NewRouter(cluster.Config{}, nodes, snap.Statements)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.SpecOLTP.Generator()
	rng := rand.New(rand.NewSource(1))
	perNext := testing.AllocsPerRun(1000, func() { gen.Next(rng) })

	lcfg := workload.DefaultLoadConfig(1)
	lcfg.ThinkTime, lcfg.Horizon = time.Second, 2*time.Hour
	stats := workload.Run(sched, router, gen, lcfg, func() {
		for _, srv := range servers {
			srv.Close()
		}
	})
	compiles := func() (n uint64) {
		for _, srv := range servers {
			n += srv.PlanCache().Misses()
		}
		return n
	}
	sched.Go("meter", func(tk *vtime.Task) {
		tk.Sleep(time.Hour) // every statement compiled and its scans recorded, on both nodes
		const windows = 100
		queries, compiled := stats.Submitted, compiles()
		perWindow := testing.AllocsPerRun(windows, func() { tk.Sleep(10 * time.Second) })
		cycles := float64(stats.Submitted-queries) / (windows + 1) // AllocsPerRun warms up with one more call
		if cycles < 5 || compiles() != compiled {
			t.Fatalf("%.1f cycles per window, %d compilations during the measurement: not the steady state", cycles, compiles()-compiled)
		}
		if perWindow > perNext*cycles {
			t.Errorf("%v allocations per window of %.1f client cycles, the draws alone make %v", perWindow, cycles, perNext*cycles)
		}
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
}
