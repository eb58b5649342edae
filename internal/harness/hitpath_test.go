package harness

import (
	"math/rand"
	"testing"
	"time"

	"compilegate/internal/cluster"
	"compilegate/internal/engine"
	"compilegate/internal/fault"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// TestRunsTakeNoCoroutines pins that a run takes no stack: on a fleet run
// that compiles (its first minute) and then hits the plan cache, and on a
// fault run whose storm queries, crash and leak are injected tasks, the
// scheduler creates no coroutine and switches into none.
func TestRunsTakeNoCoroutines(t *testing.T) {
	const clients = 200
	o := defaults(clients).WithWindow(10*time.Minute, 5*time.Minute).WithSlice(5 * time.Minute)
	o.Workload = workload.SpecOLTP
	o.Nodes = 2
	o.Load = func(l *workload.LoadConfig) { l.ThinkTime = 5 * time.Second }
	f := defaults(10).WithWindow(20*time.Minute, 5*time.Minute).WithSlice(5 * time.Minute)
	f.Fault = &fault.Plan{Injections: []fault.Injection{
		{Kind: fault.CompileStorm, At: 8 * time.Minute, Burst: 6, Interval: time.Second},
		{Kind: fault.MemLeak, At: 9 * time.Minute, Duration: 3 * time.Minute, RateBytes: 64 << 20, Release: true},
		{Kind: fault.CrashRestart, At: 12 * time.Minute, Duration: time.Minute},
		{Kind: fault.DiskStall, At: 14 * time.Minute, Duration: time.Minute, Factor: 4},
	}}
	for _, s := range []Scenario{o, f} {
		sched := vtime.NewScheduler()
		r, err := s.RunOn(sched)
		if err != nil {
			t.Fatal(err)
		}
		compiles := r.Work.Compilations
		coros, switches := sched.Coroutines(), sched.CoroSwitches()
		t.Logf("%d clients, %d queries, %d events, %d compilations: %d coroutines, %d switches",
			s.Clients, r.Load.Submitted, r.SimEvents, compiles, coros, switches)
		if compiles == 0 {
			t.Fatalf("%d queries compiled nothing", r.Load.Submitted)
		}
		if coros != 0 || switches != 0 {
			t.Errorf("%d coroutines created, %d switches into them, want none", coros, switches)
		}
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
