package compilegate

import (
	"testing"
	"time"
)

// TestPublicAPIGovernedCompilation drives the README's library example:
// a governed compilation through the public facade.
func TestPublicAPIGovernedCompilation(t *testing.T) {
	sched := NewScheduler()
	budget := NewBudget(1 * GiB)
	gov, err := NewGovernor(DefaultGovernorOptions(4, budget.Total()), budget.NewTracker("compile"))
	if err != nil {
		t.Fatal(err)
	}
	done := false
	sched.Go("q", func(task *Task) {
		c := gov.Begin(task, "q")
		defer c.Finish()
		for c.Used() < 100*MiB {
			if err := c.Alloc(10 * MiB); err != nil {
				t.Errorf("Alloc: %v", err)
				return
			}
			task.Sleep(time.Second)
		}
		done = true
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("compilation did not complete")
	}
	if gov.Finished() != 1 {
		t.Fatalf("finished = %d", gov.Finished())
	}
}

// TestPublicAPIBrokerRoundTrip wires a broker over two components and
// verifies shrink notifications arrive under pressure.
func TestPublicAPIBrokerRoundTrip(t *testing.T) {
	budget := NewBudget(1000)
	brk := NewBroker(DefaultBrokerConfig(), budget)
	hog := budget.NewTracker("hog")
	hog.MustReserve(950) // above the broker's headroom line => pressure
	var last Notification
	brk.Register("hog", 1, 0, hog.Used, func(n Notification) { last = n })
	brk.Register("other", 1, 0, func() int64 { return 0 }, nil)
	for i := 1; i <= 5; i++ {
		brk.Tick(time.Duration(i) * time.Second)
	}
	if last.Decision != Shrink {
		t.Fatalf("decision = %v, want Shrink", last.Decision)
	}
}

// TestPublicAPIServerEndToEnd runs one query through a full Server built
// via the facade.
func TestPublicAPIServerEndToEnd(t *testing.T) {
	sched := NewScheduler()
	srv, err := NewServer(DefaultServerConfig(), NewSalesCatalog(0.01), sched)
	if err != nil {
		t.Fatal(err)
	}
	sched.Go("client", func(task *Task) {
		err := srv.Submit(task, "SELECT COUNT(*) FROM dim_store JOIN dim_city ON dim_store.city_id = dim_city.city_id GROUP BY dim_city.region_id")
		if err != nil {
			t.Errorf("Submit: %v", err)
		}
		srv.Close()
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if srv.Recorder().Completed() != 1 {
		t.Fatal("no completion recorded")
	}
}

// TestPublicAPIScenarioRegistry exercises the scenario surface: the
// registry lists the paper experiments, names resolve, and a parallel
// sweep of registered scenarios runs through the facade.
func TestPublicAPIScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	if len(names) < 10 {
		t.Fatalf("registry lists %d scenarios", len(names))
	}
	for _, want := range []string{"figure2", "figure3", "figure4", "figure5",
		"monitors-1", "broker-only", "oltp-mix", "best-effort", "adhoc-dss", "quickstart"} {
		if _, ok := ScenarioByName(want); !ok {
			t.Errorf("scenario %s not registered", want)
		}
	}
	if len(Scenarios()) != len(names) {
		t.Fatal("Scenarios and ScenarioNames disagree")
	}
	if ListScenarios() == "" {
		t.Fatal("empty scenario listing")
	}
	if s := SalesScenario(30); s.Clients != 30 || !s.Throttled {
		t.Fatalf("SalesScenario = %+v", s)
	}

	if testing.Short() {
		t.Skip("sweep execution in -short")
	}
	s, _ := ScenarioByName("quickstart")
	res := RunSweep([]Scenario{s, s.WithSeed(2)}, 0)
	for _, sr := range res {
		if sr.Err != nil {
			t.Fatal(sr.Err)
		}
		if sr.Result.Completed == 0 {
			t.Fatalf("%s completed nothing", sr.Scenario.Name)
		}
	}
	serial, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Report != res[0].Result.Report {
		t.Fatal("sweep result diverges from serial RunScenario")
	}
}

// TestPublicAPIBenchmarkRun exercises RunScenario + CompareRuns on a tiny
// configuration.
func TestPublicAPIBenchmarkRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	s := SalesScenario(4).WithWindow(20*time.Minute, 2*time.Minute).WithSlice(2 * time.Minute)
	th, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := RunScenario(s.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if th.Completed == 0 || ba.Completed == 0 {
		t.Fatal("empty runs")
	}
	if _, summary := CompareRuns(th, ba); summary == "" {
		t.Fatal("empty comparison")
	}
	from, to := DefaultMeasurementWindow()
	if from != 3*time.Hour || to != 8*time.Hour {
		t.Fatal("measurement window drifted from the paper's")
	}
}
