package compilegate

import (
	"testing"
	"time"

	"compilegate/internal/broker"
)

// The root package re-exports what benchmark/ and example_test.go use, and
// these tests pin that surface. What they no longer cover is tested where
// it lives: the registry's refusals, names and listing by scenario's
// TestRegistryRejectsDuplicatesAndSortsNames, sweep ≡ serial by
// TestSweepMatchesSerial, TestShardCountInvariance and
// TestSweepWorkerCountInvariance, and
// CompareRuns by harness's Compare table test (TestCompareZeroBaseline)
// and Example_adhocDSS.

// TestPublicAPIGovernedCompilation drives a governed compilation through
// the public facade.
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
	if last.Decision != broker.Shrink {
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

// TestPublicAPIScenarioRegistry resolves the paper experiments by name
// and sweeps registered scenarios through the facade.
func TestPublicAPIScenarioRegistry(t *testing.T) {
	for _, want := range []string{"figure2", "figure3", "figure4", "figure5",
		"monitors-1", "broker-only", "oltp-mix", "best-effort", "adhoc-dss", "quickstart"} {
		if _, ok := ScenarioByName(want); !ok {
			t.Errorf("scenario %s not registered", want)
		}
	}
	if testing.Short() {
		t.Skip("sweep execution in -short")
	}
	s, _ := ScenarioByName("quickstart")
	for _, sr := range RunSweep([]Scenario{s, s.WithSeed(2)}, 0) {
		if sr.Err != nil {
			t.Fatal(sr.Err)
		}
		if sr.Result.Completed == 0 {
			t.Fatalf("%s completed nothing", sr.Scenario.Name)
		}
	}
}
