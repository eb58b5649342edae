package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"compilegate/internal/harness"
)

// cheapScenario is a fast SALES run for replication plumbing tests.
func cheapScenario() Scenario {
	return Sales(6).WithWindow(20*time.Minute, 5*time.Minute).WithSlice(5 * time.Minute)
}

// replicate runs one replication at the given worker count.
func replicate(rp Replication, workers int) (*ReplicationReport, error) {
	rep := RunReplications([]Replication{rp}, workers)[0]
	return rep, rep.Err
}

// syntheticReport builds a report whose metric values are dictated by
// the test, for exercising the stats plumbing without simulations.
func syntheticReport(values ...float64) *ReplicationReport {
	rep := &ReplicationReport{}
	for i, v := range values {
		rep.Runs = append(rep.Runs, SeedRun{
			Seed:   int64(i + 1),
			Result: &harness.Result{Completed: int64(v)},
		})
	}
	return rep
}

func TestReplicationMatchesDirectRuns(t *testing.T) {
	sc := cheapScenario()
	rep, err := replicate(Replication{Scenario: sc, Seeds: Seeds(3), Twin: Scenario.Baseline}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("report shape: %d runs", len(rep.Runs))
	}
	for i, run := range rep.Runs {
		if run.Seed != int64(i+1) {
			t.Fatalf("run %d carries seed %d, want seed order", i, run.Seed)
		}
		// Each seed's results must be identical to running the scenario
		// directly — replication is pure orchestration.
		direct, err := sc.WithSeed(run.Seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(run.Result, direct) {
			t.Fatalf("seed %d: replication result differs from direct run", run.Seed)
		}
		base, err := sc.WithSeed(run.Seed).Baseline().Run()
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(run.Twin, base) {
			t.Fatalf("seed %d: replication baseline differs from direct run", run.Seed)
		}
	}
}

func TestReplicationWorkerCountInvariance(t *testing.T) {
	sc := cheapScenario()
	one, err := replicate(Replication{Scenario: sc, Seeds: Seeds(3), Twin: Scenario.Baseline}, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := replicate(Replication{Scenario: sc, Seeds: Seeds(3), Twin: Scenario.Baseline}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one.Runs {
		if !sameSeedRun(one.Runs[i], many.Runs[i]) {
			t.Fatalf("seed %d: replication results differ between 1 and 4 workers", one.Runs[i].Seed)
		}
	}
}

func TestReplicationErrors(t *testing.T) {
	if _, err := replicate(Replication{Scenario: cheapScenario()}, 0); err == nil {
		t.Fatal("no-seed replication did not error")
	}
	broken := cheapScenario()
	broken.Scale = 0
	_, err := replicate(Replication{Scenario: broken, Seeds: Seeds(2)}, 0)
	if err == nil {
		t.Fatal("broken scenario replicated without error")
	}
	if !strings.Contains(err.Error(), "seed 1") {
		t.Fatalf("error does not name the failing seed: %v", err)
	}
}

func TestRatioMetricsCapStarvation(t *testing.T) {
	run := SeedRun{
		Result: &harness.Result{Completed: 500},
		Twin:   &harness.Result{Completed: 0},
	}
	if got := MetricThroughputRatio.F(run); got != RatioCap {
		t.Fatalf("starved baseline ratio = %v, want RatioCap", got)
	}
	run.Twin.Completed = 250
	if got := MetricThroughputRatio.F(run); got != 2 {
		t.Fatalf("ratio = %v, want 2", got)
	}
	// Without a twin, metrics that read it are NaN, so a ratio row fails
	// on an unpaired report instead of reading RatioCap.
	rep := syntheticReport(10, 12, 11)
	for _, m := range []Metric{MetricThroughputRatio, MetricErrorMargin, MetricOvercommitMargin} {
		if _, err := (Claim{Text: "unpaired", Metric: m, Lo: 1.2, Hi: math.Inf(1)}).Check(rep.Samples(m)); err == nil {
			t.Errorf("%s row held on an unpaired report", m.Name)
		}
	}
}

func TestClaimSeedsEnvOverride(t *testing.T) {
	t.Setenv("CLAIMS_SEEDS", "")
	if got := ClaimSeeds(); len(got) != DefaultClaimSeeds {
		t.Fatalf("default seeds = %v", got)
	}
	t.Setenv("CLAIMS_SEEDS", "3")
	if got := ClaimSeeds(); !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Fatalf("CLAIMS_SEEDS=3 gave %v", got)
	}
	t.Setenv("CLAIMS_SEEDS", "bogus")
	if got := ClaimSeeds(); len(got) != DefaultClaimSeeds {
		t.Fatalf("bogus CLAIMS_SEEDS gave %v", got)
	}
}
