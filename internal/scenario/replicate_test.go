package scenario

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
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

// syntheticReport builds a report whose metric values are dictated by
// the test, for exercising the stats plumbing without simulations.
func syntheticReport(values ...float64) *ReplicationReport {
	rep := &ReplicationReport{Scenario: Scenario{Name: "synthetic"}}
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
	rep, err := Replication{Scenario: sc, Seeds: Seeds(3), Paired: true}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 || !rep.Paired {
		t.Fatalf("report shape: %d runs, paired=%v", len(rep.Runs), rep.Paired)
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
		if !sameResult(run.Baseline, base) {
			t.Fatalf("seed %d: replication baseline differs from direct run", run.Seed)
		}
	}
}

func TestReplicationWorkerCountInvariance(t *testing.T) {
	sc := cheapScenario()
	one, err := Replication{Scenario: sc, Seeds: Seeds(3), Paired: true, Workers: 1}.Run()
	if err != nil {
		t.Fatal(err)
	}
	many, err := Replication{Scenario: sc, Seeds: Seeds(3), Paired: true, Workers: 4}.Run()
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
	if _, err := (Replication{Scenario: cheapScenario()}).Run(); err == nil {
		t.Fatal("no-seed replication did not error")
	}
	broken := cheapScenario()
	broken.Scale = 0
	_, err := Replication{Scenario: broken, Seeds: Seeds(2)}.Run()
	if err == nil {
		t.Fatal("broken scenario replicated without error")
	}
	if !strings.Contains(err.Error(), "seed 1") {
		t.Fatalf("error does not name the failing seed: %v", err)
	}
}

func TestClaimBandCheck(t *testing.T) {
	rep := syntheticReport(10, 12, 11, 13, 9)

	// Holds: the CI of mean≈11 sits inside a generous band.
	if _, err := (ClaimBand{Claim: "holds", Metric: MetricCompleted, Lo: 5, Hi: 20}).Check(rep); err != nil {
		t.Fatalf("claim should hold: %v", err)
	}
	// Unbounded above.
	if _, err := (ClaimBand{Claim: "open", Metric: MetricCompleted, Lo: 5, Hi: math.Inf(1)}).Check(rep); err != nil {
		t.Fatalf("unbounded claim should hold: %v", err)
	}
	// Fails: band above the sample.
	if _, err := (ClaimBand{Claim: "fails", Metric: MetricCompleted, Lo: 50, Hi: 60}).Check(rep); err == nil {
		t.Fatal("claim above the sample passed")
	}
	// Invalid band.
	if _, err := (ClaimBand{Claim: "bad", Metric: MetricCompleted, Lo: 2, Hi: 1}).Check(rep); err == nil {
		t.Fatal("inverted band accepted")
	}
	// Seed floor: 2 samples < default 3.
	thin := syntheticReport(10, 12)
	if _, err := (ClaimBand{Claim: "thin", Metric: MetricCompleted, Lo: 0, Hi: 100}).Check(thin); err == nil {
		t.Fatal("2-seed replication passed the 3-seed floor")
	}
	// Exactly-zero band over an all-zero sample.
	zero := syntheticReport(0, 0, 0, 0, 0)
	if _, err := (ClaimBand{Claim: "zero", Metric: MetricCompleted, Lo: 0, Hi: 0}).Check(zero); err != nil {
		t.Fatalf("all-zero sample failed the [0,0] band: %v", err)
	}
}

// fatalTB records Assert's failure output instead of stopping the test.
type fatalTB struct {
	testing.TB
	fatal string
}

func (f *fatalTB) Helper()                           {}
func (f *fatalTB) Logf(string, ...any)               {}
func (f *fatalTB) Fatalf(format string, args ...any) { f.fatal = fmt.Sprintf(format, args...) }

func TestClaimBandAssertPrintsPerSeedTable(t *testing.T) {
	rep := syntheticReport(10, 12, 11)
	var tb fatalTB
	ClaimBand{Claim: "doomed", Metric: MetricCompleted, Lo: 50, Hi: 60}.Assert(&tb, rep)
	if tb.fatal == "" {
		t.Fatal("failed claim did not Fatalf")
	}
	for _, want := range []string{"doomed", "per-seed replication table", "completed", "10.000", "12.000"} {
		if !strings.Contains(tb.fatal, want) {
			t.Fatalf("failure output missing %q:\n%s", want, tb.fatal)
		}
	}
}

func TestRatioMetricsCapStarvation(t *testing.T) {
	run := SeedRun{
		Result:   &harness.Result{Completed: 500},
		Baseline: &harness.Result{Completed: 0},
	}
	if got := MetricThroughputRatio.F(run); got != RatioCap {
		t.Fatalf("starved baseline ratio = %v, want RatioCap", got)
	}
	run.Baseline.Completed = 250
	if got := MetricThroughputRatio.F(run); got != 2 {
		t.Fatalf("ratio = %v, want 2", got)
	}
}

func TestReplicationTableAndCSV(t *testing.T) {
	rep := syntheticReport(10, 12, 11)
	table := rep.Table(MetricCompleted, MetricErrors)
	for _, want := range []string{"seed", "completed", "errors", "10.000"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	csv := rep.CSV(MetricCompleted)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 || lines[0] != "scenario,seed,completed" || lines[1] != "synthetic,1,10" {
		t.Fatalf("bad CSV:\n%s", csv)
	}
}

func TestWriteCSVEnv(t *testing.T) {
	rep := syntheticReport(10, 12, 11)
	// Unset: a no-op.
	t.Setenv("REPLICATION_CSV_DIR", "")
	if err := rep.WriteCSVEnv(MetricCompleted); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	t.Setenv("REPLICATION_CSV_DIR", dir)
	if err := rep.WriteCSVEnv(MetricCompleted); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "synthetic.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != rep.CSV(MetricCompleted) {
		t.Fatalf("artifact file does not match CSV():\n%s", data)
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
