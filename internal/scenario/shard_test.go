package scenario

import (
	"reflect"
	"runtime"
	"testing"

	"compilegate/internal/harness"
	"compilegate/internal/vtime"
)

// TestShardCountInvariance pins the sharded event-loop contract: a
// full-registry sweep returns byte-identical results at every shard
// count, because scenario i always runs on shard i%K from fresh
// scheduler state and runs share no mutable state. K=1 is the serial
// reference; 2, 4, and NumCPU cover under-, evenly-, and
// over-subscribed placements (K > len(scenarios) clamps inside
// RunSweep). CI runs this under -race, so it doubles as the data-race
// probe for the shard runtime.
func TestShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	all := All()
	scenarios := make([]Scenario, len(all))
	for i, s := range all {
		scenarios[i] = goldenWindow(s)
	}
	ref := RunSweep(scenarios, 1)
	for i := range scenarios {
		if ref[i].Err != nil {
			t.Fatalf("%s: workers=1: %v", scenarios[i].Name, ref[i].Err)
		}
	}
	// Replication pass: seeds become sweep jobs, so a replication's
	// per-seed results must be byte-identical at shard counts 1 and 4.
	repScenario := goldenWindow(MustGet(t, "figure3"))
	repRef, err := Replication{Scenario: repScenario, Seeds: Seeds(3), Paired: true, Workers: 1}.Run()
	if err != nil {
		t.Fatal(err)
	}
	repSharded, err := Replication{Scenario: repScenario, Seeds: Seeds(3), Paired: true, Workers: 4}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range repRef.Runs {
		if !sameSeedRun(repRef.Runs[i], repSharded.Runs[i]) {
			t.Errorf("replication seed %d differs between shards=1 and shards=4", repRef.Runs[i].Seed)
		}
	}
	// Cluster pass: a multi-node run adds N servers and a router to one
	// event loop; its per-seed results (including the per-node breakdown
	// and the injected node loss) must be shard-count invariant too.
	// cluster-breaker-recovery re-proves it with the full health plane
	// armed — breaker state machines, failover resubmission, and the
	// per-node transition trails all live on the same loop.
	for _, name := range []string{"cluster-nodeloss", "cluster-breaker-recovery"} {
		clRef, err := Replication{Scenario: MustGet(t, name), Seeds: Seeds(2), Workers: 1}.Run()
		if err != nil {
			t.Fatal(err)
		}
		clSharded, err := Replication{Scenario: MustGet(t, name), Seeds: Seeds(2), Workers: 4}.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i := range clRef.Runs {
			if !sameSeedRun(clRef.Runs[i], clSharded.Runs[i]) {
				t.Errorf("%s replication seed %d differs between shards=1 and shards=4", name, clRef.Runs[i].Seed)
			}
		}
	}

	counts := []int{2, 4, runtime.NumCPU()}
	for _, k := range counts {
		got := RunSweep(scenarios, k)
		for i := range scenarios {
			name := scenarios[i].Name
			if got[i].Err != nil {
				t.Fatalf("%s: workers=%d: %v", name, k, got[i].Err)
			}
			if ref[i].Result.Report != got[i].Result.Report {
				t.Errorf("%s: report diverges between workers=1 and workers=%d:\n%s\nvs\n%s",
					name, k, ref[i].Result.Report, got[i].Result.Report)
				continue
			}
			if !sameResult(ref[i].Result, got[i].Result) {
				t.Errorf("%s: results differ between workers=1 and workers=%d", name, k)
			}
		}
	}
}

// TestSchedulerReuseInvariance pins the arena-reuse contract behind
// the shard scheduler pool: a run on a Reset scheduler — reused run
// queue, timer wheel, and task slab — is bit-identical to a run on a
// fresh one. Two back-to-back runs of the same scenario on one
// scheduler must match each other and the fresh-scheduler reference.
func TestSchedulerReuseInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	s := goldenWindow(MustGet(t, "figure3"))

	fresh, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}

	sched := vtime.NewScheduler()
	first, err := s.RunOn(sched)
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Idle() {
		t.Fatal("scheduler not idle after a completed run")
	}
	sched.Reset()
	second, err := s.RunOn(sched)
	if err != nil {
		t.Fatal(err)
	}

	if first.Report != fresh.Report {
		t.Errorf("pooled-scheduler run diverges from fresh-scheduler run:\n%s\nvs\n%s",
			first.Report, fresh.Report)
	}
	if !sameResult(first, fresh) {
		t.Error("pooled-scheduler result differs from fresh-scheduler result")
	}
	if !sameResult(first, second) {
		t.Error("second run on a Reset scheduler differs from the first")
	}
}

// sameResult reports whether two runs measured the same thing. The
// scenario a Result carries is left out: its Engine and Load deltas are
// funcs, which reflect.DeepEqual never equates.
func sameResult(a, b *harness.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	x.Options, y.Options = Scenario{}, Scenario{}
	return reflect.DeepEqual(x, y)
}

// sameSeedRun is sameResult over both arms of a replication's seed.
func sameSeedRun(a, b SeedRun) bool {
	return a.Seed == b.Seed && sameResult(a.Result, b.Result) && sameResult(a.Baseline, b.Baseline)
}

// MustGet fetches a registered scenario or fails the test.
func MustGet(t *testing.T, name string) Scenario {
	t.Helper()
	s, ok := Default.Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	return s
}
