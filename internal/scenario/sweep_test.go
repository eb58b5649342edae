package scenario

import (
	"reflect"
	"runtime"
	"testing"

	"compilegate/internal/harness"
)

// TestShardCountInvariance and TestSweepWorkerCountInvariance are the
// sweep's determinism guard: a full-registry sweep returns
// byte-identical results — same measurements, same rendered reports —
// at every worker count, because each run owns a fresh scheduler and
// shares no mutable state. Both share one body, sweepInvariant, and
// split the worker counts and cluster scenarios between them; workers 1
// is the serial reference for each. CI runs them under -race, so they
// double as the sweep's data-race probe. (That the process-wide shared
// snapshot changes nothing either is internal/harness's
// TestFreshSnapshotMatchesShared.)
//
// TestShardCountInvariance covers explicit pool sizes: 2, 4 and NumCPU
// are under-, evenly- and over-subscribed pools (a count above
// len(scenarios) clamps inside RunSweep).
func TestShardCountInvariance(t *testing.T) {
	sweepInvariant(t, []int{2, 4, runtime.NumCPU()}, 4, "cluster-nodeloss", "cluster-breaker-recovery")
}

// TestSweepWorkerCountInvariance covers workers 0, the GOMAXPROCS
// default that the commands and Replication use.
func TestSweepWorkerCountInvariance(t *testing.T) {
	sweepInvariant(t, []int{0}, 0, "cluster-affinity", "cluster-thrash-shed")
}

// sweepInvariant sweeps the whole registry at workers 1 and at each of
// workers, and fails on any scenario whose runs differ. It then runs a
// paired figure3 replication and a replication of each named cluster
// scenario at workers 1 and repWorkers.
func sweepInvariant(t *testing.T, workers []int, repWorkers int, clusters ...string) {
	t.Helper()
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
	for _, w := range workers {
		got := RunSweep(scenarios, w)
		for i := range scenarios {
			name := scenarios[i].Name
			if got[i].Err != nil {
				t.Fatalf("%s: workers=%d: %v", name, w, got[i].Err)
			}
			if ref[i].Result.Report != got[i].Result.Report {
				t.Errorf("%s: report diverges between workers=1 and workers=%d:\n%s\nvs\n%s",
					name, w, ref[i].Result.Report, got[i].Result.Report)
				continue
			}
			if !sameResult(ref[i].Result, got[i].Result) {
				t.Errorf("%s: results differ between workers=1 and workers=%d", name, w)
			}
		}
	}

	// Replication pass: seeds become sweep jobs, so a replication's
	// per-seed results must be identical at any worker count.
	rep := goldenWindow(MustGet(t, "figure3"))
	replicationInvariant(t, Replication{Scenario: rep, Seeds: Seeds(3), Twin: Scenario.Baseline}, repWorkers)
	// Cluster pass: a multi-node run adds N servers and a router to one
	// event loop; its per-seed results (including the per-node breakdown
	// and the injected node loss) must be worker-count invariant too.
	// cluster-breaker-recovery and cluster-thrash-shed re-prove it with
	// the health plane armed — health exclusion, breaker state machines,
	// failover resubmission and the per-node transition trails all live on
	// the same loop.
	for _, name := range clusters {
		replicationInvariant(t, Replication{Scenario: MustGet(t, name), Seeds: Seeds(2)}, repWorkers)
	}
}

// replicationInvariant runs rp on one worker and on each of workers, and
// fails on any seed whose runs differ.
func replicationInvariant(t *testing.T, rp Replication, workers ...int) {
	t.Helper()
	ref, err := replicate(rp, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		got, err := replicate(rp, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Runs {
			if !sameSeedRun(ref.Runs[i], got.Runs[i]) {
				t.Errorf("%s replication seed %d differs between workers=1 and workers=%d", rp.Scenario.Name, ref.Runs[i].Seed, w)
			}
		}
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
	return a.Seed == b.Seed && sameResult(a.Result, b.Result) && sameResult(a.Twin, b.Twin)
}

// MustGet fetches a registered scenario or fails the test.
func MustGet(t *testing.T, name string) Scenario {
	t.Helper()
	s, ok := Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	return s
}
