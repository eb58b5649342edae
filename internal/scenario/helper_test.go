package scenario

import (
	"runtime"
	"testing"

	"compilegate/internal/optimizer"
)

// TestKernelHelperInvariance pins that the optimizer's kernel helper cannot
// be observed: every registry scenario, run serially on the -quick window,
// returns the same Result whether a second core grew the explorations' tapes
// ahead of their players or (one core: the helper stands down by itself) the
// players grew them alone. The helper's counters move between the two sweeps
// and no Result or Report does, so none of them — they depend on host timing
// — reaches one, or a golden derived from one. It joins the shard/worker
// invariance suite, and under -race it is the whole-simulation probe of the
// run ownership protocol.
func TestKernelHelperInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	all := All()
	scenarios := make([]Scenario, len(all))
	for i, s := range all {
		scenarios[i] = goldenWindow(s)
	}
	// The sweep's one event loop leaves a core spare iff there are two.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := optimizer.HelperStats()
	alone := RunSweep(scenarios, 1)
	if after := optimizer.HelperStats(); after.Requests != before.Requests {
		t.Fatalf("the helper did not stand down at GOMAXPROCS=1: %+v, then %+v", before, after)
	}
	runtime.GOMAXPROCS(2)
	before = optimizer.HelperStats()
	helped := RunSweep(scenarios, 1)
	after := optimizer.HelperStats()
	if after.HelperSteps == before.HelperSteps {
		t.Fatalf("the helper took no kernel step with a core spare: %+v, then %+v", before, after)
	}
	t.Logf("kernel steps: %d by the helper, %d inline; %d requests, %d hand-offs, %d parks; %d DPs solved, %d found by their player, %d abandoned",
		after.HelperSteps-before.HelperSteps, after.InlineSteps-before.InlineSteps,
		after.Requests-before.Requests, after.Handoffs-before.Handoffs, after.Parks-before.Parks,
		after.Solves-before.Solves, after.SolveHits-before.SolveHits, after.SolvesAbandoned-before.SolvesAbandoned)
	for i := range scenarios {
		name := scenarios[i].Name
		if alone[i].Err != nil || helped[i].Err != nil {
			t.Fatalf("%s: alone: %v, helped: %v", name, alone[i].Err, helped[i].Err)
		}
		if alone[i].Result.Report != helped[i].Result.Report {
			t.Errorf("%s: report diverges with the helper:\n%s\nvs\n%s", name, alone[i].Result.Report, helped[i].Result.Report)
			continue
		}
		if !sameResult(alone[i].Result, helped[i].Result) {
			t.Errorf("%s: results differ with the helper", name)
		}
	}
}
