package harness

import (
	"testing"
	"time"
)

// TestSmokeShortRun exercises the full stack end to end on a short
// horizon and prints the dynamics for calibration.
func TestSmokeShortRun(t *testing.T) {
	o := defaults(30).WithWindow(40*time.Minute, 10*time.Minute)
	res, err := o.Run()
	if err != nil {
		t.Fatal(err)
	}
	dump := func(name string, r *Result) {
		t.Logf("%s: completed=%d errors=%v hit-rate=%.2f compile-mem mean=%dMB max=%dMB p50 compile=%v exec=%v",
			name, r.Completed, r.ErrorsByKind, r.BufferPoolHitRate,
			r.CompileMemMean>>20, r.CompileMemMax>>20, r.CompileP50, r.ExecP50)
		t.Logf("%s mid-run: pool=%dMB compile=%dMB exec=%dMB active-compiles=%.1f gw-timeouts=%d best-effort=%d",
			name, r.AvgPoolBytes>>20, r.AvgCompileBytes>>20, r.AvgExecBytes>>20,
			r.AvgActiveCompiles, r.GatewayTimeouts, r.BestEffortPlans)
	}
	dump("throttled", res)
	t.Logf("report:\n%s", res.Report)

	o.Throttled = false
	base, err := o.Run()
	if err != nil {
		t.Fatal(err)
	}
	dump("baseline", base)
	_, summary := Compare(res, base)
	t.Log(summary)
	if res.Completed == 0 {
		t.Fatal("no queries completed")
	}
}
