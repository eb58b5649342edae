package scenario

import (
	"runtime"
	"sync"
	"sync/atomic"

	"compilegate/internal/harness"
	"compilegate/internal/vtime"
)

// SweepResult is one scenario's outcome within a sweep.
type SweepResult struct {
	Scenario Scenario
	Result   *harness.Result
	Err      error
	// Coroutines and CoroSwitches are its scheduler's counts (vtime).
	Coroutines, CoroSwitches uint64
}

// RunSweep executes the scenarios concurrently and returns their outcomes
// in input order. min(workers, len(scenarios)) goroutines each take the
// next scenario and run it on a fresh scheduler of its own. Runs share no
// mutable state, so a sweep's results are identical to running every
// scenario serially, at any worker count.
//
// workers <= 0 uses GOMAXPROCS.
func RunSweep(scenarios []Scenario, workers int) []SweepResult {
	out := make([]SweepResult, len(scenarios))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(scenarios)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(scenarios); i = int(next.Add(1)) - 1 {
				s, sched := scenarios[i], vtime.NewScheduler()
				r, err := s.RunOn(sched)
				out[i] = SweepResult{s, r, err, sched.Coroutines(), sched.CoroSwitches()}
			}
		}()
	}
	wg.Wait()
	return out
}
