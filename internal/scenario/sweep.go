package scenario

import (
	"time"

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

// RunSweep executes the scenarios across vtime event-loop shards and
// returns their outcomes in input order. Scenario i runs on shard
// i%workers (static placement, no work stealing), each shard reusing
// one scheduler — run queue, timer wheel, task slab — across its whole
// job stream via Reset. Runs share no mutable state, and every run
// starts from the fresh-scheduler state, so a sweep returns results
// bit-identical to running every scenario serially at any worker count
// (pinned by the shard-invariance test), while the wall-clock cost
// drops to roughly the slowest shard's share.
//
// workers <= 0 uses GOMAXPROCS.
func RunSweep(scenarios []Scenario, workers int) []SweepResult {
	out := make([]SweepResult, len(scenarios))
	if len(scenarios) == 0 {
		return out
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	sh := vtime.NewShards(workers)
	defer sh.Close()
	sh.Run(len(scenarios), func(i int, sched *vtime.Scheduler) (time.Duration, error) {
		s := scenarios[i]
		r, err := s.RunOn(sched)
		out[i] = SweepResult{s, r, err, sched.Coroutines(), sched.CoroSwitches()}
		return sched.Now(), err
	})
	return out
}
