package harness

import "compilegate/internal/vtime"

// Seams is what a test substitutes on the run path: the client driver (the
// driver differential test), the snapshot (the fresh-snapshot differential
// test), a tap on every node (the window conservation test).
type Seams = seams

// RunOnWith is Scenario.RunOn with test's substitutions.
func RunOnWith(sched *vtime.Scheduler, s Scenario, test Seams) (*Result, error) {
	return s.run(sched, test)
}
