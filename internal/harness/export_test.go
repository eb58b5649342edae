package harness

import "compilegate/internal/vtime"

// RunOnWith is Scenario.RunOn with the client population spawned by drive
// instead of workload.Run (the driver differential test) and, when snap is
// not nil, with that snapshot in place of the process-wide shared one (the
// fresh-snapshot differential test).
func RunOnWith(sched *vtime.Scheduler, s Scenario, drive loadDriver, snap *Snapshot) (*Result, error) {
	return s.run(sched, drive, snap)
}
