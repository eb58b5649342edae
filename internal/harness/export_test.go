package harness

// RunOnWith is RunOn with the client population spawned by drive instead
// of workload.Run, for the driver differential test.
var RunOnWith = runOn
