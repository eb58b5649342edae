// Package scenario owns what is run: the registry holding every paper
// experiment by name, so commands, examples and benchmarks resolve
// configurations instead of hand-wiring them; RunSweep, which executes
// independent scenarios concurrently, each on a fresh scheduler of its
// own (so per-run determinism is untouched); multi-seed replications with
// claim bands; and the calibrated pressure knobs with their ±10% twins.
// How a scenario is declared, validated and executed belongs to package
// harness: Scenario is its description type under this package's name.
package scenario

import "compilegate/internal/harness"

// Scenario declaratively describes one experiment — catalog scale,
// workload spec, client population, measurement window, server-config
// deltas, fault plan, fleet shape. See harness.Scenario for the fields
// and the Validate / Run / RunOn / Baseline / With* methods.
type Scenario = harness.Scenario
