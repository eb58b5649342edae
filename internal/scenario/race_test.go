//go:build race

package scenario

// raceEnabled: the race detector slows a run about tenfold, so the
// whole-run equivalences sweep the registry on raceWindow and the
// TestClaim* views skip the full-window claims sweep.
const raceEnabled = true
