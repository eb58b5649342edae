package scenario

import (
	"testing"
	"time"
)

// TestSearchBeatsGridDifferential pins the successive-halving contract
// against the exhaustive grid on the full default calibration at a
// compressed window: the search must reach a fidelity score at least
// as good as the grid's best while spending at most a quarter of the
// grid's simulation budget. Both sides run the same seed population,
// so the scores are directly comparable.
func TestSearchBeatsGridDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full search-vs-grid differential skipped in short mode (nightly runs it)")
	}
	cal := DefaultCalibration()
	cal.Horizon, cal.Warmup = 60*time.Minute, 10*time.Minute
	seeds := Seeds(5)

	grid := cal
	grid.Seeds = seeds
	grep := grid.Run()
	gbest, gscore := grep.Best()

	srep := cal.Search(seeds)
	t.Logf("grid best %s score %.4f in %d runs; search:\n%s",
		gbest.Name, gscore, srep.GridRuns, srep)

	if srep.Score > gscore+1e-9 {
		t.Fatalf("search winner %s score %.4f worse than grid best %s score %.4f",
			srep.Winner.Name, srep.Score, gbest.Name, gscore)
	}
	if 4*srep.Runs > srep.GridRuns {
		t.Fatalf("search spent %d runs, over a quarter of the grid's %d",
			srep.Runs, srep.GridRuns)
	}
	if srep.Winner.Name == gbest.Name {
		t.Logf("winner agreement: search and grid both selected %s", srep.Winner.Name)
	} else {
		t.Logf("winner disagreement at equal score: search %s (%.4f) vs grid %s (%.4f)",
			srep.Winner.Name, srep.Score, gbest.Name, gscore)
	}
}

// TestSearchCacheNoRecompute verifies the cell cache: the total run
// count must equal twice the number of distinct (knob, clients, seed)
// cells the rung schedule touched — re-evaluating a promoted survivor
// on a wider budget only pays for the new cells.
func TestSearchCacheNoRecompute(t *testing.T) {
	cal := DefaultCalibration()
	cal.Horizon, cal.Warmup = 20*time.Minute, 5*time.Minute
	srep := cal.Search(Seeds(2))

	var rungRuns int
	for _, rung := range srep.Rungs {
		rungRuns += rung.NewRuns
	}
	if rungRuns != srep.Runs {
		t.Fatalf("rung NewRuns sum %d != total Runs %d", rungRuns, srep.Runs)
	}
	// Every evaluated cell appears in Points exactly once, and each cell
	// cost one throttled + one baseline simulation.
	if 2*len(srep.Points) != srep.Runs {
		t.Fatalf("%d evaluated cells but %d runs (want runs = 2 x cells)", len(srep.Points), srep.Runs)
	}
}

// TestSearchDeterministic pins that two searches over the same
// calibration produce identical schedules and winners.
func TestSearchDeterministic(t *testing.T) {
	cal := DefaultCalibration()
	cal.Horizon, cal.Warmup = 20*time.Minute, 5*time.Minute
	a := cal.Search(Seeds(2))
	b := cal.Search(Seeds(2))
	if a.String() != b.String() {
		t.Fatalf("search not deterministic:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}
