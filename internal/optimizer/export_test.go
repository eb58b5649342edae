package optimizer

import "compilegate/internal/plan"

// estimateInitialCost returns the cost of q's unexplored left-deep plan: what
// dynamic optimization keys the budget of q's compilations from.
func (o *Optimizer) estimateInitialCost(q *plan.Query) (float64, error) {
	r, err := o.open(q)
	if err != nil {
		return 0, err
	}
	defer o.putRun(r)
	return r.initial.Cost(), nil
}

// setJumps switches the player's batch-to-batch moves off (or back on) and
// returns the previous setting: off, a deferring player walks every segment
// of every span, as it did before the kernel recorded marks. Only the
// differential tests use it; they must not run in parallel with other tests.
func setJumps(on bool) (was bool) {
	was, jumps = jumps, on
	return was
}

// setHelper switches the kernel helper off (or back on, where a core is
// spare) and returns the previous setting. Compilations under way keep the
// setting they started with, and the helper still serves what was queued. Only
// the differential and stress tests use it; they must not run in parallel
// with other tests.
func setHelper(on bool) (was bool) {
	was, helps = helps, on
	return was
}
