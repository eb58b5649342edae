package optimizer

// setJumps switches the player's batch-to-batch moves off (or back on) and
// returns the previous setting: off, a deferring player walks every segment
// of every span, as it did before the kernel recorded marks. Only the
// differential tests use it; they must not run in parallel with other tests.
func setJumps(on bool) (was bool) {
	was, jumps = jumps, on
	return was
}
