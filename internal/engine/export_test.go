package engine

// SetSpanCharging switches span charging off (or back on) for every server
// that has not compiled yet, and returns the previous setting. Only the
// whole-run differential test uses it; it must not run in parallel with
// other tests.
func SetSpanCharging(on bool) (was bool) {
	was, spanCharging = spanCharging, on
	return was
}

// SetStaticPrepared switches off (or back on) the reuse of a closed-set
// statement's scan lists, the only lists any execution replays, and
// returns the previous setting. Only the whole-run differential test uses it; it must
// not run in parallel with other tests.
func SetStaticPrepared(on bool) (was bool) {
	was, staticPrepared = staticPrepared, on
	return was
}

// SetRetainedLimit changes how many failed compilations' attempts a server
// keeps for their resubmissions (retainedCap unless a test says otherwise),
// and returns the previous setting. Only the whole-run differential test
// uses it; it must not run in parallel with other tests.
func SetRetainedLimit(n int) (was int) {
	was, retainedLimit = retainedLimit, n
	return was
}
