//go:build race

package engine

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// items on purpose, so pooled state is re-allocated at random.
const raceEnabled = true
