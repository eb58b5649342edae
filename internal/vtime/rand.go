package vtime

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// pcgSource is the simulation's random source: math/rand/v2's PCG — 16
// bytes of state, seeded in two stores, a stream the standard library
// documents as fixed — behind math/rand's Source64, because *rand.Rand is
// what generators, scan patterns and backoff jitter draw from. Uint64 is
// the embedded generator's.
type pcgSource struct{ randv2.PCG }

// Seed puts seed in both state words, the low one spread by the 64-bit
// golden ratio: populations seed their members a few thousand apart, and
// states that differ in the high word alone would share the low word's
// sequence for ever.
func (s *pcgSource) Seed(seed int64) {
	s.PCG.Seed(uint64(seed), uint64(seed)*0x9e3779b97f4a7c15)
}

func (s *pcgSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// NewRand returns a generator whose every draw is a function of seed alone.
// All of a run's randomness comes from these: one per client, one per
// execution that draws its scan lists, one per fault plan.
func NewRand(seed int64) *rand.Rand {
	s := new(pcgSource)
	s.Seed(seed)
	return rand.New(s)
}
