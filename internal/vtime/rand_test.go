package vtime

import (
	"math/rand"
	"testing"
	"unsafe"
)

// A population owns one generator per client, so its state must stay a
// cache line: math/rand's own seeded source is 4.9 KB.
func TestRandStateFitsACacheLine(t *testing.T) {
	if n := unsafe.Sizeof(pcgSource{}) + unsafe.Sizeof(rand.Rand{}); n > 64 {
		t.Fatalf("a generator holds %d bytes, want at most 64", n)
	}
}

// TestRandIsAFunctionOfTheSeed pins what executions rely on when they
// reseed a pooled generator: after Seed, mid-stream or not, the draws are
// those of a new generator — through every width rand.Rand reads the
// source at — and another seed gives other draws.
func TestRandIsAFunctionOfTheSeed(t *testing.T) {
	draw := func(r *rand.Rand) [4]uint64 {
		return [4]uint64{r.Uint64(), uint64(r.Int63()), uint64(r.Intn(1000)), uint64(r.Float64() * 1e9)}
	}
	for _, seed := range []int64{0, 1, -1, 7919, 1 << 40} {
		want := draw(NewRand(seed))
		used := NewRand(seed + 1)
		if draw(used) == want {
			t.Errorf("seeds %d and %d draw alike", seed, seed+1)
		}
		used.Seed(seed)
		if got := draw(used); got != want {
			t.Errorf("seed %d: reseeded %v, new %v", seed, got, want)
		}
	}
}
