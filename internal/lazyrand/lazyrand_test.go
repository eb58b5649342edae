package lazyrand

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds around math/rand's normalisation (mod 2³¹−1,
// negatives shifted up, 0 replaced).
var edgeSeeds = []int64{
	0, 1, -1, 2, mersenne - 1, mersenne, -mersenne, mersenne + 1, -mersenne - 1,
	1 << 31, -(1 << 31), 1 << 32, zeroSeed, -zeroSeed, checkSeed,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// testSeeds returns the edge seeds plus n drawn ones.
func testSeeds(n int) []int64 {
	pick := rand.New(rand.NewSource(19))
	seeds := append([]int64(nil), edgeSeeds...)
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	return seeds
}

// sameStream fails unless the next n draws of got and want agree.
func sameStream(t *testing.T, seed int64, got, want rand.Source64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		// Alternate the two methods: both advance the same state.
		if i%3 == 0 {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d, draw %d: Int63 = %d, math/rand %d", seed, i, g, w)
			}
			continue
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d, draw %d: Uint64 = %d, math/rand %d", seed, i, g, w)
		}
	}
}

func TestStreamMatchesMathRand(t *testing.T) {
	lengths := rand.New(rand.NewSource(7))
	for _, seed := range testSeeds(200) {
		// Up to and past two full turns of the state.
		n := lengths.Intn(3000)
		sameStream(t, seed, New(seed), rand.NewSource(seed).(rand.Source64), n)
	}
}

func TestSeedMidStreamAndTwice(t *testing.T) {
	seeds := testSeeds(40)
	got, want := New(5), rand.NewSource(5).(rand.Source64)
	for i, seed := range seeds {
		// Reseed after 0, a few, a partial turn's and more than a turn's
		// worth of draws, so stale words and stale have bits both occur.
		sameStream(t, seed, got, want, []int{0, 3, 40, 300, 700, 1300}[i%6])
		got.Seed(seed)
		want.Seed(seed)
		if i%4 == 0 {
			got.Seed(seed + 1)
			want.Seed(seed + 1)
		}
	}
	sameStream(t, 0, got, want, 2*length+5)
}

func TestRandMethodsMatch(t *testing.T) {
	for _, seed := range testSeeds(30) {
		got, want := rand.New(New(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d, round %d: Float64 = %v, math/rand %v", seed, i, g, w)
			}
			if g, w := got.Int63n(int64(i)*977+1), want.Int63n(int64(i)*977+1); g != w {
				t.Fatalf("seed %d, round %d: Int63n = %d, math/rand %d", seed, i, g, w)
			}
			if g, w := got.Intn(i+1), want.Intn(i+1); g != w {
				t.Fatalf("seed %d, round %d: Intn = %d, math/rand %d", seed, i, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, round %d: Uint64 = %d, math/rand %d", seed, i, g, w)
			}
		}
		g, w := got.Perm(50), want.Perm(50)
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("seed %d: Perm = %v, math/rand %v", seed, g, w)
			}
		}
		// rand.Rand.Seed reseeds the source in place.
		got.Seed(seed ^ 0x5a5a)
		want.Seed(seed ^ 0x5a5a)
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: after Rand.Seed Int63 = %d, math/rand %d", seed, g, w)
		}
	}
}

// TestMulmod checks the Mersenne fold against the division it replaces, at
// the operand extremes and on the chain itself.
func TestMulmod(t *testing.T) {
	operands := []uint64{1, 2, lehmer, zeroSeed, 1 << 30, mersenne - 2, mersenne - 1}
	for _, a := range operands {
		for _, b := range operands {
			if g, w := mulmod(a, b), a*b%mersenne; g != w {
				t.Fatalf("mulmod(%d, %d) = %d, want %d", a, b, g, w)
			}
		}
	}
	x := uint64(1)
	for k := 1; k <= discard+len(jump); k++ {
		x = x * lehmer % mersenne
		if k > discard && uint64(jump[k-discard-1]) != x {
			t.Fatalf("jump[%d] = %d, want 48271^%d = %d", k-discard-1, jump[k-discard-1], k, x)
		}
	}
}

func FuzzMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(2*length+3))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		draws := int(n) % (3 * length)
		got, want := New(seed^1), rand.NewSource(seed^1).(rand.Source64)
		sameStream(t, seed^1, got, want, draws/2)
		got.Seed(seed)
		want.Seed(seed)
		sameStream(t, seed, got, want, draws)
	})
}
