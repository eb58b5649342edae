// Package lazyrand is math/rand's seeded generator with O(1) seeding: a
// rand.Source64 whose stream equals rand.NewSource(seed)'s bit for bit,
// but whose Seed costs ten word stores instead of 1 841 Lehmer steps.
//
// math/rand's source is an additive lagged-Fibonacci generator over 607
// words. Seeding it runs one Lehmer chain x ← 48271·x mod (2³¹−1) from the
// normalised seed, discards 20 values, and packs each further three into
// one state word XORed with a table constant — so state word i is a
// function of the seed alone: three modular multiplications of the seed by
// fixed powers of 48271. A Source computes a word the first time a draw
// reads it. A simulation that seeds a source to draw forty numbers (one
// execution's scan lists), or seeds a thousand that each draw a few
// hundred (a client population), pays for the words it touches.
//
// The table constants are not copied from the standard library: init
// recovers them from one full turn of rand.NewSource(1) and checks the
// result against a second seed, so a standard library whose generator
// changed stops the program instead of moving every simulated number
// (DESIGN.md, "Exact O(1) seeding").
package lazyrand

import "math/rand"

const (
	length   = 607       // state words
	tapLag   = 273       // distance from feed back to tap
	mersenne = 1<<31 - 1 // the Lehmer chain's modulus
	lehmer   = 48271     // and its multiplier
	discard  = 20        // chain values dropped before the first state word
	zeroSeed = 89482311  // what math/rand seeds with when the seed is ≡ 0
)

var (
	// jump[3i+j] is 48271^(discard+1+3i+j) mod mersenne: the multiplier
	// that takes the seed to the j-th of state word i's three chain values.
	jump [3 * length]uint32
	// cooked[i] is the constant math/rand XORs into state word i.
	cooked [length]uint64
)

// mulmod returns a·b mod 2³¹−1 for a, b below 2³¹: 2³¹ ≡ 1, so the high and
// low 31-bit halves of the product add, twice, and no division is needed.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&mersenne + p>>31
	p = p&mersenne + p>>31
	if p >= mersenne {
		p -= mersenne
	}
	return p
}

// Source is the generator. The zero value is not seeded; use New.
type Source struct {
	vec       [length]uint64
	have      [(length + 63) / 64]uint64 // bit i: vec[i] holds word i
	seed      uint64                     // normalised: in [1, mersenne)
	tap, feed int
	cold      int // words not yet computed; 0 after one full turn, and then a draw checks no bit
}

// New returns a source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	seed %= mersenne
	if seed < 0 {
		seed += mersenne
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.tap, s.feed = 0, length-tapLag
	s.have = [len(s.have)]uint64{}
	s.cold = length
}

// word returns state word i as seeding leaves it.
func (s *Source) word(i int) uint64 {
	j := jump[3*i : 3*i+3]
	x := mulmod(s.seed, uint64(j[0]))<<40 ^ mulmod(s.seed, uint64(j[1]))<<20 ^ mulmod(s.seed, uint64(j[2]))
	return x ^ cooked[i]
}

// warm computes vec[i] unless a draw already read or wrote it.
func (s *Source) warm(i int) {
	if bit := uint64(1) << (i & 63); s.have[i>>6]&bit == 0 {
		s.have[i>>6] |= bit
		s.vec[i] = s.word(i)
		s.cold--
	}
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += length
	}
	if s.feed--; s.feed < 0 {
		s.feed += length
	}
	if s.cold > 0 {
		s.warm(s.feed)
		s.warm(s.tap)
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next draw as a non-negative 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// checkSeed is the seed init compares against the standard library after
// recovering the constants from seed 1; negative, so that normalisation is
// checked too.
const checkSeed = -20071007

func init() {
	p := uint64(1)
	for k := 1; k <= discard+len(jump); k++ {
		if p = mulmod(p, lehmer); k > discard {
			jump[k-discard-1] = uint32(p)
		}
	}

	// One full turn of the reference from seed 1. Draw j adds word
	// tap(j) = length−j into word feed(j) = length−tapLag−j (mod length) and
	// returns the sum; feed visits every word once, so word feed(j) is still
	// as seeded when draw j reads it, and word tap(j) is draw j−tapLag's
	// output when that draw exists, as seeded otherwise. Undoing the
	// additions from the last draw back therefore yields the seeded state:
	// the seeded words a draw j ≤ tapLag needs were fed by draws after it.
	ref := rand.NewSource(1).(rand.Source64)
	var out [length + 1]uint64
	for j := 1; j <= length; j++ {
		out[j] = ref.Uint64()
	}
	var seeded [length]uint64
	for j := length; j >= 1; j-- {
		added := seeded[length-j]
		if j > tapLag {
			added = out[j-tapLag]
		}
		seeded[(2*length-tapLag-j)%length] = out[j] - added
	}
	one := Source{seed: 1} // cooked is still zero: word(i) is the bare chain
	for i := range cooked {
		cooked[i] = seeded[i] ^ one.word(i)
	}

	got, want := New(checkSeed), rand.NewSource(checkSeed).(rand.Source64)
	for i := 0; i < 2*length; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			panic("lazyrand: math/rand's seeded generator is not the one this package reproduces")
		}
	}
}
