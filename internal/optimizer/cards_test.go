package optimizer

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"compilegate/internal/memo"
)

// cardOfSet is the scalar cardinality estimate the kernel ran once per new
// group until cards4 replaced it: one chain of multiplications that skips —
// with a branch — the factors that do not apply. It is kept as the reference
// cards4 must equal bit for bit.
func (r *run) cardOfSet(set uint64) float64 {
	card := 1.0
	for _, f := range r.factors {
		if set&f.mask == f.mask {
			card *= f.by[1]
		}
	}
	if card < 1 {
		card = 1
	}
	return card
}

// checkCards4 compares one cards4 call with four cardOfSet calls and returns
// what cards4 said.
func checkCards4(t *testing.T, r *run, sets [4]uint64) [4]float64 {
	t.Helper()
	got := r.cards4(sets)
	for lane, set := range sets {
		want := r.cardOfSet(set)
		if math.Float64bits(got[lane]) != math.Float64bits(want) {
			t.Fatalf("lane %d, set %#x over %d factors: cards4 = %v (%#x), cardOfSet = %v (%#x)",
				lane, set, len(r.factors), got[lane], math.Float64bits(got[lane]), want, math.Float64bits(want))
		}
	}
	return got
}

// TestCards4MatchesScalarOnCorpus explores every statement of the trajectory
// corpus to the end of its budget and checks the filled cardinality of every
// group of the memo — and the greedy scan's candidate estimates, which went
// into the initial plan the golden file pins — against the scalar reference.
func TestCards4MatchesScalarOnCorpus(t *testing.T) {
	groups := 0
	for _, s := range trajectoryCorpus(t) {
		x := s.opt.Explore(s.q)
		if _, err := x.Optimize(Hooks{}); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		r := x.r
		// Extraction filled the prefix the compilation was shown; fill the
		// rest, from where it stopped (a count that is not a multiple of 4).
		shown := len(r.cards)
		r.fillCards(r.m.Groups(), false)
		if len(r.cards) != r.m.Groups() || shown == 0 {
			t.Fatalf("%s: %d cardinalities for %d groups, %d after extraction", s.name, len(r.cards), r.m.Groups(), shown)
		}
		for g, got := range r.cards {
			want := r.cardOfSet(r.m.Group(memo.GroupID(g)).Set)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s group %d: filled %v, cardOfSet %v", s.name, g, got, want)
			}
		}
		groups += len(r.cards)
		x.Release()
	}
	t.Logf("%d groups compared", groups)
}

// TestCards4MatchesScalarOnRandomTables drives cards4 over factor tables no
// catalog produces: zero selectivities, products that underflow through the
// denormals to zero before the clamp lifts them to 1, infinite
// cardinalities (and the NaN that infinity times zero leaves), table IDs up
// to 63; with one to four lanes occupied and the same set in several lanes.
func TestCards4MatchesScalarOnRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	value := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return math.Inf(1)
		case 2:
			return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000)) // denormal
		case 3:
			return math.Ldexp(rng.Float64(), -rng.Intn(1000)) // drives products below the clamp
		case 4:
			return math.Ldexp(1+rng.Float64(), rng.Intn(900))
		case 5:
			return 1
		default:
			return math.Exp(rng.NormFloat64() * 8)
		}
	}
	var clamped, infinite, nan, finite int
	for round := 0; round < 2000; round++ {
		var tables uint64
		for n := 1 + rng.Intn(24); n > 0; n-- {
			tables |= 1 << uint(rng.Intn(64))
		}
		if round%4 == 0 {
			tables |= 1<<63 | 1
		}
		r := &run{}
		var ids []int
		for s := tables; s != 0; s &= s - 1 {
			id := bits.TrailingZeros64(s)
			ids = append(ids, id)
			r.factors = append(r.factors, factor{mask: 1 << uint(id), by: [2]float64{1, value()}})
		}
		for n := rng.Intn(2 * len(ids)); n > 0 && len(ids) > 1; n-- {
			a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if a != b {
				r.factors = append(r.factors, factor{mask: 1<<uint(a) | 1<<uint(b), by: [2]float64{1, value()}})
			}
		}
		subset := func() uint64 {
			switch rng.Intn(4) {
			case 0:
				return tables
			case 1:
				return 1 << uint(ids[rng.Intn(len(ids))])
			default:
				return tables & rng.Uint64()
			}
		}
		for call := 0; call < 8; call++ {
			var sets [4]uint64
			occupied := 1 + rng.Intn(4)
			for lane := 0; lane < occupied; lane++ {
				if lane > 0 && rng.Intn(3) == 0 {
					sets[lane] = sets[rng.Intn(lane)] // a duplicate
				} else {
					sets[lane] = subset()
				}
			}
			got := checkCards4(t, r, sets)
			for _, c := range got[:occupied] {
				switch {
				case c == 1:
					clamped++
				case math.IsInf(c, 1):
					infinite++
				case math.IsNaN(c):
					nan++
				default:
					finite++
				}
			}
		}
	}
	if clamped == 0 || infinite == 0 || nan == 0 || finite == 0 {
		t.Errorf("results: %d clamped to 1, %d infinite, %d NaN, %d other; the tables must reach all four", clamped, infinite, nan, finite)
	}
	t.Logf("results: %d clamped to 1, %d infinite, %d NaN, %d other", clamped, infinite, nan, finite)
}
