package lazyrand

import (
	"fmt"
	"math/rand"
	"testing"
)

var sink uint64

// BenchmarkSeedThenDraw is the shape both users have: seed, then draw a
// few (a point query's scans), forty (a SALES execution), more than one
// full turn of the state (a client over a run) or many turns (the steady
// state, where a draw must cost what math/rand's does), against math/rand's
// own source reseeded in place.
func BenchmarkSeedThenDraw(b *testing.B) {
	for _, draws := range []int{2, 40, 700, 20000} {
		for _, src := range []struct {
			name string
			s    rand.Source64
		}{{"lazy", New(1)}, {"mathrand", rand.NewSource(1).(rand.Source64)}} {
			b.Run(fmt.Sprintf("%d/%s", draws, src.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					src.s.Seed(int64(i))
					for d := 0; d < draws; d++ {
						sink += src.s.Uint64()
					}
				}
			})
		}
	}
}
