package memo

import "testing"

// BenchmarkAddJoinInto measures the dedup probe on the shape exploration
// gives it: every contiguous-interval group of a 12-table chain, with
// every (split, order) expression of each group offered twice — the first
// pass mostly inserts, the second is all duplicates, the 50% duplicate
// rate measured on the DSS workloads. One op is one pooled-memo round:
// Reset, build the 78 groups, 1144 probes.
func BenchmarkAddJoinInto(b *testing.B) {
	const n = 12
	m := New()
	var iv [n][n]GroupID
	probes := 0
	b.ReportAllocs()
	for b.Loop() {
		m.Reset()
		for i := range iv {
			iv[i][i] = m.AddLeaf(i, 0)
		}
		for span := 1; span < n; span++ {
			for i := 0; i+span < n; i++ {
				iv[i][i+span], _ = m.AddJoin(iv[i][i], iv[i+1][i+span])
			}
		}
		probes = 0
		for pass := 0; pass < 2; pass++ {
			for span := 1; span < n; span++ {
				for i := 0; i+span < n; i++ {
					g := iv[i][i+span]
					for k := i; k < i+span; k++ {
						l, r := iv[i][k], iv[k+1][i+span]
						m.AddJoinInto(g, l, r)
						m.AddJoinInto(g, r, l)
						probes += 2
					}
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes), "ns/probe")
}
