package sqlparser

import (
	"math/rand"
	"testing"

	"compilegate/internal/plan"
	"compilegate/internal/workload"
)

// benchCorpus is the fixed statement set of the parser's layer benchmarks:
// 32 SALES draws, 8 TPC-H draws and the first 8 OLTP statements, from a
// pinned seed — the three shapes every registered scenario submits.
func benchCorpus() []string {
	rng := rand.New(rand.NewSource(14))
	sales, tpch := workload.NewSales(), workload.NewTPCH()
	var corpus []string
	for i := 0; i < 32; i++ {
		corpus = append(corpus, sales.Next(rng))
	}
	for i := 0; i < 8; i++ {
		corpus = append(corpus, tpch.Next(rng))
	}
	return append(corpus, workload.NewOLTP().Statements()[:8]...)
}

// BenchmarkParseInto parses the corpus into one recycled query shell, the
// way engine.Submit does. One op is one pass over the corpus.
func BenchmarkParseInto(b *testing.B) {
	corpus := benchCorpus()
	var q plan.Query
	b.ReportAllocs()
	for b.Loop() {
		for _, sql := range corpus {
			if err := ParseInto(&q, sql); err != nil {
				b.Fatalf("%v\n%s", err, sql)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(corpus)), "ns/stmt")
}

var benchFingerprint string

// BenchmarkFingerprint derives the plan-cache key of every corpus
// statement. One op is one pass over the corpus.
func BenchmarkFingerprint(b *testing.B) {
	corpus := benchCorpus()
	b.ReportAllocs()
	for b.Loop() {
		for _, sql := range corpus {
			benchFingerprint = Fingerprint(sql)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(corpus)), "ns/stmt")
}
