package workload

import (
	"fmt"

	"compilegate/internal/catalog"
)

// DefaultExtentBytes is the extent size every experiment surface builds
// its catalogs with; the buffer pool takes its frame size from the
// catalog.
const DefaultExtentBytes = 8 << 20

// Spec names a workload declaratively: which query generator to run and
// which catalog shape it runs against. It is the workload half of a
// scenario description — the harness resolves a Spec into a concrete
// Generator and Catalog instead of every experiment hand-wiring them.
type Spec string

// The benchmark workloads.
const (
	// SpecSales is the paper's §5.1 ad-hoc DSS workload: 10 complex
	// join/aggregate templates over the SALES data mart, uniquified to
	// defeat the plan cache.
	SpecSales Spec = "sales"
	// SpecTPCH is the TPC-H-like comparison workload from §5.1.
	SpecTPCH Spec = "tpch"
	// SpecOLTP is a point-query workload of repeated statements that hit
	// the plan cache and bypass the monitor ladder.
	SpecOLTP Spec = "oltp"
	// SpecOLTPWide is SpecOLTP with a much wider closed statement set
	// (WideStatementCount distinct texts): a statement population large
	// enough that *where* a statement lands matters — the cluster
	// affinity-routing experiments measure plan-cache hit rates on it.
	SpecOLTPWide Spec = "oltp-wide"
	// SpecMix interleaves OLTP and SALES 3:1 — the paper's
	// "administrator can still run diagnostics under overload" setting.
	SpecMix Spec = "mix"
)

// ParseSpec validates a workload name from a flag or config file.
func ParseSpec(s string) (Spec, error) {
	sp := Spec(s)
	if sp == "" {
		return SpecSales, nil
	}
	if !sp.Valid() {
		return "", fmt.Errorf("workload: unknown spec %q (want sales|tpch|oltp|oltp-wide|mix)", s)
	}
	return sp, nil
}

// Valid reports whether the spec names a known workload. The empty spec
// is valid and means SpecSales, so zero-valued options keep working.
func (sp Spec) Valid() bool {
	switch sp {
	case "", SpecSales, SpecTPCH, SpecOLTP, SpecOLTPWide, SpecMix:
		return true
	}
	return false
}

func (sp Spec) orDefault() Spec {
	if sp == "" {
		return SpecSales
	}
	return sp
}

// String returns the canonical workload name.
func (sp Spec) String() string { return string(sp.orDefault()) }

// Generator builds the query generator for the spec.
func (sp Spec) Generator() Generator {
	switch sp.orDefault() {
	case SpecTPCH:
		return NewTPCH()
	case SpecOLTP:
		return NewOLTP()
	case SpecOLTPWide:
		return NewOLTPWide()
	case SpecMix:
		return NewMix([]Generator{NewSales(), NewOLTP()}, []int{1, 3})
	default:
		return NewSales()
	}
}

// NewCatalog builds the catalog the spec's queries run against. scale is
// the SALES scale factor; the TPC-H-like catalog keeps the §5.1 relative
// sizing (two orders of magnitude smaller than the data mart).
func (sp Spec) NewCatalog(scale float64, extentBytes int64) *catalog.Catalog {
	switch sp.orDefault() {
	case SpecTPCH:
		return catalog.NewTPCHLike(scale*0.01, extentBytes)
	default:
		return catalog.NewSales(catalog.SalesConfig{Scale: scale, ExtentBytes: extentBytes})
	}
}

// StaticStatements returns the spec's closed statement set: every query
// text the workload can produce that recurs across submissions (the
// OLTP point-query pool). Uniquified workloads (SALES, TPC-H) have none
// and return nil. Run snapshots pre-fingerprint these once per shape so
// no run parses or hashes them again.
func (sp Spec) StaticStatements() []string {
	switch sp.orDefault() {
	case SpecOLTP, SpecMix:
		return NewOLTP().Statements()
	case SpecOLTPWide:
		return NewOLTPWide().Statements()
	default:
		return nil
	}
}
