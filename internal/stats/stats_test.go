package stats

import (
	"math"
	"testing"
	"testing/quick"

	"compilegate/internal/catalog"
)

func testCol() *catalog.Column {
	return &catalog.Column{Name: "c", Distinct: 1000, Min: 0, Max: 999}
}

func TestEquiDepthCoversDomain(t *testing.T) {
	h := NewEquiDepth(testCol(), 100000, 32)
	if len(h.Bounds) != 32 {
		t.Fatalf("buckets = %d", len(h.Bounds))
	}
	if h.Bounds[len(h.Bounds)-1] != 999 {
		t.Fatalf("last bound = %d, want 999", h.Bounds[len(h.Bounds)-1])
	}
	if got := h.SelectivityRange(0, 999); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("full-range selectivity = %v, want 1", got)
	}
}

func TestSelectivityEq(t *testing.T) {
	h := NewEquiDepth(testCol(), 100000, 32)
	if got := h.SelectivityEq(5); math.Abs(got-0.001) > 1e-9 {
		t.Fatalf("eq selectivity = %v, want 1/1000", got)
	}
	if h.SelectivityEq(-1) != 0 || h.SelectivityEq(5000) != 0 {
		t.Fatal("out-of-domain eq selectivity not 0")
	}
}

func TestSelectivityRange(t *testing.T) {
	h := NewEquiDepth(testCol(), 100000, 10)
	half := h.SelectivityRange(0, 499)
	if math.Abs(half-0.5) > 0.02 {
		t.Fatalf("half-range selectivity = %v, want ~0.5", half)
	}
	if h.SelectivityRange(600, 400) != 0 {
		t.Fatal("inverted range selectivity not 0")
	}
	// Clamping outside the domain.
	if got := h.SelectivityRange(-100, 2000); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("clamped full range = %v", got)
	}
}

func TestBucketsNeverExceedDomain(t *testing.T) {
	col := &catalog.Column{Name: "c", Distinct: 3, Min: 0, Max: 2}
	h := NewEquiDepth(col, 1000, 32)
	if len(h.Bounds) > 3 {
		t.Fatalf("buckets = %d for domain of 3", len(h.Bounds))
	}
}

func TestEstimatorFKJoin(t *testing.T) {
	c := catalog.NewSales(catalog.SalesConfig{Scale: 0.01, ExtentBytes: 8 << 20})
	e := NewEstimator(c)
	prod := c.Table("dim_product")
	sel := e.JoinSelectivity("sales_fact", "dim_product")
	want := 1 / float64(prod.Rows)
	if math.Abs(sel-want)/want > 1e-9 {
		t.Fatalf("FK join selectivity = %v, want %v", sel, want)
	}
	// FK join of fact with dimension preserves fact cardinality.
	fact := c.Table("sales_fact")
	card := float64(fact.Rows) * float64(prod.Rows) * sel
	if math.Abs(card-float64(fact.Rows))/float64(fact.Rows) > 1e-6 {
		t.Fatalf("FK join cardinality = %v, want %v", card, float64(fact.Rows))
	}
}

func TestEstimatorNonFKJoin(t *testing.T) {
	c := catalog.NewSales(catalog.SalesConfig{Scale: 0.01, ExtentBytes: 8 << 20})
	e := NewEstimator(c)
	sel := e.JoinSelectivity("dim_product", "dim_customer")
	if sel <= 0 || sel >= 1 {
		t.Fatalf("non-FK selectivity = %v", sel)
	}
}

func TestPredSelectivity(t *testing.T) {
	c := catalog.NewSales(catalog.SalesConfig{Scale: 0.01, ExtentBytes: 8 << 20})
	e := NewEstimator(c)
	p := Pred{Table: "dim_date", Column: "year", Op: "=", Lo: 5}
	got := e.Selectivity(p)
	if math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("year=5 selectivity = %v, want 1/10", got)
	}
	unknown := Pred{Table: "nope", Column: "nope", Op: "=", Lo: 1}
	if e.Selectivity(unknown) != 0.1 {
		t.Fatal("unknown-column fallback not 0.1")
	}
	combined := e.CombinedSelectivity([]Pred{p, p})
	if math.Abs(combined-0.01) > 1e-9 {
		t.Fatalf("combined = %v, want 0.01", combined)
	}
}

func TestPredString(t *testing.T) {
	for _, p := range []Pred{
		{Table: "t", Column: "c", Op: "=", Lo: 1},
		{Table: "t", Column: "c", Op: "<=", Hi: 9},
		{Table: "t", Column: "c", Op: ">=", Lo: 2},
		{Table: "t", Column: "c", Op: "between", Lo: 1, Hi: 9},
	} {
		if p.String() == "" {
			t.Fatal("empty Pred.String")
		}
	}
}

func TestGroupByCap(t *testing.T) {
	c := catalog.NewSales(catalog.SalesConfig{Scale: 0.01, ExtentBytes: 8 << 20})
	e := NewEstimator(c)
	cols := []ColRef{{"dim_date", "year"}}
	if got := e.DistinctAfterGroupBy(5, cols); got != 5 {
		t.Fatalf("groupby estimate = %v exceeds input 5", got)
	}
	if got := e.DistinctAfterGroupBy(1e9, cols); got != 10 {
		t.Fatalf("groupby estimate = %v, want 10 (year distinct)", got)
	}
}

// Property: range selectivity is monotone in range width and always in
// [0, 1].
func TestQuickRangeSelectivityMonotone(t *testing.T) {
	h := NewEquiDepth(testCol(), 1_000_000, 16)
	f := func(aRaw, bRaw, cRaw uint16) bool {
		a := int64(aRaw) % 1000
		b := a + int64(bRaw)%(1000-a)
		cHi := b + int64(cRaw)%(1000-b)
		s1 := h.SelectivityRange(a, b)
		s2 := h.SelectivityRange(a, cHi)
		if s1 < 0 || s1 > 1 || s2 < 0 || s2 > 1 {
			return false
		}
		return s2 >= s1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: splitting a range at any midpoint conserves total selectivity.
func TestQuickRangeSelectivityAdditive(t *testing.T) {
	h := NewEquiDepth(testCol(), 1_000_000, 16)
	f := func(mRaw uint16) bool {
		m := int64(mRaw) % 999
		left := h.SelectivityRange(0, m)
		right := h.SelectivityRange(m+1, 999)
		return math.Abs(left+right-1.0) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
