// Package stats provides the statistics and cardinality-estimation layer
// the optimizer costs plans with: equi-depth histograms over synthetic
// column distributions, selectivity estimation for point/range predicates,
// and classic System-R style join cardinality estimates over the
// catalog's foreign-key graph.
package stats

import (
	"fmt"
	"math"

	"compilegate/internal/catalog"
)

// Histogram is an equi-depth histogram over an integer domain.
type Histogram struct {
	// Bounds[i] is the inclusive upper bound of bucket i; bucket i covers
	// (Bounds[i-1], Bounds[i]] with Bounds[-1] = Min-1.
	Bounds []int64
	// Rows per bucket (equi-depth: all roughly equal).
	RowsPerBucket float64
	Min           int64
	TotalRows     float64
	Distinct      float64
}

// NewEquiDepth synthesizes an equi-depth histogram for a column of a table
// with rows total rows, assuming values uniformly spread over
// [col.Min, col.Max] — the distribution the synthetic storage layer
// generates.
func NewEquiDepth(col *catalog.Column, rows int64, buckets int) *Histogram {
	if buckets < 1 {
		buckets = 1
	}
	domain := col.Max - col.Min + 1
	if domain < 1 {
		domain = 1
	}
	if int64(buckets) > domain {
		buckets = int(domain)
	}
	h := &Histogram{
		Min:           col.Min,
		TotalRows:     float64(rows),
		RowsPerBucket: float64(rows) / float64(buckets),
		Distinct:      float64(col.Distinct),
	}
	for i := 1; i <= buckets; i++ {
		h.Bounds = append(h.Bounds, col.Min+domain*int64(i)/int64(buckets)-1)
	}
	// The final bound must cover the max exactly.
	h.Bounds[len(h.Bounds)-1] = col.Max
	return h
}

// SelectivityEq estimates the fraction of rows with column = v.
func (h *Histogram) SelectivityEq(v int64) float64 {
	if v < h.Min || v > h.Bounds[len(h.Bounds)-1] {
		return 0
	}
	if h.Distinct <= 0 {
		return 1
	}
	return 1 / h.Distinct
}

// SelectivityRange estimates the fraction of rows with lo <= column <= hi
// by interpolating within buckets.
func (h *Histogram) SelectivityRange(lo, hi int64) float64 {
	max := h.Bounds[len(h.Bounds)-1]
	if hi < h.Min || lo > max || hi < lo {
		return 0
	}
	if lo < h.Min {
		lo = h.Min
	}
	if hi > max {
		hi = max
	}
	var rows float64
	prev := h.Min - 1
	for _, b := range h.Bounds {
		bucketLo, bucketHi := prev+1, b
		prev = b
		if hi < bucketLo || lo > bucketHi {
			continue
		}
		span := float64(bucketHi - bucketLo + 1)
		oLo, oHi := lo, hi
		if oLo < bucketLo {
			oLo = bucketLo
		}
		if oHi > bucketHi {
			oHi = bucketHi
		}
		rows += h.RowsPerBucket * float64(oHi-oLo+1) / span
	}
	if h.TotalRows == 0 {
		return 0
	}
	sel := rows / h.TotalRows
	if sel > 1 {
		sel = 1
	}
	return sel
}

// TableStats bundles per-column histograms for one table.
type TableStats struct {
	Table *catalog.Table
	Cols  map[string]*Histogram
}

// Estimator owns statistics for a catalog and answers cardinality
// questions.
type Estimator struct {
	cat    *catalog.Catalog
	tables map[string]*TableStats
}

// NewEstimator builds synthetic statistics (32-bucket equi-depth
// histograms on every column) for the whole catalog.
func NewEstimator(cat *catalog.Catalog) *Estimator {
	e := &Estimator{cat: cat, tables: make(map[string]*TableStats)}
	for _, t := range cat.Tables() {
		ts := &TableStats{Table: t, Cols: make(map[string]*Histogram)}
		for _, col := range t.Columns {
			ts.Cols[col.Name] = NewEquiDepth(col, t.Rows, 32)
		}
		e.tables[t.Name] = ts
	}
	return e
}

// Catalog returns the estimator's catalog.
func (e *Estimator) Catalog() *catalog.Catalog { return e.cat }

// Histogram returns the histogram for table.column, or nil.
func (e *Estimator) Histogram(table, column string) *Histogram {
	ts := e.tables[table]
	if ts == nil {
		return nil
	}
	return ts.Cols[column]
}

// Pred is a filter predicate on a single column.
type Pred struct {
	Table, Column string
	// Op is one of "=", "<=", ">=", "between".
	Op     string
	Lo, Hi int64
}

// String renders the predicate.
func (p Pred) String() string {
	switch p.Op {
	case "=":
		return fmt.Sprintf("%s.%s = %d", p.Table, p.Column, p.Lo)
	case "<=":
		return fmt.Sprintf("%s.%s <= %d", p.Table, p.Column, p.Hi)
	case ">=":
		return fmt.Sprintf("%s.%s >= %d", p.Table, p.Column, p.Lo)
	default:
		return fmt.Sprintf("%s.%s between %d and %d", p.Table, p.Column, p.Lo, p.Hi)
	}
}

// Selectivity estimates the fraction of the table's rows satisfying p.
// Unknown columns estimate a conservative 1/10.
func (e *Estimator) Selectivity(p Pred) float64 {
	h := e.Histogram(p.Table, p.Column)
	if h == nil {
		return 0.1
	}
	switch p.Op {
	case "=":
		return h.SelectivityEq(p.Lo)
	case "<=":
		return h.SelectivityRange(h.Min, p.Hi)
	case ">=":
		return h.SelectivityRange(p.Lo, h.Bounds[len(h.Bounds)-1])
	case "between":
		return h.SelectivityRange(p.Lo, p.Hi)
	default:
		return 0.1
	}
}

// CombinedSelectivity multiplies independent predicate selectivities for
// one table (attribute-value independence, the textbook assumption).
func (e *Estimator) CombinedSelectivity(preds []Pred) float64 {
	s := 1.0
	for _, p := range preds {
		s *= e.Selectivity(p)
	}
	return s
}

// JoinSelectivity estimates the selectivity of an equi-join between two
// tables. Foreign-key joins get the exact 1/parent-rows selectivity;
// other joins use 1/max(distinct(a), distinct(b)).
func (e *Estimator) JoinSelectivity(a, b string) float64 {
	if edge, ok := e.cat.FK(a, b); ok {
		parent := e.cat.Table(edge.Parent)
		if parent != nil && parent.Rows > 0 {
			return 1 / float64(parent.Rows)
		}
	}
	ta, tb := e.cat.Table(a), e.cat.Table(b)
	if ta == nil || tb == nil {
		return 0.01
	}
	da, db := float64(ta.Rows), float64(tb.Rows)
	m := math.Max(da, db)
	if m <= 0 {
		return 1
	}
	return 1 / m
}

// ColRef names a column of a table.
type ColRef struct {
	Table, Column string
}

// String renders the reference.
func (c ColRef) String() string { return c.Table + "." + c.Column }

// DistinctAfterGroupBy estimates the output cardinality of a GROUP BY on
// the given columns, capped at the input cardinality.
func (e *Estimator) DistinctAfterGroupBy(input float64, cols []ColRef) float64 {
	d := 1.0
	for _, c := range cols {
		h := e.Histogram(c.Table, c.Column)
		if h == nil {
			d *= 100
			continue
		}
		d *= h.Distinct
	}
	return math.Min(d, input)
}
