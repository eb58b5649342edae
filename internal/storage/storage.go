// Package storage maps catalog tables onto a flat extent address space and
// generates the access patterns the executor drives through the buffer
// pool.
//
// Access patterns are what make the buffer pool matter: repeated ad-hoc
// DSS queries hit overlapping "hot" regions (recent dates, popular
// dimensions), so a large pool converts most extent reads into memory
// hits, while a squeezed pool degrades every query into physical I/O —
// the mechanism behind the paper's throughput collapse.
package storage

import (
	"fmt"
	"math/rand"

	"compilegate/internal/catalog"
)

// ExtentKey identifies one extent globally: table ID in the high bits,
// extent index within the table in the low bits.
type ExtentKey uint64

// NewExtentKey packs a table ID and extent index.
func NewExtentKey(tableID int, extent int64) ExtentKey {
	return ExtentKey(uint64(tableID)<<40 | uint64(extent))
}

// TableID unpacks the table ID.
func (k ExtentKey) TableID() int { return int(uint64(k) >> 40) }

// Extent unpacks the extent index.
func (k ExtentKey) Extent() int64 { return int64(uint64(k) & (1<<40 - 1)) }

// Layout binds a catalog to the extent address space.
type Layout struct {
	cat     *catalog.Catalog
	extents []int64 // by table ID
}

// NewLayout builds the layout for a catalog.
func NewLayout(cat *catalog.Catalog) *Layout {
	l := &Layout{cat: cat, extents: make([]int64, len(cat.Tables()))}
	for _, t := range cat.Tables() {
		l.extents[t.ID] = cat.Extents(t)
	}
	return l
}

// Catalog returns the layout's catalog.
func (l *Layout) Catalog() *catalog.Catalog { return l.cat }

// Table resolves a table name, for callers that have no resolved table. An
// unknown name is a bug in the caller and panics.
func (l *Layout) Table(name string) *catalog.Table {
	t := l.cat.Table(name)
	if t == nil {
		panic("storage: unknown table " + name)
	}
	return t
}

// Extents returns the extent count of a table.
func (l *Layout) Extents(table string) int64 { return l.extents[l.Table(table).ID] }

// ExtentCounts returns every table's extent count, indexed by table ID.
// The slice is the layout's own: read-only.
func (l *Layout) ExtentCounts() []int64 { return l.extents }

// TotalExtents returns the database's extent count.
func (l *Layout) TotalExtents() int64 {
	var n int64
	for _, v := range l.extents {
		n += v
	}
	return n
}

// Pattern describes how scans pick extents.
type Pattern struct {
	// HotFraction of each table's extents forms the hot region (recent
	// data); HotProbability of accesses land there.
	HotFraction    float64
	HotProbability float64
}

// DefaultPattern matches DESIGN.md's calibration: 10% of each table is
// hot (recent dates, popular dimensions) and draws 85% of the accesses,
// so a healthy buffer pool converts most reads into hits while a squeezed
// one degrades to physical I/O.
func DefaultPattern() Pattern {
	return Pattern{HotFraction: 0.10, HotProbability: 0.85}
}

// ScanLenOf returns how many extents a scan of the given fraction of t
// touches: the length of the list ScanInto appends for it.
func (l *Layout) ScanLenOf(t *catalog.Table, fraction float64) int {
	n, _ := scanLen(l.extents[t.ID], fraction)
	return int(n)
}

// scanLen sizes a scan of a table of total extents: a fraction of 0.999 or
// more is a full scan (every extent once, sequential), anything less reads
// that share of the table, at least one extent.
func scanLen(total int64, fraction float64) (n int64, full bool) {
	if fraction >= 0.999 {
		return total, true
	}
	return max(int64(float64(total)*fraction), 1), false
}

// ScanInto appends to buf the extents a scan of the given fraction of t
// touches, skewed by the pattern, so that one keys buffer serves scan
// after scan. The rng makes different query instances touch different
// (but overlapping, via the hot region) extent sets deterministically per
// seed.
func (l *Layout) ScanInto(buf []ExtentKey, t *catalog.Table, fraction float64, p Pattern, rng *rand.Rand) []ExtentKey {
	total := l.extents[t.ID]
	n, full := scanLen(total, fraction)
	hot := int64(float64(total) * p.HotFraction)
	if hot < 1 {
		hot = 1
	}
	if full {
		for i := int64(0); i < total; i++ {
			buf = append(buf, NewExtentKey(t.ID, i))
		}
		return buf
	}
	for i := int64(0); i < n; i++ {
		var ext int64
		if rng.Float64() < p.HotProbability {
			ext = rng.Int63n(hot)
		} else {
			ext = rng.Int63n(total)
		}
		buf = append(buf, NewExtentKey(t.ID, ext))
	}
	return buf
}

// String summarizes the layout.
func (l *Layout) String() string {
	return fmt.Sprintf("layout: %d tables, %d extents", len(l.extents), l.TotalExtents())
}
