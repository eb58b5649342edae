// Package catalog models the database schema the simulated engine runs
// against: tables, columns, indexes, and the foreign-key join graph used
// by the optimizer for cardinality estimation.
//
// The SALES catalog reproduces the shape of the paper's customer data mart:
// a star schema whose largest fact table holds over 400 million rows in a
// 524 GB database, surrounded by smaller dimension tables.
package catalog

import (
	"fmt"
	"sort"
)

// Column describes one table column.
type Column struct {
	Name     string
	Distinct int64 // number of distinct values
	Min, Max int64 // value domain (inclusive)
}

// Index describes a secondary index.
type Index struct {
	Name    string
	Columns []string
}

// Table describes one table.
type Table struct {
	ID       int // dense identifier; also the bit used in join sets
	Name     string
	Rows     int64
	RowBytes int64
	Columns  []*Column
	Indexes  []*Index
}

// Bytes returns the table's total data size.
func (t *Table) Bytes() int64 { return t.Rows * t.RowBytes }

// Column returns the named column or nil.
func (t *Table) Column(name string) *Column {
	for _, c := range t.Columns {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// HasIndexOn reports whether some index's leading column is name.
func (t *Table) HasIndexOn(name string) bool {
	for _, ix := range t.Indexes {
		if len(ix.Columns) > 0 && ix.Columns[0] == name {
			return true
		}
	}
	return false
}

// FKEdge is one foreign-key relationship in the join graph: every row of
// Child joins to exactly one row of Parent through the named columns.
type FKEdge struct {
	Child, Parent           string
	ChildColumn, ParentName string
}

// Catalog is the full schema.
type Catalog struct {
	ExtentBytes int64 // unit of storage & buffer-pool management
	tables      map[string]*Table
	order       []*Table
	fks         []FKEdge
	// fkOf indexes fks by unordered table-ID pair (lo*64+hi): one plus the
	// position of the first edge registered between the two tables, zero
	// for none. AddFK maintains it, so the finished catalog is read-only.
	fkOf [64 * 64]int16
}

// New creates an empty catalog using the given extent size.
func New(extentBytes int64) *Catalog {
	if extentBytes <= 0 {
		panic("catalog: non-positive extent size")
	}
	return &Catalog{ExtentBytes: extentBytes, tables: make(map[string]*Table)}
}

// AddTable registers a table and assigns its ID. It panics on duplicates
// (schema construction bugs should fail loudly).
func (c *Catalog) AddTable(t *Table) *Table {
	if _, dup := c.tables[t.Name]; dup {
		panic("catalog: duplicate table " + t.Name)
	}
	t.ID = len(c.order)
	if t.ID >= 64 {
		panic("catalog: more than 64 tables not supported (join bitsets)")
	}
	c.tables[t.Name] = t
	c.order = append(c.order, t)
	return t
}

// AddFK registers a foreign-key edge; both tables must exist.
func (c *Catalog) AddFK(child, childCol, parent string) {
	if c.Table(child) == nil || c.Table(parent) == nil {
		panic(fmt.Sprintf("catalog: FK %s.%s -> %s references unknown table", child, childCol, parent))
	}
	c.fks = append(c.fks, FKEdge{Child: child, ChildColumn: childCol, Parent: parent})
	if at := &c.fkOf[fkPair(c.Table(child), c.Table(parent))]; *at == 0 {
		*at = int16(len(c.fks))
	}
}

func fkPair(a, b *Table) int {
	lo, hi := a.ID, b.ID
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo*64 + hi
}

// Table returns the named table or nil.
func (c *Catalog) Table(name string) *Table { return c.tables[name] }

// Tables returns all tables in creation order.
func (c *Catalog) Tables() []*Table { return c.order }

// FK returns the edge joining the two tables (in either direction), or
// false when none exists.
func (c *Catalog) FK(a, b string) (FKEdge, bool) {
	ta, tb := c.tables[a], c.tables[b]
	if ta == nil || tb == nil {
		return FKEdge{}, false
	}
	at := c.fkOf[fkPair(ta, tb)]
	if at == 0 {
		return FKEdge{}, false
	}
	return c.fks[at-1], true
}

// Extents returns the number of extents the table occupies (at least 1).
func (c *Catalog) Extents(t *Table) int64 {
	n := (t.Bytes() + c.ExtentBytes - 1) / c.ExtentBytes
	if n < 1 {
		n = 1
	}
	return n
}

// TotalExtents returns the whole database's extent count.
func (c *Catalog) TotalExtents() int64 {
	var n int64
	for _, t := range c.order {
		n += c.Extents(t)
	}
	return n
}

// String summarizes the catalog.
func (c *Catalog) String() string {
	names := make([]string, 0, len(c.order))
	for _, t := range c.order {
		names = append(names, fmt.Sprintf("%s(%d rows, %d extents)", t.Name, t.Rows, c.Extents(t)))
	}
	sort.Strings(names)
	return fmt.Sprintf("catalog: %d tables, %d extents total: %v", len(c.order), c.TotalExtents(), names)
}

// intCol builds a synthetic integer column.
func intCol(name string, distinct int64) *Column {
	return &Column{Name: name, Distinct: distinct, Min: 0, Max: distinct - 1}
}

// SalesConfig scales the SALES star schema. Scale 1.0 reproduces the
// paper's 524 GB data mart with a >400M-row fact table.
type SalesConfig struct {
	Scale       float64
	ExtentBytes int64
}

// DefaultSalesConfig returns the paper-faithful scale with 8 MiB extents.
func DefaultSalesConfig() SalesConfig {
	return SalesConfig{Scale: 1.0, ExtentBytes: 8 << 20}
}

// NewSales builds the SALES data-mart catalog: one wide fact table and a
// ring of dimension tables (product, store, customer, time, geography,
// promotion hierarchies) so that 15-20-join queries are natural.
func NewSales(cfg SalesConfig) *Catalog {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if cfg.ExtentBytes == 0 {
		cfg.ExtentBytes = 8 << 20
	}
	s := func(n int64) int64 {
		v := int64(float64(n) * cfg.Scale)
		if v < 1 {
			v = 1
		}
		return v
	}
	c := New(cfg.ExtentBytes)

	// Fact table: 420M rows x ~1.2KB ≈ 504 GB at scale 1; the dimensions
	// bring the database to roughly the paper's 524 GB.
	fact := c.AddTable(&Table{
		Name: "sales_fact", Rows: s(420_000_000), RowBytes: 1200,
		Columns: []*Column{
			intCol("sale_id", s(420_000_000)),
			intCol("product_id", s(1_000_000)),
			intCol("store_id", s(50_000)),
			intCol("customer_id", s(20_000_000)),
			intCol("date_id", 3653),
			intCol("promo_id", s(40_000)),
			intCol("employee_id", s(400_000)),
			intCol("channel_id", 12),
			intCol("quantity", 1000),
			intCol("amount_cents", 10_000_000),
		},
		Indexes: []*Index{
			{Name: "pk_sales", Columns: []string{"sale_id"}},
			{Name: "ix_sales_date", Columns: []string{"date_id"}},
			{Name: "ix_sales_product", Columns: []string{"product_id"}},
		},
	})

	dims := []struct {
		name     string
		rows     int64
		rowBytes int64
		fkCol    string
		cols     []*Column
	}{
		{"dim_product", s(1_000_000), 600, "product_id",
			[]*Column{intCol("product_id", s(1_000_000)), intCol("subcategory_id", s(10_000)), intCol("brand_id", s(5_000))}},
		{"dim_subcategory", s(10_000), 200, "",
			[]*Column{intCol("subcategory_id", s(10_000)), intCol("category_id", s(500))}},
		{"dim_category", s(500), 200, "",
			[]*Column{intCol("category_id", s(500)), intCol("department_id", 40)}},
		{"dim_department", 40, 150, "",
			[]*Column{intCol("department_id", 40)}},
		{"dim_brand", s(5_000), 200, "",
			[]*Column{intCol("brand_id", s(5_000)), intCol("manufacturer_id", s(800))}},
		{"dim_manufacturer", s(800), 200, "",
			[]*Column{intCol("manufacturer_id", s(800))}},
		{"dim_store", s(50_000), 500, "store_id",
			[]*Column{intCol("store_id", s(50_000)), intCol("city_id", s(8_000)), intCol("format_id", 20)}},
		{"dim_city", s(8_000), 200, "",
			[]*Column{intCol("city_id", s(8_000)), intCol("region_id", s(400))}},
		{"dim_region", s(400), 150, "",
			[]*Column{intCol("region_id", s(400)), intCol("country_id", 80)}},
		{"dim_country", 80, 150, "",
			[]*Column{intCol("country_id", 80)}},
		{"dim_store_format", 20, 100, "",
			[]*Column{intCol("format_id", 20)}},
		{"dim_customer", s(8_000_000), 800, "customer_id",
			[]*Column{intCol("customer_id", s(8_000_000)), intCol("segment_id", 50), intCol("city_id", s(8_000))}},
		{"dim_segment", 50, 100, "",
			[]*Column{intCol("segment_id", 50)}},
		{"dim_date", 3653, 120, "date_id",
			[]*Column{intCol("date_id", 3653), intCol("month_id", 120), intCol("year", 10)}},
		{"dim_month", 120, 100, "",
			[]*Column{intCol("month_id", 120), intCol("quarter_id", 40)}},
		{"dim_quarter", 40, 100, "",
			[]*Column{intCol("quarter_id", 40)}},
		{"dim_promotion", s(40_000), 300, "promo_id",
			[]*Column{intCol("promo_id", s(40_000)), intCol("promo_type_id", 60)}},
		{"dim_promo_type", 60, 100, "",
			[]*Column{intCol("promo_type_id", 60)}},
		{"dim_employee", s(400_000), 400, "employee_id",
			[]*Column{intCol("employee_id", s(400_000)), intCol("store_id", s(50_000))}},
		{"dim_channel", 12, 100, "channel_id",
			[]*Column{intCol("channel_id", 12)}},
	}
	for _, d := range dims {
		t := &Table{Name: d.name, Rows: d.rows, RowBytes: d.rowBytes, Columns: d.cols}
		key := d.cols[0].Name
		t.Indexes = []*Index{{Name: "pk_" + d.name, Columns: []string{key}}}
		c.AddTable(t)
		if d.fkCol != "" {
			c.AddFK(fact.Name, d.fkCol, d.name)
		}
	}

	// Snowflake edges between dimensions.
	snow := [][3]string{
		{"dim_product", "subcategory_id", "dim_subcategory"},
		{"dim_product", "brand_id", "dim_brand"},
		{"dim_subcategory", "category_id", "dim_category"},
		{"dim_category", "department_id", "dim_department"},
		{"dim_brand", "manufacturer_id", "dim_manufacturer"},
		{"dim_store", "city_id", "dim_city"},
		{"dim_store", "format_id", "dim_store_format"},
		{"dim_city", "region_id", "dim_region"},
		{"dim_region", "country_id", "dim_country"},
		{"dim_customer", "segment_id", "dim_segment"},
		{"dim_customer", "city_id", "dim_city"},
		{"dim_date", "month_id", "dim_month"},
		{"dim_month", "quarter_id", "dim_quarter"},
		{"dim_promotion", "promo_type_id", "dim_promo_type"},
		{"dim_employee", "store_id", "dim_store"},
	}
	for _, e := range snow {
		c.AddFK(e[0], e[1], e[2])
	}
	return c
}

// NewTPCHLike builds a small catalog shaped like TPC-H (8 tables, joins
// of 0-8 tables) for the compile-memory comparison experiments.
func NewTPCHLike(scale float64, extentBytes int64) *Catalog {
	if scale <= 0 {
		scale = 1.0
	}
	if extentBytes == 0 {
		extentBytes = 8 << 20
	}
	s := func(n int64) int64 {
		v := int64(float64(n) * scale)
		if v < 1 {
			v = 1
		}
		return v
	}
	c := New(extentBytes)
	c.AddTable(&Table{Name: "lineitem", Rows: s(6_000_000_000), RowBytes: 120,
		Columns: []*Column{intCol("l_orderkey", s(1_500_000_000)), intCol("l_partkey", s(200_000_000)), intCol("l_suppkey", s(10_000_000))},
		Indexes: []*Index{{Name: "pk_lineitem", Columns: []string{"l_orderkey"}}}})
	c.AddTable(&Table{Name: "orders", Rows: s(1_500_000_000), RowBytes: 140,
		Columns: []*Column{intCol("o_orderkey", s(1_500_000_000)), intCol("o_custkey", s(150_000_000))},
		Indexes: []*Index{{Name: "pk_orders", Columns: []string{"o_orderkey"}}}})
	c.AddTable(&Table{Name: "customer", Rows: s(150_000_000), RowBytes: 200,
		Columns: []*Column{intCol("c_custkey", s(150_000_000)), intCol("c_nationkey", 25)}})
	c.AddTable(&Table{Name: "part", Rows: s(200_000_000), RowBytes: 160,
		Columns: []*Column{intCol("p_partkey", s(200_000_000))}})
	c.AddTable(&Table{Name: "supplier", Rows: s(10_000_000), RowBytes: 180,
		Columns: []*Column{intCol("s_suppkey", s(10_000_000)), intCol("s_nationkey", 25)}})
	c.AddTable(&Table{Name: "partsupp", Rows: s(800_000_000), RowBytes: 150,
		Columns: []*Column{intCol("ps_partkey", s(200_000_000)), intCol("ps_suppkey", s(10_000_000))}})
	c.AddTable(&Table{Name: "nation", Rows: 25, RowBytes: 120,
		Columns: []*Column{intCol("n_nationkey", 25), intCol("n_regionkey", 5)}})
	c.AddTable(&Table{Name: "region", Rows: 5, RowBytes: 120,
		Columns: []*Column{intCol("r_regionkey", 5)}})
	c.AddFK("lineitem", "l_orderkey", "orders")
	c.AddFK("lineitem", "l_partkey", "part")
	c.AddFK("lineitem", "l_suppkey", "supplier")
	c.AddFK("orders", "o_custkey", "customer")
	c.AddFK("customer", "c_nationkey", "nation")
	c.AddFK("supplier", "s_nationkey", "nation")
	c.AddFK("nation", "n_regionkey", "region")
	c.AddFK("partsupp", "ps_partkey", "part")
	return c
}

// NewOLTPLike builds a small OLTP-shaped catalog (TPC-C-ish) whose queries
// touch 1-3 tables and compile below the first monitor threshold.
func NewOLTPLike(extentBytes int64) *Catalog {
	if extentBytes == 0 {
		extentBytes = 8 << 20
	}
	c := New(extentBytes)
	c.AddTable(&Table{Name: "warehouse", Rows: 100, RowBytes: 100,
		Columns: []*Column{intCol("w_id", 100)}})
	c.AddTable(&Table{Name: "district", Rows: 1000, RowBytes: 120,
		Columns: []*Column{intCol("d_id", 1000), intCol("d_w_id", 100)}})
	c.AddTable(&Table{Name: "customer_oltp", Rows: 3_000_000, RowBytes: 600,
		Columns: []*Column{intCol("c_id", 3_000_000), intCol("c_d_id", 1000)},
		Indexes: []*Index{{Name: "pk_customer", Columns: []string{"c_id"}}}})
	c.AddTable(&Table{Name: "order_oltp", Rows: 30_000_000, RowBytes: 80,
		Columns: []*Column{intCol("o_id", 30_000_000), intCol("o_c_id", 3_000_000)},
		Indexes: []*Index{{Name: "pk_order", Columns: []string{"o_id"}}}})
	c.AddFK("district", "d_w_id", "warehouse")
	c.AddFK("customer_oltp", "c_d_id", "district")
	c.AddFK("order_oltp", "o_c_id", "customer_oltp")
	return c
}
