package catalog

import (
	"strings"
	"testing"
)

func TestSalesShape(t *testing.T) {
	c := NewSales(SalesConfig{})
	fact := c.Table("sales_fact")
	if fact == nil {
		t.Fatal("no fact table")
	}
	if fact.Rows < 400_000_000 {
		t.Fatalf("fact rows = %d, paper says >400M", fact.Rows)
	}
	var total int64
	for _, tb := range c.Tables() {
		total += tb.Bytes()
	}
	totalGB := float64(total) / 1e9
	if totalGB < 495 || totalGB > 555 {
		t.Fatalf("database size = %.0f GB, paper says 524 GB", totalGB)
	}
	if len(c.Tables()) < 15 {
		t.Fatalf("only %d tables; need a rich snowflake for 15-20 join queries", len(c.Tables()))
	}
	// The join graph must connect enough tables for 15-20 join queries.
	if len(c.fks) < 15 {
		t.Fatalf("only %d FK edges", len(c.fks))
	}
}

func TestSalesScaling(t *testing.T) {
	small := NewSales(SalesConfig{Scale: 0.001, ExtentBytes: 8 << 20})
	big := NewSales(SalesConfig{Scale: 1.0, ExtentBytes: 8 << 20})
	if small.Table("sales_fact").Rows >= big.Table("sales_fact").Rows {
		t.Fatal("scaling did not reduce fact rows")
	}
	// Tiny dimensions never scale below 1 row.
	for _, tb := range small.Tables() {
		if tb.Rows < 1 {
			t.Fatalf("table %s has %d rows", tb.Name, tb.Rows)
		}
	}
}

func TestFKLookup(t *testing.T) {
	c := NewSales(SalesConfig{})
	if _, ok := c.FK("sales_fact", "dim_product"); !ok {
		t.Fatal("fact->product FK missing")
	}
	if _, ok := c.FK("dim_product", "sales_fact"); !ok {
		t.Fatal("FK lookup not symmetric")
	}
	if _, ok := c.FK("dim_product", "dim_customer"); ok {
		t.Fatal("phantom FK between unrelated dimensions")
	}
}

// The pair index must answer exactly what the scan over the edge list
// did: for every ordered pair of names (known or not), the first edge
// registered between the two tables in either direction — including a
// second, later edge over the same pair, which must stay shadowed.
func TestFKIndexMatchesEdgeScan(t *testing.T) {
	scan := func(c *Catalog, a, b string) (FKEdge, bool) {
		for _, e := range c.fks {
			if (e.Child == a && e.Parent == b) || (e.Child == b && e.Parent == a) {
				return e, true
			}
		}
		return FKEdge{}, false
	}
	dup := NewTPCHLike(1, 8<<20)
	dup.AddFK("orders", "o_orderkey", "lineitem") // reversed twin of the first edge
	dup.AddFK("nation", "n_nationkey", "nation")  // self edge
	for name, c := range map[string]*Catalog{
		"sales": NewSales(SalesConfig{}), "tpch": NewTPCHLike(1, 8<<20), "tpch+dup": dup,
	} {
		names := []string{"no_such_table"}
		for _, tb := range c.Tables() {
			names = append(names, tb.Name)
		}
		for _, a := range names {
			for _, b := range names {
				want, wantOK := scan(c, a, b)
				got, ok := c.FK(a, b)
				if got != want || ok != wantOK {
					t.Fatalf("%s: FK(%s, %s) = %v, %v; the edge scan gives %v, %v", name, a, b, got, ok, want, wantOK)
				}
			}
		}
	}
}

func TestExtents(t *testing.T) {
	c := New(8 << 20)
	tb := c.AddTable(&Table{Name: "t", Rows: 1, RowBytes: 10})
	if c.Extents(tb) != 1 {
		t.Fatalf("tiny table extents = %d, want 1", c.Extents(tb))
	}
	tb2 := c.AddTable(&Table{Name: "t2", Rows: 1 << 20, RowBytes: 16}) // 16 MiB
	if c.Extents(tb2) != 2 {
		t.Fatalf("16MiB/8MiB extents = %d, want 2", c.Extents(tb2))
	}
}

func TestDuplicateTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddTable did not panic")
		}
	}()
	c := New(8 << 20)
	c.AddTable(&Table{Name: "x", Rows: 1, RowBytes: 1})
	c.AddTable(&Table{Name: "x", Rows: 1, RowBytes: 1})
}

func TestColumnAndIndexLookup(t *testing.T) {
	c := NewSales(SalesConfig{})
	fact := c.Table("sales_fact")
	if fact.Column("date_id") == nil {
		t.Fatal("date_id column missing")
	}
	if fact.Column("nope") != nil {
		t.Fatal("phantom column")
	}
	if !fact.HasIndexOn("date_id") {
		t.Fatal("ix_sales_date not found by HasIndexOn")
	}
	if fact.HasIndexOn("amount_cents") {
		t.Fatal("phantom index")
	}
}

func TestTPCHShape(t *testing.T) {
	h := NewTPCHLike(1.0, 8<<20)
	if len(h.Tables()) != 8 {
		t.Fatalf("tpch tables = %d, want 8", len(h.Tables()))
	}
	if h.Table("lineitem") == nil || h.Table("region") == nil {
		t.Fatal("tpch tables missing")
	}
}

func TestString(t *testing.T) {
	c := NewTPCHLike(1.0, 8<<20)
	if s := c.String(); !strings.Contains(s, "lineitem") {
		t.Fatalf("String() = %q", s)
	}
}

func TestTableIDsDense(t *testing.T) {
	c := NewSales(SalesConfig{})
	for i, tb := range c.Tables() {
		if tb.ID != i {
			t.Fatalf("table %s has ID %d at position %d", tb.Name, tb.ID, i)
		}
	}
}
