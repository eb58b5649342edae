package storage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"compilegate/internal/catalog"
)

func testLayout() *Layout {
	return NewLayout(catalog.NewSales(catalog.SalesConfig{Scale: 0.01, ExtentBytes: 8 << 20}))
}

// scan draws a scan of the named table into a new list.
func scan(l *Layout, table string, fraction float64, p Pattern, rng *rand.Rand) []ExtentKey {
	return l.ScanInto(nil, l.Table(table), fraction, p, rng)
}

func TestExtentKeyRoundTrip(t *testing.T) {
	k := NewExtentKey(13, 987654)
	if k.TableID() != 13 || k.Extent() != 987654 {
		t.Fatalf("round trip: table=%d extent=%d", k.TableID(), k.Extent())
	}
}

func TestLayoutExtents(t *testing.T) {
	l := testLayout()
	cat := l.Catalog()
	fact := cat.Table("sales_fact")
	if l.Extents("sales_fact") != cat.Extents(fact) {
		t.Fatal("layout extent count mismatch")
	}
	if l.TotalExtents() != cat.TotalExtents() {
		t.Fatal("total extents mismatch")
	}
	if l.String() == "" {
		t.Fatal("empty String")
	}
}

func TestUnknownTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown table did not panic")
		}
	}()
	testLayout().Extents("nope")
}

func TestFullScanSequential(t *testing.T) {
	l := testLayout()
	rng := rand.New(rand.NewSource(1))
	keys := scan(l, "dim_product", 1.0, DefaultPattern(), rng)
	if int64(len(keys)) != l.Extents("dim_product") {
		t.Fatalf("full scan keys = %d, want %d", len(keys), l.Extents("dim_product"))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i].Extent() != keys[i-1].Extent()+1 {
			t.Fatal("full scan not sequential")
		}
	}
}

func TestFractionalScanSize(t *testing.T) {
	l := testLayout()
	rng := rand.New(rand.NewSource(2))
	total := l.Extents("sales_fact")
	keys := scan(l, "sales_fact", 0.1, DefaultPattern(), rng)
	want := int64(float64(total) * 0.1)
	if int64(len(keys)) != want {
		t.Fatalf("10%% scan = %d extents, want %d", len(keys), want)
	}
	for _, k := range keys {
		if k.Extent() >= total {
			t.Fatal("extent beyond table")
		}
		if k.TableID() != l.Catalog().Table("sales_fact").ID {
			t.Fatal("wrong table id")
		}
	}
}

func TestHotSkew(t *testing.T) {
	l := testLayout()
	p := Pattern{HotFraction: 0.1, HotProbability: 0.8}
	rng := rand.New(rand.NewSource(3))
	total := l.Extents("sales_fact")
	hot := int64(float64(total) * p.HotFraction)
	keys := scan(l, "sales_fact", 0.3, p, rng)
	inHot := 0
	for _, k := range keys {
		if k.Extent() < hot {
			inHot++
		}
	}
	frac := float64(inHot) / float64(len(keys))
	// 80% directed + 10% of the uniform 20% ≈ 82%.
	if frac < 0.70 || frac > 0.95 {
		t.Fatalf("hot fraction = %v, want ~0.82", frac)
	}
}

func TestTinyFractionStillReads(t *testing.T) {
	l := testLayout()
	rng := rand.New(rand.NewSource(4))
	keys := scan(l, "dim_channel", 0.0001, DefaultPattern(), rng)
	if len(keys) != 1 {
		t.Fatalf("tiny scan = %d extents, want 1", len(keys))
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	l := testLayout()
	a := scan(l, "sales_fact", 0.05, DefaultPattern(), rand.New(rand.NewSource(7)))
	b := scan(l, "sales_fact", 0.05, DefaultPattern(), rand.New(rand.NewSource(7)))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different scans")
		}
	}
}

// Property: scans never exceed table bounds, fraction clamps at 1, and
// ScanLenOf names the list's length without drawing it.
func TestQuickScanBounds(t *testing.T) {
	l := testLayout()
	tables := l.Catalog().Tables()
	f := func(fracRaw uint16, tIdx uint8, seed int64) bool {
		tb := tables[int(tIdx)%len(tables)]
		frac := float64(fracRaw) / 10000.0 // up to 6.5
		keys := l.ScanInto(nil, tb, frac, DefaultPattern(), rand.New(rand.NewSource(seed)))
		total := l.Extents(tb.Name)
		if int64(len(keys)) > total || l.ScanLenOf(tb, frac) != len(keys) {
			return false
		}
		for _, k := range keys {
			if k.Extent() < 0 || k.Extent() >= total || k.TableID() != tb.ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
