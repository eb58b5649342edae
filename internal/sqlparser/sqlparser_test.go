package sqlparser

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"compilegate/internal/workload"
)

func TestParseSimpleSelect(t *testing.T) {
	q, err := Parse("SELECT * FROM dim_product")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 1 || q.Tables[0].Name != "dim_product" {
		t.Fatalf("tables = %+v", q.Tables)
	}
	if q.Aggregates != 0 || len(q.Joins) != 0 {
		t.Fatal("phantom aggregates or joins")
	}
}

func TestParseJoins(t *testing.T) {
	sql := `SELECT SUM(sales_fact.amount_cents), COUNT(*)
	        FROM sales_fact
	        JOIN dim_product ON sales_fact.product_id = dim_product.product_id
	        INNER JOIN dim_store ON sales_fact.store_id = dim_store.store_id`
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 3 {
		t.Fatalf("tables = %d", len(q.Tables))
	}
	if len(q.Joins) != 2 {
		t.Fatalf("joins = %d", len(q.Joins))
	}
	if q.Joins[0].A != "sales_fact" || q.Joins[0].B != "dim_product" {
		t.Fatalf("join 0 = %+v", q.Joins[0])
	}
	if q.Aggregates != 2 {
		t.Fatalf("aggregates = %d", q.Aggregates)
	}
}

func TestParseWhere(t *testing.T) {
	sql := `SELECT * FROM sales_fact
	        WHERE sales_fact.date_id BETWEEN 100 AND 200
	          AND sales_fact.channel_id = 3
	          AND sales_fact.quantity >= 5
	          AND sales_fact.amount_cents <= 1000`
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	preds := q.Tables[0].Preds
	if len(preds) != 4 {
		t.Fatalf("preds = %d", len(preds))
	}
	if preds[0].Op != "between" || preds[0].Lo != 100 || preds[0].Hi != 200 {
		t.Fatalf("pred 0 = %+v", preds[0])
	}
	if preds[1].Op != "=" || preds[1].Lo != 3 {
		t.Fatalf("pred 1 = %+v", preds[1])
	}
	if preds[2].Op != ">=" || preds[2].Lo != 5 {
		t.Fatalf("pred 2 = %+v", preds[2])
	}
	if preds[3].Op != "<=" || preds[3].Hi != 1000 {
		t.Fatalf("pred 3 = %+v", preds[3])
	}
}

func TestParseGroupBy(t *testing.T) {
	sql := `SELECT dim_store.city_id, SUM(sales_fact.amount_cents)
	        FROM sales_fact JOIN dim_store ON sales_fact.store_id = dim_store.store_id
	        GROUP BY dim_store.city_id, dim_store.format_id`
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 2 {
		t.Fatalf("group by = %+v", q.GroupBy)
	}
	if q.GroupBy[0].Table != "dim_store" || q.GroupBy[0].Column != "city_id" {
		t.Fatalf("group by 0 = %+v", q.GroupBy[0])
	}
}

func TestCommentsIgnoredButFingerprinted(t *testing.T) {
	a := "SELECT * FROM t /* u1 */"
	b := "SELECT * FROM t /* u2 */"
	qa, err := Parse(a)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if qa.Tables[0].Name != qb.Tables[0].Name {
		t.Fatal("comment changed parse")
	}
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("uniquifier comment did not change fingerprint")
	}
	if Fingerprint(a) != Fingerprint(a) {
		t.Fatal("fingerprint unstable")
	}
}

func TestLineComment(t *testing.T) {
	q, err := Parse("SELECT * FROM t -- trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if q.Tables[0].Name != "t" {
		t.Fatal("line comment broke parse")
	}
}

func TestCaseInsensitivity(t *testing.T) {
	q, err := Parse("select Sum(F.x) from Sales_Fact join Dim_Date on Sales_Fact.date_id = Dim_Date.date_id")
	if err != nil {
		t.Fatal(err)
	}
	if q.Tables[0].Name != "sales_fact" || q.Tables[1].Name != "dim_date" {
		t.Fatalf("tables = %+v", q.Tables)
	}
}

func TestNegativeNumbers(t *testing.T) {
	q, err := Parse("SELECT * FROM t WHERE t.x >= -5")
	if err != nil {
		t.Fatal(err)
	}
	if q.Tables[0].Preds[0].Lo != -5 {
		t.Fatalf("pred = %+v", q.Tables[0].Preds[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE t SET x = 1",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t JOIN",
		"SELECT * FROM t JOIN u ON a = b", // unqualified join columns
		"SELECT * FROM t WHERE t.x = ",
		"SELECT * FROM t WHERE u.x = 1", // WHERE on unlisted table
		"SELECT * FROM t WHERE t.x BETWEEN 1",
		"SELECT * FROM t GROUP BY",
		"SELECT * FROM t extra garbage",
		"SELECT sum(x FROM t",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("accepted %q", sql)
		}
	}
}

func TestStringLiteralsTokenized(t *testing.T) {
	// Strings are lexed (not supported in predicates, but must not crash
	// the lexer).
	if _, err := Parse("SELECT * FROM t WHERE t.x = 'abc'"); err == nil {
		t.Error("string predicate unexpectedly accepted")
	}
}

// Property: Fingerprint is deterministic and distinct texts rarely
// collide (trivially checked for distinct inputs here).
func TestQuickFingerprint(t *testing.T) {
	f := func(a, b string) bool {
		if Fingerprint(a) != Fingerprint(a) {
			return false
		}
		if a != b && Fingerprint(a) == Fingerprint(b) {
			// FNV collisions are possible but vanishingly unlikely on
			// short random strings; treat as failure to surface them.
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the parser never panics on arbitrary input.
func TestQuickParserRobust(t *testing.T) {
	f := func(s string) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("panic on %q", s)
			}
		}()
		_, _ = Parse(s)
		_, _ = Parse("SELECT " + s)
		_, _ = Parse("SELECT * FROM t WHERE " + s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestWildInputDoesNotHang(t *testing.T) {
	weird := []string{
		strings.Repeat("(", 1000),
		"SELECT " + strings.Repeat("sum(", 50) + "x" + strings.Repeat(")", 50) + " FROM t",
		"/* unterminated",
		"'unterminated",
	}
	for _, s := range weird {
		_, _ = Parse(s) // must terminate
	}
}

// Lexing a statement of any of the three workload shapes allocates nothing
// once the lexer's token buffer has grown: every upper-case word the
// generators emit is interned, so lowerIdent never builds a lowered copy.
func TestLexingTheCorporaAllocatesNothing(t *testing.T) {
	var l lexer
	for _, sql := range benchCorpus() {
		l.lex(sql) // grow the token buffer
		if n := testing.AllocsPerRun(10, func() { l.lex(sql) }); n != 0 {
			t.Errorf("lexing allocates %v times: %s", n, sql)
		}
	}
	for word := range keywords {
		upper := strings.ToUpper(word)
		if n := testing.AllocsPerRun(10, func() { _ = lowerIdent(upper) }); n != 0 {
			t.Errorf("lowerIdent(%q) allocates %v times", upper, n)
		}
	}
}

// FingerprintHash is the hash of the fingerprint string, computed without
// the string.
func TestFingerprintHashMatchesTheString(t *testing.T) {
	for _, sql := range append(benchCorpus(), "", "x") {
		h := Hash64(sql)
		if got, want := FingerprintHash(h), Hash64(Fingerprint(sql)); got != want {
			t.Errorf("FingerprintHash = %#x, Hash64(Fingerprint) = %#x for %q", got, want, sql)
		}
		if n := testing.AllocsPerRun(10, func() { _ = FingerprintHash(h) }); n != 0 {
			t.Errorf("FingerprintHash allocates %v times", n)
		}
	}
}

// TestPooledLexerFitsTheWidestSales: a pooled lexer's buffer holds the
// tokens of the widest SALES statement, so lexing one never grows it.
func TestPooledLexerFitsTheWidestSales(t *testing.T) {
	sales, rng := workload.NewSales(), rand.New(rand.NewSource(1))
	widest := 0
	for i := 0; i < 2000; i++ {
		var l lexer
		l.lex(sales.Next(rng))
		widest = max(widest, len(l.src))
	}
	if widest != widestSalesTokens {
		t.Fatalf("widest SALES statement: %d tokens; a pooled lexer starts with room for %d", widest, widestSalesTokens)
	}
}
