// Package workload synthesizes the paper's benchmark workloads as SQL
// text, and drives them through the engine with a closed-loop multi-client
// load generator.
//
// The SALES generator reproduces §5.1: 10 complex join/aggregate templates
// (15-20 joins each) over the star/snowflake data mart, each submission
// mutated — literals varied and a unique comment appended — so every query
// "appears unique" and defeats plan caching, exactly as the paper's load
// generator does [7].
package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
)

// Generator produces one SQL statement per call.
type Generator interface {
	// Name identifies the workload ("sales", "tpch", "oltp").
	Name() string
	// Next produces the next query using rng for all variation.
	Next(rng *rand.Rand) string
}

// join describes one edge of a template's join tree.
type join struct {
	left, leftCol, right string
}

// salesTemplate is one of the 10 base queries.
type salesTemplate struct {
	joins   []join
	groupBy []string // "table.column"
	aggs    int
	// factFracLo/Hi bound the date-range filter's selectivity on the
	// fact table (fraction of date domain).
	factFracLo, factFracHi float64
	// extraFilters are "table.column" equality filters with a domain to
	// draw the literal from.
	extraFilters []filter

	// Pre-rendered SQL segments (built once, shared by every generator):
	// head runs from SELECT through "BETWEEN ", filterSegs[i] is the
	// " AND col = " preceding extraFilters[i]'s literal, tail is the
	// GROUP BY clause. Next only splices literals between them, so one
	// query costs one string allocation instead of dozens.
	head       string
	filterSegs []string
	tail       string
}

type filter struct {
	col    string // "table.column"
	domain int64
}

// Sales generates the SALES benchmark (§5.1): 10 representative templates
// with 15-20 joins computing aggregates over the join results. Each query
// ends in a per-generator unique comment, so no two share a plan-cache
// entry. The template tables are immutable and shared by every Sales
// instance; only the uniquify counter and the scratch buffer are
// per-generator.
type Sales struct {
	templates []salesTemplate
	counter   uint64
	buf       []byte // query-assembly scratch, reused across Next calls
}

// dateDomain is dim_date's date_id domain (3653 days).
const dateDomain = 3653

// core joins shared by all SALES templates: fact to primary dimensions.
func factJoins(dims ...string) []join {
	cols := map[string]string{
		"dim_product":   "product_id",
		"dim_store":     "store_id",
		"dim_customer":  "customer_id",
		"dim_date":      "date_id",
		"dim_promotion": "promo_id",
		"dim_employee":  "employee_id",
		"dim_channel":   "channel_id",
	}
	out := make([]join, 0, len(dims))
	for _, d := range dims {
		out = append(out, join{"sales_fact", cols[d], d})
	}
	return out
}

var snowflakes = map[string]join{
	"dim_subcategory":  {"dim_product", "subcategory_id", "dim_subcategory"},
	"dim_category":     {"dim_subcategory", "category_id", "dim_category"},
	"dim_department":   {"dim_category", "department_id", "dim_department"},
	"dim_brand":        {"dim_product", "brand_id", "dim_brand"},
	"dim_manufacturer": {"dim_brand", "manufacturer_id", "dim_manufacturer"},
	"dim_city":         {"dim_store", "city_id", "dim_city"},
	"dim_region":       {"dim_city", "region_id", "dim_region"},
	"dim_country":      {"dim_region", "country_id", "dim_country"},
	"dim_store_format": {"dim_store", "format_id", "dim_store_format"},
	"dim_segment":      {"dim_customer", "segment_id", "dim_segment"},
	"dim_month":        {"dim_date", "month_id", "dim_month"},
	"dim_quarter":      {"dim_month", "quarter_id", "dim_quarter"},
	"dim_promo_type":   {"dim_promotion", "promo_type_id", "dim_promo_type"},
}

// chain expands base fact joins with snowflake tables (in dependency
// order — parents appear in the map values' left side).
func chain(base []join, tables ...string) []join {
	out := base
	for _, t := range tables {
		out = append(out, snowflakes[t])
	}
	return out
}

// NewSales builds the 10-template SALES workload. The shared template
// tables (join trees, pre-rendered SQL segments) are built once per
// process.
func NewSales() *Sales {
	return &Sales{templates: salesTemplates()}
}

// salesTemplates builds the shared, read-only template tables on first
// use.
var salesTemplates = sync.OnceValue(buildSalesTemplates)

func buildSalesTemplates() []salesTemplate {
	allDims := []string{"dim_product", "dim_store", "dim_customer", "dim_date",
		"dim_promotion", "dim_employee", "dim_channel"}
	t := []salesTemplate{
		{ // Q1: product hierarchy rollup, 17 joins
			joins: chain(factJoins(allDims...),
				"dim_subcategory", "dim_category", "dim_department",
				"dim_brand", "dim_manufacturer",
				"dim_city", "dim_region",
				"dim_month", "dim_quarter", "dim_segment"),
			groupBy: []string{"dim_category.category_id", "dim_region.region_id"},
			aggs:    3, factFracLo: 0.05, factFracHi: 0.14,
			extraFilters: []filter{{"dim_department.department_id", 40}},
		},
		{ // Q2: geographic drill-down, 16 joins
			joins: chain(factJoins(allDims...),
				"dim_city", "dim_region", "dim_country", "dim_store_format",
				"dim_subcategory", "dim_category",
				"dim_month", "dim_segment", "dim_promo_type"),
			groupBy: []string{"dim_country.country_id", "dim_store_format.format_id"},
			aggs:    2, factFracLo: 0.04, factFracHi: 0.11,
			extraFilters: []filter{{"dim_region.region_id", 400}},
		},
		{ // Q3: brand/manufacturer analysis, 15 joins
			joins: chain(factJoins(allDims...),
				"dim_brand", "dim_manufacturer", "dim_subcategory",
				"dim_city", "dim_month", "dim_quarter",
				"dim_segment", "dim_promo_type"),
			groupBy: []string{"dim_manufacturer.manufacturer_id"},
			aggs:    4, factFracLo: 0.07, factFracHi: 0.18,
			extraFilters: []filter{{"dim_channel.channel_id", 12}},
		},
		{ // Q4: promotion effectiveness, 16 joins
			joins: chain(factJoins(allDims...),
				"dim_promo_type", "dim_subcategory", "dim_category",
				"dim_city", "dim_region", "dim_month",
				"dim_segment", "dim_store_format", "dim_brand"),
			groupBy: []string{"dim_promo_type.promo_type_id", "dim_month.month_id"},
			aggs:    3, factFracLo: 0.05, factFracHi: 0.13,
		},
		{ // Q5: customer segmentation, 15 joins
			joins: chain(factJoins(allDims...),
				"dim_segment", "dim_city", "dim_region", "dim_country",
				"dim_subcategory", "dim_month", "dim_quarter", "dim_brand"),
			groupBy: []string{"dim_segment.segment_id", "dim_quarter.quarter_id"},
			aggs:    2, factFracLo: 0.04, factFracHi: 0.09,
			extraFilters: []filter{{"dim_country.country_id", 80}},
		},
		{ // Q6: full snowflake sweep, 20 joins
			joins: chain(factJoins(allDims...),
				"dim_subcategory", "dim_category", "dim_department",
				"dim_brand", "dim_manufacturer", "dim_city", "dim_region",
				"dim_country", "dim_store_format", "dim_segment",
				"dim_month", "dim_quarter", "dim_promo_type"),
			groupBy: []string{"dim_department.department_id", "dim_country.country_id"},
			aggs:    5, factFracLo: 0.15, factFracHi: 0.28,
		},
		{ // Q7: time-series by channel, 15 joins
			joins: chain(factJoins(allDims...),
				"dim_month", "dim_quarter", "dim_subcategory",
				"dim_city", "dim_segment", "dim_brand",
				"dim_promo_type", "dim_store_format"),
			groupBy: []string{"dim_channel.channel_id", "dim_month.month_id"},
			aggs:    3, factFracLo: 0.07, factFracHi: 0.16,
		},
		{ // Q8: employee/store performance, 16 joins
			joins: chain(factJoins(allDims...),
				"dim_city", "dim_region", "dim_store_format",
				"dim_subcategory", "dim_category", "dim_brand",
				"dim_month", "dim_segment", "dim_promo_type"),
			groupBy: []string{"dim_store_format.format_id"},
			aggs:    4, factFracLo: 0.04, factFracHi: 0.11,
			extraFilters: []filter{{"dim_category.category_id", 500}},
		},
		{ // Q9: product lifecycle, 17 joins
			joins: chain(factJoins(allDims...),
				"dim_subcategory", "dim_category", "dim_department",
				"dim_brand", "dim_manufacturer", "dim_month", "dim_quarter",
				"dim_segment", "dim_city", "dim_promo_type"),
			groupBy: []string{"dim_brand.brand_id", "dim_quarter.quarter_id"},
			aggs:    2, factFracLo: 0.05, factFracHi: 0.14,
		},
		{ // Q10: everything by region and department, 18 joins
			joins: chain(factJoins(allDims...),
				"dim_subcategory", "dim_category", "dim_department",
				"dim_city", "dim_region", "dim_country",
				"dim_month", "dim_quarter", "dim_segment",
				"dim_brand", "dim_store_format"),
			groupBy: []string{"dim_region.region_id", "dim_department.department_id"},
			aggs:    3, factFracLo: 0.12, factFracHi: 0.22,
		},
	}
	for i := range t {
		renderSalesSegments(&t[i])
	}
	return t
}

// renderSalesSegments pre-renders the static SQL of one template: the
// SELECT/FROM/JOIN head up to the date-range literals, the per-filter
// " AND col = " separators, and the GROUP BY tail. The rendering here is
// the single source of the query text; Next only splices literals in.
func renderSalesSegments(t *salesTemplate) {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, g := range t.groupBy {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(g)
	}
	aggCols := []string{"sales_fact.amount_cents", "sales_fact.quantity", "sales_fact.sale_id"}
	aggFns := []string{"SUM", "COUNT", "AVG", "MIN", "MAX"}
	for i := 0; i < t.aggs; i++ {
		sb.WriteString(", ")
		sb.WriteString(aggFns[i%len(aggFns)])
		sb.WriteString("(")
		sb.WriteString(aggCols[i%len(aggCols)])
		sb.WriteString(")")
	}

	sb.WriteString(" FROM sales_fact")
	for _, j := range t.joins {
		rightKey := strings.TrimPrefix(j.right, "dim_") + "_id"
		// Snowflake tables key on their own first column, which matches
		// the joining column name.
		fmt.Fprintf(&sb, " JOIN %s ON %s.%s = %s.%s",
			j.right, j.left, j.leftCol, j.right, keyColumn(j.right, rightKey, j.leftCol))
	}
	sb.WriteString(" WHERE sales_fact.date_id BETWEEN ")
	t.head = sb.String()

	t.filterSegs = make([]string, len(t.extraFilters))
	for i, f := range t.extraFilters {
		t.filterSegs[i] = " AND " + f.col + " = "
	}

	sb.Reset()
	sb.WriteString(" GROUP BY ")
	for i, g := range t.groupBy {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(g)
	}
	t.tail = sb.String()
}

// Name implements Generator.
func (s *Sales) Name() string { return "sales" }

// Templates returns the number of base queries.
func (s *Sales) Templates() int { return len(s.templates) }

// heavyTemplates indexes the two wide-scan templates (Q6, Q10) whose
// compilations reach a "sizable fraction of total available memory"; they
// are drawn rarely, matching the paper's observation that pressure comes
// from several medium/large compilations rather than constant giants.
var heavyTemplates = []int{5, 9}

// heavyProb is the probability of drawing a heavy template.
const heavyProb = 0.06

// Next implements Generator: picks a template (weighted: heavy templates
// are rare), varies its literals, and appends a uniquifying comment. The
// statement is assembled from the template's pre-rendered segments in a
// reused scratch buffer, so each call costs one allocation (the returned
// string) while producing byte-identical text to rendering from scratch.
func (s *Sales) Next(rng *rand.Rand) string {
	var t *salesTemplate
	if rng.Float64() < heavyProb {
		t = &s.templates[heavyTemplates[rng.Intn(len(heavyTemplates))]]
	} else {
		for {
			i := rng.Intn(len(s.templates))
			if i != heavyTemplates[0] && i != heavyTemplates[1] {
				t = &s.templates[i]
				break
			}
		}
	}
	return s.render(t, rng)
}

// NextHeavy draws only from the heavy wide-scan templates — the big-join
// fingerprints a compile-storm fault injects as a burst of arrivals.
func (s *Sales) NextHeavy(rng *rand.Rand) string {
	return s.render(&s.templates[heavyTemplates[rng.Intn(len(heavyTemplates))]], rng)
}

// render assembles one statement from the chosen template.
func (s *Sales) render(t *salesTemplate, rng *rand.Rand) string {
	buf := append(s.buf[:0], t.head...)

	// Fact date-range filter: selectivity drawn from the template band.
	frac := t.factFracLo + float64(rng.Float64()*(t.factFracHi-t.factFracLo))
	width := int64(frac * dateDomain)
	if width < 1 {
		width = 1
	}
	lo := rng.Int63n(dateDomain - width)
	buf = strconv.AppendInt(buf, lo, 10)
	buf = append(buf, " AND "...)
	buf = strconv.AppendInt(buf, lo+width, 10)
	for i, f := range t.extraFilters {
		buf = append(buf, t.filterSegs[i]...)
		buf = strconv.AppendInt(buf, rng.Int63n(f.domain), 10)
	}
	buf = append(buf, t.tail...)
	s.counter++
	buf = append(buf, " /* u"...)
	buf = strconv.AppendUint(buf, s.counter, 10)
	buf = append(buf, " */"...)
	s.buf = buf
	return string(buf)
}

// keyColumn resolves the join column on the right-hand table: dimension
// tables key on "<name>_id", and snowflake joins use the same column name
// on both sides.
func keyColumn(table, derived, leftCol string) string {
	// Snowflake joins (e.g. dim_product.subcategory_id =
	// dim_subcategory.subcategory_id) share the column name; fact joins
	// use the derived primary key (dim_store -> store_id).
	switch table {
	case "dim_store_format":
		return "format_id"
	case "dim_promo_type":
		return "promo_type_id"
	default:
		if strings.HasSuffix(leftCol, "_id") && leftCol != "sale_id" {
			return leftCol
		}
		return derived
	}
}

// TPCH generates TPC-H-shaped queries (0-8 joins) over the TPC-H-like
// catalog — the paper's point of comparison for compile memory. Like
// Sales, each query ends in a per-generator unique comment.
type TPCH struct {
	counter uint64
	buf     []byte // query-assembly scratch, reused across Next calls
}

// NewTPCH builds the generator.
func NewTPCH() *TPCH { return &TPCH{} }

// Name implements Generator.
func (g *TPCH) Name() string { return "tpch" }

// tpchChains are join paths of increasing length through the TPC-H graph.
var tpchChains = [][]string{
	{"lineitem"},
	{"lineitem", "orders"},
	{"lineitem", "orders", "customer"},
	{"lineitem", "orders", "customer", "nation"},
	{"lineitem", "orders", "customer", "nation", "region"},
	{"lineitem", "part", "partsupp"},
	{"lineitem", "supplier", "nation", "region"},
	{"lineitem", "orders", "customer", "nation", "region", "part", "supplier"},
	{"lineitem", "orders", "customer", "nation", "region", "part", "partsupp", "supplier"},
}

var tpchEdges = map[[2]string][2]string{
	{"lineitem", "orders"}:   {"l_orderkey", "o_orderkey"},
	{"lineitem", "part"}:     {"l_partkey", "p_partkey"},
	{"lineitem", "supplier"}: {"l_suppkey", "s_suppkey"},
	{"orders", "customer"}:   {"o_custkey", "c_custkey"},
	{"customer", "nation"}:   {"c_nationkey", "n_nationkey"},
	{"supplier", "nation"}:   {"s_nationkey", "n_nationkey"},
	{"nation", "region"}:     {"n_regionkey", "r_regionkey"},
	{"part", "partsupp"}:     {"p_partkey", "ps_partkey"},
	{"lineitem", "partsupp"}: {"l_partkey", "ps_partkey"},
	{"partsupp", "supplier"}: {"ps_suppkey", "s_suppkey"},
}

// tpchPrefixes pre-renders each chain's static SQL through "BETWEEN ",
// built once per process. Each new table joins against the *earliest*
// already-joined table it has an edge to (insertion order), so the
// emitted join tree is deterministic — the old map-iteration scan could
// pick either endpoint for tables like partsupp that connect to several
// joined tables, making the query text depend on runtime map order.
var tpchPrefixes = sync.OnceValue(func() []string {
	prefixes := make([]string, len(tpchChains))
	for ci, chain := range tpchChains {
		var sb strings.Builder
		sb.WriteString("SELECT COUNT(*), SUM(lineitem.l_partkey) FROM lineitem")
		joined := []string{"lineitem"}
		for _, t := range chain[1:] {
			// Find an already-joined table with an edge to t.
			for _, prev := range joined {
				if cols, ok := tpchEdges[[2]string{prev, t}]; ok {
					fmt.Fprintf(&sb, " JOIN %s ON %s.%s = %s.%s", t, prev, cols[0], t, cols[1])
					joined = append(joined, t)
					break
				}
				if cols, ok := tpchEdges[[2]string{t, prev}]; ok {
					fmt.Fprintf(&sb, " JOIN %s ON %s.%s = %s.%s", t, t, cols[0], prev, cols[1])
					joined = append(joined, t)
					break
				}
			}
		}
		sb.WriteString(" WHERE lineitem.l_orderkey BETWEEN ")
		prefixes[ci] = sb.String()
	}
	return prefixes
})

// Next implements Generator.
func (g *TPCH) Next(rng *rand.Rand) string {
	prefix := tpchPrefixes()[rng.Intn(len(tpchChains))]
	buf := append(g.buf[:0], prefix...)
	buf = strconv.AppendInt(buf, rng.Int63n(1<<20), 10)
	buf = append(buf, " AND "...)
	buf = strconv.AppendInt(buf, 1<<20+rng.Int63n(1<<20), 10)
	g.counter++
	buf = append(buf, " /* u"...)
	buf = strconv.AppendUint(buf, g.counter, 10)
	buf = append(buf, " */"...)
	g.buf = buf
	return string(buf)
}

// OLTP generates small point queries over the SALES catalog's dimensions:
// the "small diagnostic/OLTP-class" queries that compile below the first
// monitor threshold. The literal pool is small so plan-cache hits occur.
type OLTP struct {
	// DistinctStatements bounds the number of unique query texts.
	DistinctStatements int
	stmts              []string // rendered statement pool, built on demand
}

// NewOLTP builds the generator with 50 distinct statements.
func NewOLTP() *OLTP { return &OLTP{DistinctStatements: 50} }

// WideStatementCount is the oltp-wide statement-pool size: wide enough
// that one node cannot see every statement often, so routing placement
// decides plan-cache warmth.
const WideStatementCount = 2000

// NewOLTPWide builds the wide-pool generator the cluster affinity
// experiments run.
func NewOLTPWide() *OLTP { return &OLTP{DistinctStatements: WideStatementCount} }

// Name implements Generator.
func (g *OLTP) Name() string { return "oltp" }

// oltpStatement renders the n-th distinct statement.
func oltpStatement(n int) string {
	switch n % 3 {
	case 0:
		return fmt.Sprintf("SELECT * FROM dim_customer WHERE dim_customer.customer_id = %d", n*101)
	case 1:
		return fmt.Sprintf("SELECT * FROM dim_product WHERE dim_product.product_id = %d", n*37)
	default:
		return fmt.Sprintf(
			"SELECT COUNT(*) FROM dim_store JOIN dim_city ON dim_store.city_id = dim_city.city_id WHERE dim_store.store_id = %d", n*13)
	}
}

// Statements returns the generator's complete closed statement set —
// every text Next can produce. Snapshots pre-fingerprint these so runs
// never parse them twice.
func (g *OLTP) Statements() []string {
	if len(g.stmts) != g.DistinctStatements {
		g.stmts = make([]string, g.DistinctStatements)
		for n := range g.stmts {
			g.stmts[n] = oltpStatement(n)
		}
	}
	return g.stmts
}

// Next implements Generator: a draw from the rendered statement pool, no
// per-call formatting.
func (g *OLTP) Next(rng *rand.Rand) string {
	return g.Statements()[rng.Intn(g.DistinctStatements)]
}

// Mix interleaves generators with weights.
type Mix struct {
	gens    []Generator
	weights []int
	total   int
}

// NewMix builds a weighted mix. Weights are relative integers.
func NewMix(gens []Generator, weights []int) *Mix {
	if len(gens) != len(weights) || len(gens) == 0 {
		panic("workload: mismatched mix")
	}
	m := &Mix{gens: gens, weights: weights}
	for _, w := range weights {
		if w <= 0 {
			panic("workload: non-positive weight")
		}
		m.total += w
	}
	return m
}

// Name implements Generator.
func (m *Mix) Name() string {
	names := make([]string, len(m.gens))
	for i, g := range m.gens {
		names[i] = g.Name()
	}
	return "mix(" + strings.Join(names, "+") + ")"
}

// Next implements Generator.
func (m *Mix) Next(rng *rand.Rand) string {
	n := rng.Intn(m.total)
	for i, w := range m.weights {
		if n < w {
			return m.gens[i].Next(rng)
		}
		n -= w
	}
	return m.gens[len(m.gens)-1].Next(rng)
}
