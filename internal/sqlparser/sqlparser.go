// Package sqlparser parses the SQL subset the simulated engine accepts —
// SELECT blocks with aggregates, INNER JOIN ... ON equality chains,
// conjunctive WHERE predicates, and GROUP BY — into the optimizer's
// plan.Query, and fingerprints query text for the plan cache.
//
// The subset is exactly the shape of the paper's workloads: star/snowflake
// join-aggregate queries (SALES, TPC-H-like) and small point queries
// (OLTP, diagnostics).
package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"compilegate/internal/plan"
	"compilegate/internal/stats"
)

// Hash64 is the FNV-1a hash of s. It backs Fingerprint and the engine's
// per-query execution seeds, inlined so the per-statement hot path
// allocates nothing.
func Hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

const hexDigits = "0123456789abcdef"

// hex16 spells h as 16 lower-case hex digits.
func hex16(h uint64) (buf [16]byte) {
	for i := 15; i >= 0; i-- {
		buf[i] = hexDigits[h&0xf]
		h >>= 4
	}
	return buf
}

// Fingerprint hashes query text for plan-cache lookup. Any textual
// difference (including comments) yields a new fingerprint, which is how
// the paper's load generator defeats plan caching [7]. It is Hash64(sql)
// in hex; the engine keys on the integer.
func Fingerprint(sql string) string {
	buf := hex16(Hash64(sql))
	return string(buf[:])
}

// FingerprintHash is Hash64(Fingerprint(sql)) for h = Hash64(sql) — the
// statement's execution-locality seed and affinity hash — without building
// the string.
func FingerprintHash(h uint64) uint64 {
	buf := hex16(h)
	return Hash64(string(buf[:]))
}

// lexerPool recycles token buffers across Parse calls; Parse runs from
// concurrently-sweeping schedulers, so the pool must be synchronized.
var lexerPool = sync.Pool{New: func() any { return &lexer{} }}

// Parse converts SQL text to a plan.Query. The returned query carries the
// original text.
func Parse(sql string) (*plan.Query, error) {
	q := new(plan.Query)
	if err := ParseInto(q, sql); err != nil {
		return nil, err
	}
	return q, nil
}

// ParseInto parses sql into q, which is Reset first: its slices keep
// their backing storage, so a pooled query re-parses without
// allocating. On error q holds partial state and must be Reset (or
// re-ParseInto) before use.
func ParseInto(q *plan.Query, sql string) error {
	q.Reset()
	l := lexerPool.Get().(*lexer)
	l.lex(sql)
	p := parser{lex: l, q: q}
	err := p.parse()
	l.src = l.src[:0]
	l.pos = 0
	lexerPool.Put(l)
	if err != nil {
		return fmt.Errorf("sqlparser: %w", err)
	}
	q.Text = sql
	return nil
}

// keywords interns the lower-case form of the dialect's (upper-case)
// keywords and aggregate names — every word the parser compares a token
// against — so lexing a statement allocates no lowered string per keyword.
var keywords = map[string]string{
	"select": "select", "from": "from", "where": "where", "and": "and",
	"or": "or", "inner": "inner", "join": "join", "on": "on",
	"group": "group", "by": "by", "as": "as", "sum": "sum",
	"count": "count", "avg": "avg", "min": "min", "max": "max",
	"distinct": "distinct", "order": "order", "having": "having",
	"between": "between",
}

// lowerIdent lower-cases an identifier token, interning keywords and
// returning already-lower-case text (the common case for table and
// column names) without allocating.
func lowerIdent(s string) string {
	hasUpper := false
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'Z' {
			hasUpper = true
			break
		}
	}
	if !hasUpper {
		return s
	}
	var buf [24]byte
	if len(s) <= len(buf) {
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[i] = c
		}
		if kw, ok := keywords[string(buf[:len(s)])]; ok {
			return kw
		}
	}
	return strings.ToLower(s)
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokSymbol // ( ) , . = < > <= >=
	tokString
)

type token struct {
	kind tokKind
	text string // identifiers lower-cased; symbols literal
	num  int64
}

// symbolText interns every single-byte symbol's text so emitting a
// symbol token never allocates (string(c) would heap-allocate per call).
var symbolText = func() (t [256]string) {
	for _, c := range []byte("(),.=<>*") {
		t[c] = string([]byte{c})
	}
	return
}()

type lexer struct {
	src []token
	pos int
}

// lex tokenizes s into l.src (reusing its capacity).
func (l *lexer) lex(s string) {
	l.src = l.src[:0]
	l.pos = 0
	i, n := 0, len(s)
	for i < n {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/' && i+1 < n && s[i+1] == '*':
			end := strings.Index(s[i+2:], "*/")
			if end < 0 {
				i = n
			} else {
				i += 2 + end + 2
			}
		case c == '-' && i+1 < n && s[i+1] == '-':
			for i < n && s[i] != '\n' {
				i++
			}
		case isAlpha(c):
			j := i
			for j < n && (isAlpha(s[j]) || isDigit(s[j])) {
				j++
			}
			l.src = append(l.src, token{kind: tokIdent, text: lowerIdent(s[i:j])})
			i = j
		case isDigit(c) || (c == '-' && i+1 < n && isDigit(s[i+1])):
			j := i + 1
			for j < n && isDigit(s[j]) {
				j++
			}
			v, _ := strconv.ParseInt(s[i:j], 10, 64)
			l.src = append(l.src, token{kind: tokNumber, num: v, text: s[i:j]})
			i = j
		case c == '<' && i+1 < n && s[i+1] == '=':
			l.src = append(l.src, token{kind: tokSymbol, text: "<="})
			i += 2
		case c == '>' && i+1 < n && s[i+1] == '=':
			l.src = append(l.src, token{kind: tokSymbol, text: ">="})
			i += 2
		case strings.ContainsRune("(),.=<>*", rune(c)):
			l.src = append(l.src, token{kind: tokSymbol, text: symbolText[c]})
			i++
		case c == '\'':
			j := i + 1
			for j < n && s[j] != '\'' {
				j++
			}
			if j < n {
				j++
			}
			l.src = append(l.src, token{kind: tokString, text: s[i:j]})
			i = j
		default:
			// Unknown byte: skip (robustness over strictness for a
			// simulator's dialect).
			i++
		}
	}
}

func isAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}
func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *lexer) peek() token {
	if l.pos >= len(l.src) {
		return token{kind: tokEOF}
	}
	return l.src[l.pos]
}

func (l *lexer) next() token {
	t := l.peek()
	l.pos++
	return t
}

type parser struct {
	lex *lexer
	q   *plan.Query
}

func (p *parser) expectIdent(word string) error {
	t := p.lex.next()
	if t.kind != tokIdent || t.text != word {
		return fmt.Errorf("expected %s, got %q", strings.ToUpper(word), t.text)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.lex.next()
	if t.kind != tokSymbol || t.text != sym {
		return fmt.Errorf("expected %q, got %q", sym, t.text)
	}
	return nil
}

func (p *parser) parse() error {
	if err := p.expectIdent("select"); err != nil {
		return err
	}
	if err := p.selectList(); err != nil {
		return err
	}
	if err := p.expectIdent("from"); err != nil {
		return err
	}
	if err := p.fromClause(); err != nil {
		return err
	}
	for {
		t := p.lex.peek()
		if t.kind != tokIdent {
			break
		}
		switch t.text {
		case "where":
			p.lex.next()
			if err := p.whereClause(); err != nil {
				return err
			}
		case "group":
			p.lex.next()
			if err := p.expectIdent("by"); err != nil {
				return err
			}
			if err := p.groupByClause(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unexpected %q", t.text)
		}
	}
	if t := p.lex.peek(); t.kind != tokEOF {
		return fmt.Errorf("trailing input at %q", t.text)
	}
	return nil
}

var aggFuncs = map[string]bool{
	"sum": true, "count": true, "avg": true, "min": true, "max": true,
}

// selectList parses output expressions: columns, * and aggregate calls.
func (p *parser) selectList() error {
	for {
		t := p.lex.next()
		switch {
		case t.kind == tokSymbol && t.text == "*":
			// plain star: no aggregate
		case t.kind == tokIdent && aggFuncs[t.text]:
			p.q.Aggregates++
			if err := p.expectSymbol("("); err != nil {
				return err
			}
			depth := 1
			for depth > 0 {
				in := p.lex.next()
				switch {
				case in.kind == tokEOF:
					return fmt.Errorf("unterminated aggregate call")
				case in.kind == tokSymbol && in.text == "(":
					depth++
				case in.kind == tokSymbol && in.text == ")":
					depth--
				}
			}
		case t.kind == tokIdent:
			// qualified or bare column: consume optional .col
			if p.lex.peek().kind == tokSymbol && p.lex.peek().text == "." {
				p.lex.next()
				if c := p.lex.next(); c.kind != tokIdent {
					return fmt.Errorf("expected column after %s.", t.text)
				}
			}
		default:
			return fmt.Errorf("bad select expression %q", t.text)
		}
		if p.lex.peek().kind == tokSymbol && p.lex.peek().text == "," {
			p.lex.next()
			continue
		}
		return nil
	}
}

// fromClause parses: table (JOIN table ON t.c = t.c)*.
func (p *parser) fromClause() error {
	t := p.lex.next()
	if t.kind != tokIdent {
		return fmt.Errorf("expected table name, got %q", t.text)
	}
	p.q.AppendTable(t.text)
	for {
		nx := p.lex.peek()
		if nx.kind != tokIdent || (nx.text != "join" && nx.text != "inner") {
			return nil
		}
		p.lex.next()
		if nx.text == "inner" {
			if err := p.expectIdent("join"); err != nil {
				return err
			}
		}
		tt := p.lex.next()
		if tt.kind != tokIdent {
			return fmt.Errorf("expected table after JOIN, got %q", tt.text)
		}
		p.q.AppendTable(tt.text)
		if err := p.expectIdent("on"); err != nil {
			return err
		}
		aT, _, err := p.colRef()
		if err != nil {
			return err
		}
		if err := p.expectSymbol("="); err != nil {
			return err
		}
		bT, _, err := p.colRef()
		if err != nil {
			return err
		}
		p.q.Joins = append(p.q.Joins, plan.JoinEdge{A: aT, B: bT})
	}
}

// colRef parses table.column.
func (p *parser) colRef() (table, column string, err error) {
	t := p.lex.next()
	if t.kind != tokIdent {
		return "", "", fmt.Errorf("expected table.column, got %q", t.text)
	}
	if err := p.expectSymbol("."); err != nil {
		return "", "", err
	}
	c := p.lex.next()
	if c.kind != tokIdent {
		return "", "", fmt.Errorf("expected column after %s., got %q", t.text, c.text)
	}
	return t.text, c.text, nil
}

// whereClause parses pred (AND pred)*.
func (p *parser) whereClause() error {
	for {
		table, col, err := p.colRef()
		if err != nil {
			return err
		}
		op := p.lex.next()
		pred := stats.Pred{Table: table, Column: col}
		switch {
		case op.kind == tokSymbol && op.text == "=":
			v := p.lex.next()
			if v.kind != tokNumber {
				return fmt.Errorf("expected number after =, got %q", v.text)
			}
			pred.Op, pred.Lo, pred.Hi = "=", v.num, v.num
		case op.kind == tokSymbol && (op.text == "<=" || op.text == "<"):
			v := p.lex.next()
			if v.kind != tokNumber {
				return fmt.Errorf("expected number after %s", op.text)
			}
			pred.Op, pred.Hi = "<=", v.num
		case op.kind == tokSymbol && (op.text == ">=" || op.text == ">"):
			v := p.lex.next()
			if v.kind != tokNumber {
				return fmt.Errorf("expected number after %s", op.text)
			}
			pred.Op, pred.Lo = ">=", v.num
		case op.kind == tokIdent && op.text == "between":
			lo := p.lex.next()
			if lo.kind != tokNumber {
				return fmt.Errorf("expected number after BETWEEN")
			}
			if err := p.expectIdent("and"); err != nil {
				return err
			}
			hi := p.lex.next()
			if hi.kind != tokNumber {
				return fmt.Errorf("expected number after BETWEEN ... AND")
			}
			pred.Op, pred.Lo, pred.Hi = "between", lo.num, hi.num
		default:
			return fmt.Errorf("unsupported predicate operator %q", op.text)
		}
		// Attach to the table term (predicates on unlisted tables are a
		// validation error downstream).
		term := p.q.Table(table)
		if term == nil {
			return fmt.Errorf("WHERE references table %s not in FROM", table)
		}
		term.Preds = append(term.Preds, pred)

		if t := p.lex.peek(); t.kind == tokIdent && t.text == "and" {
			p.lex.next()
			continue
		}
		return nil
	}
}

// groupByClause parses table.column (, table.column)*.
func (p *parser) groupByClause() error {
	for {
		table, col, err := p.colRef()
		if err != nil {
			return err
		}
		p.q.GroupBy = append(p.q.GroupBy, plan.ColRef{Table: table, Column: col})
		if t := p.lex.peek(); t.kind == tokSymbol && t.text == "," {
			p.lex.next()
			continue
		}
		return nil
	}
}
