package workload

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"compilegate/internal/catalog"
	"compilegate/internal/sqlparser"
	"compilegate/internal/stats"
	"compilegate/internal/vtime"

	"compilegate/internal/optimizer"
)

func TestSalesTemplatesParseAndJoinCounts(t *testing.T) {
	s := NewSales()
	if s.Templates() != 10 {
		t.Fatalf("templates = %d, paper says 10", s.Templates())
	}
	rng := rand.New(rand.NewSource(1))
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		sql := s.Next(rng)
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("template produced unparseable SQL: %v\n%s", err, sql)
		}
		nj := q.NumJoins()
		if nj < 15 || nj > 20 {
			t.Fatalf("join count = %d, paper says 15-20\n%s", nj, sql)
		}
		seen[nj] = true
		if q.Aggregates == 0 {
			t.Fatal("no aggregates")
		}
		if len(q.GroupBy) == 0 {
			t.Fatal("no GROUP BY")
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("invalid query: %v", err)
		}
	}
	if len(seen) < 3 {
		t.Fatalf("join-count variety too small: %v", seen)
	}
}

func TestSalesQueriesOptimizeAgainstCatalog(t *testing.T) {
	cat := catalog.NewSales(catalog.SalesConfig{Scale: 0.01, ExtentBytes: 8 << 20})
	opt := optimizer.New(stats.NewEstimator(cat), optimizer.DefaultConfig())
	s := NewSales()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		sql := s.Next(rng)
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := opt.Optimize(q, optimizer.Hooks{}); err != nil {
			t.Fatalf("optimize failed: %v\n%s", err, sql)
		}
	}
}

func TestSalesUniquification(t *testing.T) {
	s := NewSales()
	rng := rand.New(rand.NewSource(3))
	fps := map[string]bool{}
	for i := 0; i < 100; i++ {
		fp := sqlparser.Fingerprint(s.Next(rng))
		if fps[fp] {
			t.Fatal("duplicate fingerprint: uniquifier broken")
		}
		fps[fp] = true
	}
	s.Uniquify = false
	// Without uniquification duplicates are possible (same template+literals
	// unlikely, but the counter comment must be gone).
	if strings.Contains(s.Next(rng), "/* u") {
		t.Fatal("uniquifier comment present with Uniquify=false")
	}
}

func TestHeavyTemplatesAreRare(t *testing.T) {
	s := NewSales()
	rng := rand.New(rand.NewSource(4))
	heavy := 0
	n := 3000
	for i := 0; i < n; i++ {
		sql := s.Next(rng)
		// Only the heavy templates can scan > 19% of the date domain.
		q, _ := sqlparser.Parse(sql)
		for _, p := range q.Table("sales_fact").Preds {
			if p.Op == "between" && float64(p.Hi-p.Lo) > 0.19*float64(dateDomain) {
				heavy++
			}
		}
	}
	frac := float64(heavy) / float64(n)
	if frac == 0 || frac > 0.08 {
		t.Fatalf("very-wide-scan fraction = %v, want rare but nonzero (~%v of draws are heavy)", frac, heavyProb)
	}
}

func TestTPCHJoinRange(t *testing.T) {
	g := NewTPCH()
	cat := catalog.NewTPCHLike(0.001, 8<<20)
	opt := optimizer.New(stats.NewEstimator(cat), optimizer.DefaultConfig())
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		sql := g.Next(rng)
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("%v\n%s", err, sql)
		}
		if q.NumJoins() > 8 {
			t.Fatalf("tpch joins = %d, paper says 0-8", q.NumJoins())
		}
		if _, err := opt.Optimize(q, optimizer.Hooks{}); err != nil {
			t.Fatalf("optimize: %v\n%s", err, sql)
		}
	}
}

func TestOLTPSmallAndCacheable(t *testing.T) {
	g := NewOLTP()
	rng := rand.New(rand.NewSource(6))
	fps := map[string]bool{}
	for i := 0; i < 500; i++ {
		sql := g.Next(rng)
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Tables) > 2 {
			t.Fatalf("oltp query touches %d tables", len(q.Tables))
		}
		fps[sqlparser.Fingerprint(sql)] = true
	}
	if len(fps) > g.DistinctStatements {
		t.Fatalf("distinct statements = %d > %d: cache cannot work", len(fps), g.DistinctStatements)
	}
}

func TestMix(t *testing.T) {
	m := NewMix([]Generator{NewOLTP(), NewSales()}, []int{3, 1})
	rng := rand.New(rand.NewSource(7))
	oltp := 0
	for i := 0; i < 400; i++ {
		if !strings.Contains(m.Next(rng), "sales_fact") {
			oltp++
		}
	}
	if oltp < 220 || oltp > 380 {
		t.Fatalf("oltp share = %d/400, want ~300", oltp)
	}
	if !strings.Contains(m.Name(), "oltp") || !strings.Contains(m.Name(), "sales") {
		t.Fatalf("mix name = %q", m.Name())
	}
}

type fakeSubmitter struct {
	calls  int
	failAt map[int]bool
}

func (f *fakeSubmitter) SubmitThen(t *vtime.Task, sql string, errp *error, k vtime.Step) {
	f.calls++
	fail := f.failAt[f.calls]
	t.SleepThen(time.Second, vtime.StepFunc(func(t *vtime.Task) {
		*errp = nil
		if fail {
			*errp = errFake
		}
		k.Run(t)
	}))
}

var errFake = &fakeError{}

type fakeError struct{}

func (*fakeError) Error() string { return "fake" }

func TestLoadGeneratorRunsClients(t *testing.T) {
	sched := vtime.NewScheduler()
	sub := &fakeSubmitter{failAt: map[int]bool{}}
	cfg := LoadConfig{
		Clients: 5, Horizon: time.Minute, ThinkTime: time.Second,
		MaxRetries: 1, BackoffBase: time.Second, BackoffCap: time.Second, Seed: 1,
	}
	done := false
	stats := Run(sched, sub, NewOLTP(), cfg, func() { done = true })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("onAllDone never fired")
	}
	if stats.Submitted == 0 || stats.Succeeded != stats.Submitted {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestLoadGeneratorRetries(t *testing.T) {
	sched := vtime.NewScheduler()
	sub := &fakeSubmitter{failAt: map[int]bool{1: true, 2: true, 3: true, 4: true}}
	cfg := LoadConfig{
		Clients: 1, Horizon: 30 * time.Second, ThinkTime: time.Second,
		MaxRetries: 2, BackoffBase: time.Second, BackoffCap: time.Second, Seed: 1,
	}
	stats := Run(sched, sub, NewOLTP(), cfg, nil)
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	// First query fails 3 times (initial + 2 retries) => Failed 1; the
	// 4th call is the second query's first attempt, which also fails and
	// is retried once (call 5 succeeds).
	if stats.Failed != 1 {
		t.Fatalf("failed = %d, want 1 (stats %+v)", stats.Failed, stats)
	}
	if stats.Retries < 3 {
		t.Fatalf("retries = %d, want >= 3", stats.Retries)
	}
}

func TestLoadHorizonStopsClients(t *testing.T) {
	sched := vtime.NewScheduler()
	sub := &fakeSubmitter{failAt: map[int]bool{}}
	cfg := LoadConfig{Clients: 3, Horizon: 10 * time.Second, ThinkTime: time.Second, Seed: 1}
	Run(sched, sub, NewOLTP(), cfg, nil)
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if sched.Now() > 15*time.Second {
		t.Fatalf("clients ran past horizon: %v", sched.Now())
	}
}

func TestBackoffFor(t *testing.T) {
	// rng is nil for every jitter-free case: without jitter a backoff must
	// not draw from the client RNG, or it would shift every later query.
	cases := []struct {
		name    string
		cfg     LoadConfig
		attempt int
		want    time.Duration
	}{
		{"default-fixed", DefaultLoadConfig(1), 1, 5 * time.Second},
		{"default-fixed-late-attempt", DefaultLoadConfig(1), 50, 5 * time.Second},
		{"exp-first", LoadConfig{BackoffBase: 500 * time.Millisecond}, 1, 500 * time.Millisecond},
		{"exp-doubles", LoadConfig{BackoffBase: 500 * time.Millisecond}, 5, 8 * time.Second},
		{"exp-capped", LoadConfig{BackoffBase: 500 * time.Millisecond, BackoffCap: 10 * time.Second}, 10, 10 * time.Second},
		// Overflowing shifts must pin to the cap, never wrap. 500ms << 38
		// wraps to a *positive* 8.3e18 ns (~263 years), which a sign check
		// on the shifted result cannot catch — the overflow has to be
		// detected before shifting.
		{"overflow-wraps-positive", LoadConfig{BackoffBase: 500 * time.Millisecond, BackoffCap: 10 * time.Second}, 39, 10 * time.Second},
		{"overflow-wraps-positive-uncapped", LoadConfig{BackoffBase: 500 * time.Millisecond}, 39, 500 * time.Millisecond},
		{"overflow-huge-attempt", LoadConfig{BackoffBase: 500 * time.Millisecond, BackoffCap: 10 * time.Second}, 1000, 10 * time.Second},
		{"overflow-uncapped-pins-to-base", LoadConfig{BackoffBase: 500 * time.Millisecond}, 1000, 500 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := tc.cfg.Backoff(nil, tc.attempt); got != tc.want {
			t.Errorf("%s: Backoff(attempt=%d) = %v, want %v", tc.name, tc.attempt, got, tc.want)
		}
	}
}

func TestBackoffForNeverNegative(t *testing.T) {
	// Sweep every attempt a run could plausibly reach (and far past):
	// backoff must stay positive and respect the cap everywhere.
	cfg := LoadConfig{BackoffBase: 500 * time.Millisecond, BackoffCap: 10 * time.Second}
	for attempt := 1; attempt <= 200; attempt++ {
		d := cfg.Backoff(nil, attempt)
		if d <= 0 || d > cfg.BackoffCap {
			t.Fatalf("attempt %d: backoff %v escapes (0, %v]", attempt, d, cfg.BackoffCap)
		}
	}
}

func TestBackoffForJitterBounds(t *testing.T) {
	cfg := LoadConfig{BackoffBase: time.Second, BackoffCap: 10 * time.Second, BackoffJitter: 0.3}
	rng := rand.New(rand.NewSource(7))
	for attempt := 1; attempt <= 20; attempt++ {
		d := cfg.Backoff(rng, attempt)
		base := time.Second << uint(attempt-1)
		if attempt > 4 { // 16s > cap
			base = cfg.BackoffCap
		}
		lo := time.Duration(float64(base) * 0.7)
		hi := time.Duration(float64(base) * 1.3)
		if d < lo || d >= hi {
			t.Fatalf("attempt %d: jittered backoff %v outside [%v, %v)", attempt, d, lo, hi)
		}
	}
}

func TestOLTPWideSpec(t *testing.T) {
	sp, err := ParseSpec("oltp-wide")
	if err != nil || sp != SpecOLTPWide {
		t.Fatalf("ParseSpec(oltp-wide) = %v, %v", sp, err)
	}
	stmts := SpecOLTPWide.StaticStatements()
	if len(stmts) != WideStatementCount {
		t.Fatalf("wide statement pool = %d, want %d", len(stmts), WideStatementCount)
	}
	seen := make(map[string]bool, len(stmts))
	for _, s := range stmts {
		seen[s] = true
	}
	if len(seen) != len(stmts) {
		t.Fatalf("wide pool has %d distinct of %d statements", len(seen), len(stmts))
	}
	// The generator only ever draws from the closed pool.
	gen := SpecOLTPWide.Generator()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		if q := gen.Next(rng); !seen[q] {
			t.Fatalf("generator produced statement outside the closed pool: %q", q)
		}
	}
}
