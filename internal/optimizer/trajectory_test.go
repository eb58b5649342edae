package optimizer

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"compilegate/internal/catalog"
	"compilegate/internal/plan"
	"compilegate/internal/sqlparser"
	"compilegate/internal/stats"
	"compilegate/internal/workload"
)

// updateTrajectory re-records testdata/trajectory.golden. Run
//
//	go test ./internal/optimizer -run TestTrajectoryGolden -update
//
// only with an *intentional* change to what the optimizer charges,
// reports or returns; a kernel refactor must reproduce the file
// byte-for-byte.
var updateTrajectory = flag.Bool("update", false, "re-record testdata/trajectory.golden")

const trajectoryPath = "testdata/trajectory.golden"

// trajectoryScale is the catalog scale every registered scenario runs
// at, so the corpus reaches the same budgets the simulations do.
const trajectoryScale = 0.04

type trajectoryStmt struct {
	name   string
	opt    *Optimizer // default config
	capped *Optimizer // MaxTasks 200
	q      *plan.Query
}

// trajectoryCorpus is the fixed statement set: 8 literal draws of each
// of the 10 SALES templates, one statement per TPC-H chain (0-7 joins),
// and the first 5 OLTP statements (all three shapes).
func trajectoryCorpus(t testing.TB) []trajectoryStmt {
	capped := DefaultConfig()
	capped.MaxTasks = 200
	optimizers := func(cat *catalog.Catalog) (*Optimizer, *Optimizer) {
		est := stats.NewEstimator(cat)
		return New(est, DefaultConfig()), New(est, capped)
	}
	salesOpt, salesCapped := optimizers(workload.SpecSales.NewCatalog(trajectoryScale, 8<<20))
	tpchOpt, tpchCapped := optimizers(workload.SpecTPCH.NewCatalog(trajectoryScale, 8<<20))

	var out []trajectoryStmt
	add := func(name, sql string, opt, capped *Optimizer) {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, sql)
		}
		out = append(out, trajectoryStmt{name: name, opt: opt, capped: capped, q: q})
	}
	// template returns sql's static part: everything before the literals.
	template := func(sql string) string { return sql[:strings.Index(sql, " WHERE ")] }

	// SALES: the generator picks templates at random, so draw until every
	// template has 8 statements; templates are numbered by first draw.
	const draws = 8
	sales := workload.NewSales()
	rng := rand.New(rand.NewSource(14))
	ordinal := map[string]int{}
	perTemplate := make([][]string, sales.Templates())
	for full := 0; full < sales.Templates(); {
		sql := sales.Next(rng)
		k, ok := ordinal[template(sql)]
		if !ok {
			k = len(ordinal)
			ordinal[template(sql)] = k
		}
		if len(perTemplate[k]) < draws {
			perTemplate[k] = append(perTemplate[k], sql)
			if len(perTemplate[k]) == draws {
				full++
			}
		}
	}
	for k, sqls := range perTemplate {
		for i, sql := range sqls {
			add(fmt.Sprintf("sales/t%d/%d", k, i), sql, salesOpt, salesCapped)
		}
	}

	// TPC-H: one statement per chain, numbered by first draw.
	tpch := workload.NewTPCH()
	seen := map[string]bool{}
	for len(seen) < 9 {
		sql := tpch.Next(rng)
		if !seen[template(sql)] {
			seen[template(sql)] = true
			add(fmt.Sprintf("tpch/c%d", len(seen)-1), sql, tpchOpt, tpchCapped)
		}
	}

	for i, sql := range workload.NewOLTP().Statements()[:5] {
		add(fmt.Sprintf("oltp/%d", i), sql, salesOpt, salesCapped)
	}
	return out
}

// trajectoryScript is one hook behaviour. Every script except "nohooks"
// records the ordered event stream the optimizer emits.
type trajectoryScript struct {
	name     string
	nilHooks bool // pass Hooks{}: the nil-callback branches
	capped   bool // optimizer with MaxTasks 200
	bePoll   int  // BestEffort answers true at this poll (1-based), once
	failAt   int  // Charge fails at this charge (1-based)
}

var trajectoryScripts = []trajectoryScript{
	{name: "nohooks", nilHooks: true},
	{name: "observe"},
	{name: "maxtasks200", capped: true},
	{name: "besteffort@1", bePoll: 1},
	{name: "besteffort@3", bePoll: 3},
	{name: "besteffort@10", bePoll: 10},
	{name: "chargefail@50", failAt: 50},
	{name: "chargefail@500", failAt: 500},
	{name: "chargefail@2000", failAt: 2000},
}

var errTrajectoryCharge = errors.New("scripted charge failure")

// trajectoryLine runs one statement under one script on a fresh
// exploration and renders the golden line: event count and FNV-1a hash of
// the ordered `c<n>` / `w<k>` / `b<0|1>` stream, then the plan's hash and
// scalars, or the error.
func trajectoryLine(s trajectoryStmt, sc trajectoryScript) string {
	line, _ := trajectoryRun(s, sc, nil)
	return line
}

// trajectoryCounts is what a scripted compilation did, for choosing the
// next script relative to it.
type trajectoryCounts struct {
	charges, polls int
}

// trajectoryRun is trajectoryLine on the exploration x, or on a fresh one
// when x is nil.
func trajectoryRun(s trajectoryStmt, sc trajectoryScript, x *Exploration) (string, trajectoryCounts) {
	events := fnv.New64a()
	var nEvents, charges, polls int
	event := func(kind byte, v int64) {
		nEvents++
		fmt.Fprintf(events, "%c%d\n", kind, v)
	}
	hooks := Hooks{
		Charge: func(n int64) error {
			event('c', n)
			charges++
			if charges == sc.failAt {
				return errTrajectoryCharge
			}
			return nil
		},
		Work: func(k int) { event('w', int64(k)) },
		BestEffort: func() bool {
			polls++
			fire := polls == sc.bePoll
			if fire {
				event('b', 1)
			} else {
				event('b', 0)
			}
			return fire
		},
	}
	if sc.nilHooks {
		hooks = Hooks{}
	}
	opt := s.opt
	if sc.capped {
		opt = s.capped
	}
	var p *plan.Plan
	var err error
	if x != nil {
		p, err = x.Optimize(hooks)
	} else {
		p, err = opt.Optimize(s.q, hooks)
	}
	counts := trajectoryCounts{charges, polls}
	head := fmt.Sprintf("%s %s events=%d/%016x", s.name, sc.name, nEvents, events.Sum64())
	if err != nil {
		return fmt.Sprintf("%s error=%v", head, err), counts
	}
	ph := fnv.New64a()
	ph.Write([]byte(p.String()))
	return fmt.Sprintf("%s plan=%016x cost=%v exprs=%d bytes=%d besteffort=%t",
		head, ph.Sum64(), p.Cost(), p.ExprsExplored, p.CompileBytes, p.BestEffort), counts
}

// TestRetainedTrajectoriesMatchFresh is the exactness contract of recorded
// exploration: a compilation played on an exploration that earlier
// compilations of the statement left behind — cut short of it, at it, or
// past it — is indistinguishable from one on a fresh exploration: same
// hook stream, same plan, same ExprsExplored and CompileBytes, same error.
// Every statement of the corpus is failed at charge k1, resubmitted to fail
// at k2 in {k1/2, k1, 2*k1}, then run to completion; and failed at k1,
// then cut by best-effort at a poll before, at and after the failed
// attempt's last, then run to completion. The expectation is always the
// same script on a fresh exploration, never the golden file.
func TestRetainedTrajectoriesMatchFresh(t *testing.T) {
	failAt := func(k int) trajectoryScript {
		return trajectoryScript{name: fmt.Sprintf("chargefail@%d", k), failAt: k}
	}
	cutAt := func(poll int) trajectoryScript {
		return trajectoryScript{name: fmt.Sprintf("besteffort@%d", poll), bePoll: poll}
	}
	complete := trajectoryScript{name: "observe"}
	for _, s := range trajectoryCorpus(t) {
		fresh := map[string]string{}
		play := func(x *Exploration, history string, sc trajectoryScript) trajectoryCounts {
			t.Helper()
			want, ok := fresh[sc.name]
			if !ok {
				want, _ = trajectoryRun(s, sc, nil)
				fresh[sc.name] = want
			}
			got, counts := trajectoryRun(s, sc, x)
			if got != want {
				t.Errorf("after %s:\n   got %s\n fresh %s", history, got, want)
			}
			return counts
		}
		for _, k1 := range []int{50, 500, 2000} {
			for _, k2 := range []int{k1 / 2, k1, 2 * k1} {
				x := s.opt.Explore(s.q)
				play(&x, "nothing", failAt(k1))
				play(&x, fmt.Sprintf("chargefail@%d", k1), failAt(k2))
				play(&x, fmt.Sprintf("chargefail@%d, chargefail@%d", k1, k2), complete)
				x.Release()
			}
			probe := s.opt.Explore(s.q)
			last := play(&probe, "nothing", failAt(k1)).polls
			probe.Release()
			for _, poll := range []int{last / 2, last, last + 1, 2*last + 1} {
				if poll < 1 {
					continue
				}
				x := s.opt.Explore(s.q)
				play(&x, "nothing", failAt(k1))
				play(&x, fmt.Sprintf("chargefail@%d", k1), cutAt(poll))
				play(&x, fmt.Sprintf("chargefail@%d, besteffort@%d", k1, poll), complete)
				x.Release()
			}
		}
	}
}

// TestTrajectoryGolden is the unit-level form of the kernel's exactness
// contract: for every statement of the corpus under every hook script,
// the same Charge/Work/BestEffort calls in the same order with the same
// answers honoured at the same points, and the same plan. The scenario
// goldens pin the same thing through whole simulations in ~70 s; this
// pins it at the optimizer's boundary in well under a second.
func TestTrajectoryGolden(t *testing.T) {
	var sb strings.Builder
	for _, s := range trajectoryCorpus(t) {
		for _, sc := range trajectoryScripts {
			sb.WriteString(trajectoryLine(s, sc))
			sb.WriteByte('\n')
		}
	}
	got := sb.String()

	if *updateTrajectory {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trajectoryPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d trajectory lines to %s", strings.Count(got, "\n"), trajectoryPath)
		return
	}

	want, err := os.ReadFile(trajectoryPath)
	if err != nil {
		t.Fatalf("no golden file (run with -update to record): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("trajectory has %d lines, golden %d", len(gotLines), len(wantLines))
	}
	shown := 0
	for i := 0; i < len(gotLines) && i < len(wantLines) && shown < 10; i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n   got %s\n  want %s", i+1, gotLines[i], wantLines[i])
			shown++
		}
	}
}

// TestRecycledPlansMatchFresh extracts every statement of the corpus onto
// the plan the statement before it left, back to back — larger and smaller
// plans, from the other catalog, cut by best-effort or not — and checks
// that each is the plan a fresh extraction builds: the same digest, cost,
// ExprsExplored, CompileBytes and best-effort mark.
func TestRecycledPlansMatchFresh(t *testing.T) {
	render := func(p *plan.Plan) string {
		h := fnv.New64a()
		h.Write([]byte(p.String()))
		return fmt.Sprintf("plan=%016x cost=%v exprs=%d bytes=%d besteffort=%t",
			h.Sum64(), p.Cost(), p.ExprsExplored, p.CompileBytes, p.BestEffort)
	}
	var prev *plan.Plan
	cuts := 0
	for i, s := range trajectoryCorpus(t) {
		hooks := func() Hooks {
			if i%2 == 0 {
				return Hooks{}
			}
			polls := 0
			return Hooks{BestEffort: func() bool { polls++; return polls == 3 }}
		}
		fresh, err := s.opt.Optimize(s.q, hooks()) // nothing recycled: a new plan
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if fresh.BestEffort {
			cuts++
		}
		if prev != nil {
			s.opt.Recycle(prev)
		}
		got, err := s.opt.Optimize(s.q, hooks())
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if prev != nil && got != prev {
			t.Fatalf("%s: extraction did not take the recycled plan", s.name)
		}
		if g, w := render(got), render(fresh); g != w {
			t.Errorf("%s on a recycled plan:\n   got %s\n fresh %s", s.name, g, w)
		}
		prev = got
	}
	if cuts == 0 {
		t.Error("no statement was cut by best-effort; the mark is never rewritten")
	}
}
