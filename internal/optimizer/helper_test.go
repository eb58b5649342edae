package optimizer

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"compilegate/internal/memo"
	"compilegate/internal/plan"
)

// helperCase is one exploration's life: the compilations played on it, in
// order. Every one but the last is a failed or cut compilation a later one
// replays.
type helperCase struct {
	stmt    string
	scripts []spanScript
}

// helperStmt is a statement and the optimizer that compiles it.
type helperStmt struct {
	o *Optimizer
	q *plan.Query
}

// helperStatements are spanStatements, whose compilations end at their
// budget — the default one, past the helper's lookahead, and one of ten
// batches and ten tasks, inside it, so the helper takes the run to final at
// the first request — and two stars whose search space ends first: inside a
// work batch past the first, and on a batch boundary.
func helperStatements(t *testing.T) map[string]helperStmt {
	o, stmts := spanStatements(t)
	cfg := o.cfg
	cfg.MaxTasks = 10*cfg.WorkBatch + 10
	ten := New(o.est, cfg)
	out := map[string]helperStmt{"star4": {o, starQuery(4)}, "star6": {o, starQuery(6)}}
	for name, q := range stmts {
		out[name], out[name+"/ten batches"] = helperStmt{o, q}, helperStmt{ten, q}
	}
	return out
}

// helperCases covers what a compilation can do to a run the helper works on:
// run to its budget or to the end of the search space (where the helper may
// have solved the DP), fail a charge early and late (so the exploration is
// released, or replayed, with the helper's request still queued), fail its
// codegen there (with the helper's DP, perhaps, solved during it), stop at a
// best-effort poll — two of the last, short of the prefix the helper solves
// — pass a gate, and replay a tape shorter and longer than it needs, or one
// whose last compilation failed in codegen.
func helperCases(t *testing.T, stmts map[string]helperStmt) []helperCase {
	var out []helperCase
	for name, s := range stmts {
		cost, err := s.o.estimateInitialCost(s.q)
		if err != nil {
			t.Fatal(err)
		}
		lastPoll, unit := s.o.effortBudget(cost)/s.o.cfg.WorkBatch, s.o.cfg.Memo.BytesPerExpr
		for _, history := range [][]spanScript{nil, {{failAt: 150}}, {{failAt: 700}, {bePoll: 2}}, {{failCodegen: true}}} {
			for _, sc := range []spanScript{{}, {failAt: 1}, {failAt: 41}, {failAt: 1500}, {failCodegen: true}, {bePoll: 1}, {bePoll: 7}, {bePoll: lastPoll - 4}, {bePoll: lastPoll}, {gateAt: 150}, {limit: 700 * unit}} {
				out = append(out, helperCase{name, append(slices.Clone(history), sc)})
			}
		}
	}
	return out
}

// play runs the case on a fresh exploration and returns every compilation's
// log. Before it releases the exploration it checks that the run holds no DP
// tables, as a retained one must not, and the run's record against want, the
// statement's tape and marks as a lone player left them: the tape is a pure
// function of the statement, so whatever the helper added, the two agree as
// far as both go.
func (c helperCase) play(t *testing.T, s helperStmt, want *run) []string {
	x := s.o.Explore(s.q)
	defer x.Release()
	var logs []string
	for _, sc := range c.scripts {
		log, _ := sc.play(t, s.o, s.q, &x, true)
		logs = append(logs, log)
	}
	if r := x.r; r != nil && want != nil {
		r.take()
		if r.t != nil {
			t.Errorf("%s %+v: the exploration holds DP tables between compilations", c.stmt, c.scripts)
		}
		n := min(len(r.tape), len(want.tape))
		if !slices.Equal(r.tape[:n], want.tape[:n]) {
			t.Errorf("%s %+v: the tape differs from a lone player's within their first %d segments", c.stmt, c.scripts, n)
		}
		m := min(r.nmarks.Load(), want.nmarks.Load())
		if !slices.Equal(r.marks[:m], want.marks[:m]) {
			t.Errorf("%s %+v: the marks differ from a lone player's within their first %d", c.stmt, c.scripts, m)
		}
		r.mu.Unlock()
	}
	return logs
}

// TestHelperIsUnobservable is the helper's exactness contract and its stress
// test: goroutines play every case at once on pooled runs — failing charges,
// failing codegens, best-effort stops, retained replays, releases with a
// request queued — and each compilation's log (every hook call with the
// governor's state, the error or the plan's digest, cost, ExprsExplored and
// CompileBytes) and each run's tape and marks must be what one goroutine
// without a helper produced.
// With a core spare the helper must have taken steps and solved DPs, or the
// test proves nothing. CI runs it under -race at GOMAXPROCS 1 (the helper
// stands down), 2 and 4.
func TestHelperIsUnobservable(t *testing.T) {
	stmts := helperStatements(t)
	cases := helperCases(t, stmts)

	was := setHelper(false)
	records := map[string]*run{}
	for name, s := range stmts {
		x := s.o.Explore(s.q)
		spanScript{}.play(t, s.o, s.q, &x, true)
		records[name] = x.r // kept out of the pool: never released
	}
	want := make([][]string, len(cases))
	for i, c := range cases {
		want[i] = c.play(t, stmts[c.stmt], records[c.stmt])
	}
	setHelper(was)

	if len(cases)%7 == 0 {
		t.Fatalf("%d cases: the workers' stride of 7 no longer visits them all", len(cases))
	}
	// An engine's Work hook parks the compilation while the event loop runs
	// others; that is the time the helper gets ahead in.
	spanWorkPause = func() {
		for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
		}
	}
	defer func() { spanWorkPause = nil }()
	before := HelperStats()
	// One worker leaves the helper a core of its own, as a simulation's event
	// loop does; several fight it for the cores and for the pools.
	for _, workers := range []int{1, 5} {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := range cases {
					i := (j*7 + w*11) % len(cases) // 7 is coprime to the case count: each worker's own order
					c := cases[i]
					got := c.play(t, stmts[c.stmt], records[c.stmt])
					for k := range got {
						if got[k] != want[i][k] {
							t.Errorf("%s %+v, compilation %d: with the helper %s", c.stmt, c.scripts, k, firstDiff(got[k], want[i][k]))
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
	after := HelperStats()
	t.Logf("kernel steps: %d by the helper, %d inline; %d requests, %d hand-offs, %d parks; %d DPs solved, %d found by their player, %d abandoned",
		after.HelperSteps-before.HelperSteps, after.InlineSteps-before.InlineSteps,
		after.Requests-before.Requests, after.Handoffs-before.Handoffs, after.Parks-before.Parks,
		after.Solves-before.Solves, after.SolveHits-before.SolveHits, after.SolvesAbandoned-before.SolvesAbandoned)
	if spare := runtime.GOMAXPROCS(0) > 1; spare != (after.HelperSteps > before.HelperSteps) || spare != (after.Solves > before.Solves) {
		t.Errorf("GOMAXPROCS %d: the helper took %d kernel steps and solved %d DPs", runtime.GOMAXPROCS(0),
			after.HelperSteps-before.HelperSteps, after.Solves-before.Solves)
	}
}

// finalRun opens q's exploration with a compilation that fails at its first
// charge and advances it, with no helper, to final; the caller holds it.
func finalRun(t *testing.T, o *Optimizer, q *plan.Query) (Exploration, *run) {
	x := o.Explore(q)
	spanScript{failAt: 1}.play(t, o, q, &x, true)
	r := x.r
	r.take()
	for r.final.pos == 0 && r.advance() {
	}
	return x, r
}

// TestHelperSolveMatchesInline pins that the DP the helper leaves at final is
// the one a player solves there, entry by entry, with the same cardinalities:
// on a run whose cards a best-effort extraction filled part of, and on one
// with only the initial plan's; and that the player takes it instead of
// solving.
func TestHelperSolveMatchesInline(t *testing.T) {
	defer setHelper(setHelper(false))
	for name, s := range helperStatements(t) {
		for _, cut := range []bool{false, true} {
			x, r := finalRun(t, s.o, s.q)
			if cut {
				r.extract(batchMark{r.marks[0].pos, r.marks[0].groups, r.marks[0].exprs}, new(plan.Plan))
			}
			r.mu.Unlock()
			r.target.Store(1) // a compilation asks the helper
			r.solveFinal()    // what the helper runs
			r.take()
			if r.solved != r.final {
				t.Fatalf("%s cut=%t: the helper's solve at %+v was left unfinished (%+v)", name, cut, r.final, r.solved)
			}
			n := int(r.final.groups)
			dp, cards := slices.Clone(r.t.dp[:n]), slices.Clone(r.cards[:n])

			y, inline := finalRun(t, s.o, s.q)
			if inline.final != r.final {
				t.Fatalf("%s: two explorations' finals differ: %+v, %+v", name, r.final, inline.final)
			}
			inline.solve(inline.final, false)
			for g := 0; g < n; g++ {
				if dp[g] != inline.t.dp[g] || cards[g] != inline.cards[g] {
					t.Fatalf("%s cut=%t, group %d: the helper solved %+v at %v rows, a player %+v at %v", name, cut, g, dp[g], cards[g], inline.t.dp[g], inline.cards[g])
				}
			}
			want := inline.extract(inline.final, new(plan.Plan)).String()
			before := HelperStats().SolveHits
			if got := r.extract(r.final, new(plan.Plan)).String(); got != want {
				t.Errorf("%s cut=%t: the plan from the helper's DP differs:\n%s\nvs\n%s", name, cut, got, want)
			}
			if HelperStats().SolveHits == before {
				t.Errorf("%s cut=%t: the player solved again instead of taking the helper's DP", name, cut)
			}
			r.mu.Unlock()
			inline.mu.Unlock()
			x.Release()
			y.Release()
		}
	}
}

// TestAbandonedSolveIsNeverUsed pins the other half: a helper solve that a
// waiting player cuts short — in the cardinalities or in the DP — leaves
// nothing the player takes. The tables it leaves are scribbled over, and the
// plan must still be a lone player's.
func TestAbandonedSolveIsNeverUsed(t *testing.T) {
	defer setHelper(setHelper(false))
	o, stmts := spanStatements(t)
	for name, q := range stmts {
		lone, err := o.Optimize(q, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		for _, inDP := range []bool{false, true} {
			x, r := finalRun(t, o, q)
			from := len(r.cards)
			if inDP {
				r.fillCards(int(r.final.groups), false)
			}
			r.mu.Unlock()
			before := HelperStats()
			r.wanted.Store(true) // a player waits for the run
			r.target.Store(1)
			r.solveFinal()
			r.wanted.Store(false)
			r.take()
			after := HelperStats()
			if after.SolvesAbandoned == before.SolvesAbandoned || r.solved != (batchMark{}) {
				t.Fatalf("%s inDP=%t: the solve was not abandoned: %d abandoned, solved %+v", name, inDP, after.SolvesAbandoned-before.SolvesAbandoned, r.solved)
			}
			if !inDP && len(r.cards) != from+solveChunk {
				t.Errorf("%s: abandoned with %d cards past the %d it began at, want %d", name, len(r.cards)-from, from, solveChunk)
			}
			if inDP {
				if r.t == nil {
					t.Fatalf("%s: the abandoned DP left no tables", name)
				}
				for i := range r.t.dp {
					r.t.dp[i] = costed{cost: -1, expr: memo.ExprID(i % 3)}
				}
			}
			if got := r.extract(r.final, new(plan.Plan)).String(); got != lone.String() {
				t.Errorf("%s inDP=%t: the plan after an abandoned solve differs:\n%s\nvs\n%s", name, inDP, got, lone.String())
			}
			if HelperStats().SolveHits != after.SolveHits {
				t.Errorf("%s inDP=%t: the player took an abandoned DP", name, inDP)
			}
			r.mu.Unlock()
			x.Release()
		}
	}
}

// TestHooksRunWithTheRunLetGo pins the half of the ownership protocol the
// engine depends on: Work, Charge and Codegen park the compilation — for good, when
// the simulation ends first — so no hook may be called with the run held, or
// the helper and the exploration's Release would wait for it forever. It also
// pins that a hook's panic leaves the run free to release.
func TestHooksRunWithTheRunLetGo(t *testing.T) {
	defer setHelper(setHelper(false))
	o, stmts := spanStatements(t)
	for name, q := range stmts {
		for _, sc := range []spanScript{{}, {gateAt: 150}, {failAt: 700}, {bePoll: 3}, {limit: 700 * o.cfg.Memo.BytesPerExpr}} {
			for _, spans := range []bool{true, false} {
				x := o.Explore(q)
				g := &spanGovernor{spanScript: sc, o: o}
				calls, boom := 0, false
				free := func(hook string) {
					if boom {
						panic("scripted panic")
					}
					calls++
					// The helper may still hold a recycled run for the instant it
					// takes to find nothing asked of it; a player holds it for the
					// whole hook.
					for try := 0; !x.r.mu.TryLock(); try++ {
						if try == 1000 {
							t.Fatalf("%s %+v spans=%t: %s called with the run held", name, sc, spans, hook)
						}
						runtime.Gosched()
					}
					x.r.mu.Unlock()
				}
				hooks := Hooks{
					Charge:     func(n int64) error { free("Charge"); return g.charge(n) },
					Work:       func(k int) { free("Work"); g.work(k) },
					BestEffort: func() bool { free("BestEffort"); return g.bestEffort() },
					Codegen:    func(m int64) error { free("Codegen"); return g.codegen(m) },
				}
				if spans {
					hooks.ChargeSpan = func(e, gr int) bool { free("ChargeSpan"); return g.chargeSpan(e, gr) }
				}
				x.Optimize(hooks)
				if calls == 0 {
					t.Fatalf("%s %+v spans=%t: no hook was called", name, sc, spans)
				}
				boom = true
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s %+v spans=%t: the hook's panic was swallowed", name, sc, spans)
						}
					}()
					x.Optimize(hooks)
				}()
				x.Release() // deadlocks if the panic left the run held
			}
		}
	}
}

// TestHelperStandsDownWithoutASpareCore pins spareCore's arithmetic at the
// process's own settings: one core never has a spare.
func TestHelperStandsDownWithoutASpareCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if spareCore() {
		t.Error("GOMAXPROCS 1: spareCore reports a core for the helper")
	}
	runtime.GOMAXPROCS(2)
	if !spareCore() {
		t.Error("GOMAXPROCS 2, no event loop running: spareCore reports none")
	}
	defer setHelper(setHelper(false))
	if spareCore() {
		t.Error("switched off: spareCore reports a core for the helper")
	}
}
