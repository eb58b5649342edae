package optimizer

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"compilegate/internal/plan"
)

// helperCase is one exploration's life: the compilations played on it, in
// order. Every one but the last is a failed or cut compilation a later one
// replays.
type helperCase struct {
	stmt    string
	scripts []spanScript
}

// helperCases covers what a compilation can do to a run the helper works on:
// run to its budget, fail a charge early and late (so the exploration is
// released, or replayed, with the helper's request still queued), stop at a
// best-effort poll, pass a gate, and replay a tape shorter and longer than it
// needs.
func helperCases(stmts map[string]*plan.Query, unit int64) []helperCase {
	var out []helperCase
	for name := range stmts {
		for _, history := range [][]spanScript{nil, {{failAt: 150}}, {{failAt: 700}, {bePoll: 2}}} {
			for _, sc := range []spanScript{{}, {failAt: 1}, {failAt: 41}, {failAt: 1500}, {bePoll: 1}, {bePoll: 7}, {gateAt: 150}, {limit: 700 * unit}} {
				out = append(out, helperCase{name, append(slices.Clone(history), sc)})
			}
		}
	}
	return out
}

// play runs the case on a fresh exploration and returns every compilation's
// log. Before it releases the exploration it checks the run's record against
// want, the statement's tape and marks as a lone player left them: the tape is
// a pure function of the statement, so whatever the helper added, the two
// agree as far as both go.
func (c helperCase) play(t *testing.T, o *Optimizer, q *plan.Query, want *run) []string {
	x := o.Explore(q)
	defer x.Release()
	var logs []string
	for _, sc := range c.scripts {
		log, _ := sc.play(t, o, q, &x, true)
		logs = append(logs, log)
	}
	if r := x.r; r != nil && want != nil {
		r.take()
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
// best-effort stops, retained replays, releases with a request queued — and
// each compilation's log (every hook call with the governor's state, the
// error or the plan) and each run's tape and marks must be what one goroutine
// without a helper produced. With a core spare the helper must have taken
// steps, or the test proves nothing. CI runs it under -race at GOMAXPROCS 1
// (the helper stands down), 2 and 4.
func TestHelperIsUnobservable(t *testing.T) {
	o, stmts := spanStatements(t)
	cases := helperCases(stmts, o.cfg.Memo.BytesPerExpr)

	was := setHelper(false)
	records := map[string]*run{}
	for name, q := range stmts {
		x := o.Explore(q)
		spanScript{}.play(t, o, q, &x, true)
		records[name] = x.r // kept out of the pool: never released
	}
	want := make([][]string, len(cases))
	for i, c := range cases {
		want[i] = c.play(t, o, stmts[c.stmt], records[c.stmt])
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
					got := c.play(t, o, stmts[c.stmt], records[c.stmt])
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
	t.Logf("kernel steps: %d by the helper, %d inline; %d requests, %d hand-offs, %d parks",
		after.HelperSteps-before.HelperSteps, after.InlineSteps-before.InlineSteps,
		after.Requests-before.Requests, after.Handoffs-before.Handoffs, after.Parks-before.Parks)
	if spare := runtime.GOMAXPROCS(0) > 1; spare != (after.HelperSteps > before.HelperSteps) {
		t.Errorf("GOMAXPROCS %d: the helper took %d kernel steps", runtime.GOMAXPROCS(0), after.HelperSteps-before.HelperSteps)
	}
}

// TestHooksRunWithTheRunLetGo pins the half of the ownership protocol the
// engine depends on: Work and Charge park the compilation — for good, when
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
