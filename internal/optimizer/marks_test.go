package optimizer

import (
	"strings"
	"testing"

	"compilegate/internal/plan"
)

// playBothWays plays sc after history on a fresh exploration of q twice —
// with the player's jumps on and off — under a governor that logs its own
// state (bytes, structures, tasks: the player's cursor, as far as anything
// outside it can tell) at every Work and BestEffort call, and fails the test
// unless the two logs, which end with the error or the plan's digest,
// ExprsExplored and CompileBytes, are the same. It returns that log and the
// last governor.
func playBothWays(t *testing.T, o *Optimizer, q *plan.Query, history []spanScript, sc spanScript) (string, *spanGovernor) {
	t.Helper()
	var logs [2]string
	var g *spanGovernor
	for i, on := range []bool{false, true} {
		was := setJumps(on)
		x := o.Explore(q)
		for _, h := range history {
			h.play(t, o, q, &x, true)
		}
		logs[i], g = sc.play(t, o, q, &x, true)
		x.Release()
		setJumps(was)
	}
	if logs[0] != logs[1] {
		t.Fatalf("%+v after %+v: jumping and walking disagree at %s", sc, history, strings.Replace(firstDiff(logs[1], logs[0]), "spans ", "jumps ", 1))
	}
	return logs[1], g
}

// TestJumpsMatchWalking is the exactness contract of the batch-to-batch
// player: moving to the kernel's mark and running the batch's boundary there
// is indistinguishable from walking the batch — on a fresh exploration, on a
// tape an earlier compilation left shorter or longer than this one needs,
// with a budget that ends on a batch boundary and one that does not, and with
// a search space that ends inside a batch.
func TestJumpsMatchWalking(t *testing.T) {
	o, stmts := spanStatements(t)
	batch := o.cfg.WorkBatch
	unit := o.cfg.Memo.BytesPerExpr
	capped := func(maxTasks int) *Optimizer {
		cfg := DefaultConfig()
		cfg.MaxTasks = maxTasks
		return New(o.est, cfg)
	}
	histories := [][]spanScript{
		nil,             // fresh
		{{failAt: 150}}, // a tape that ends inside the third batch or so
		{{}},            // a tape that runs to the end of the budget
		{{failAt: 700}, {bePoll: 2}},
	}
	for name, q := range stmts {
		for _, c := range []struct {
			what string
			o    *Optimizer
		}{
			{"default budget", o},
			{"budget of ten batches", capped(10 * batch)},
			{"budget of ten batches and ten tasks", capped(10*batch + 10)},
		} {
			_, g := playBothWays(t, c.o, q, nil, spanScript{})
			budget := g.tasks
			if multiple := c.what == "budget of ten batches"; (budget%batch == 0) != multiple {
				t.Fatalf("%s, %s: the compilation took %d tasks", name, c.what, budget)
			}
			scripts := []spanScript{{}}
			for poll := 1; poll <= 12; poll++ {
				scripts = append(scripts, spanScript{bePoll: poll})
			}
			for _, at := range []int{1, 40, 41, 150, 700, 701, 1500} {
				scripts = append(scripts,
					spanScript{failAt: at}, spanScript{gateAt: at}, spanScript{gateAt: at, bePoll: 3},
					spanScript{limit: int64(at) * unit}, spanScript{limit: int64(at)*unit - 1})
			}
			for _, history := range histories {
				for _, sc := range scripts {
					playBothWays(t, c.o, q, history, sc)
				}
			}
		}
	}

	// The search space ends mid-batch (or, for the five-join star, exactly
	// on a batch boundary): small statements whose exploration is over
	// before the budget is.
	_, small := salesEnv()
	midBatch := 0
	for joins := 1; joins <= 7; joins++ {
		q := starQuery(joins)
		_, g := playBothWays(t, small, q, nil, spanScript{})
		initial, err := small.estimateInitialCost(q)
		if err != nil {
			t.Fatal(err)
		}
		if g.tasks >= small.effortBudget(initial) {
			continue // budget-bound
		}
		if g.tasks > batch && g.tasks%batch != 0 {
			midBatch++
		}
		for _, history := range [][]spanScript{{{failAt: 20}}, {{}}} {
			for _, sc := range []spanScript{{}, {bePoll: 1}, {failAt: 30}, {gateAt: 25}} {
				playBothWays(t, small, q, history, sc)
			}
		}
	}
	if midBatch == 0 {
		t.Error("no star query ran out of search space inside a batch past its first")
	}
}

// TestReplayJumpsOverTheTape pins that a jumping player really does not
// look at the batches it passes: on a tape that a complete compilation left,
// every segment inside a whole batch — all but the one carrying each batch's
// last step — is overwritten, and a replay must not notice. A walking
// player must (it reports other counts, or falls over them), or the scribble
// proves nothing.
func TestReplayJumpsOverTheTape(t *testing.T) {
	o, stmts := spanStatements(t)
	for name, q := range stmts {
		x := o.Explore(q)
		want, g := spanScript{}.play(t, o, q, &x, true)
		r := x.r
		whole := g.tasks / o.cfg.WorkBatch
		if whole < 10 || len(r.marks) < whole {
			t.Fatalf("%s: %d whole batches, %d marks", name, whole, len(r.marks))
		}
		scribbled := 0
		last := int(r.marks[whole-1].pos)
		ends := map[int]bool{}
		for _, m := range r.marks {
			ends[int(m.pos)-1] = true
		}
		for pos := 0; pos < last; pos++ {
			if !ends[pos] {
				r.tape[pos] ^= 5 // a different expression count
				scribbled++
			}
		}
		if got, _ := (spanScript{}).play(t, o, q, &x, true); got != want {
			t.Errorf("%s: a replay read the batches it should have jumped: %s", name, firstDiff(got, want))
		}
		noticed := func() (noticed bool) {
			defer func() { noticed = noticed || recover() != nil }() // counts that are not the memo's
			defer setJumps(setJumps(false))
			got, _ := spanScript{}.play(t, o, q, &x, true)
			return got != want
		}()
		if !noticed {
			t.Errorf("%s: %d scribbled segments went unnoticed by a walking replay", name, scribbled)
		}
		x.Release()
		t.Logf("%s: %d batches jumped over %d scribbled segments", name, whole, scribbled)
	}
}
