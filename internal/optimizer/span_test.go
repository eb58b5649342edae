package optimizer

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"compilegate/internal/plan"
)

// spanScript is a scripted governor: it lets a compilation grow until one
// trip, placed by structure count (gate, failure) or by bytes (limit), cuts
// it by best-effort at a chosen poll, and may fail its codegen.
type spanScript struct {
	gateAt      int   // Charge number gateAt "blocks": it logs a gate event, then succeeds
	failAt      int   // Charge number failAt fails
	limit       int64 // a Charge that would take the total past limit fails (0: none)
	bePoll      int   // BestEffort answers true at this poll (1-based), once
	failCodegen bool  // Codegen fails
}

var (
	errSpanFail    = errors.New("scripted failure")
	errSpanLimit   = errors.New("scripted limit")
	errSpanCodegen = errors.New("scripted codegen failure")
)

// spanGovernor plays a spanScript and logs what a real governor could see:
// the bytes and structures charged so far at every Work and BestEffort
// call, and at the gate. Its ChargeSpan refuses exactly the spans that
// contain the trip, changing nothing.
type spanGovernor struct {
	spanScript
	o          *Optimizer
	bytes      int64
	structures int
	tasks      int
	polls      int
	log        strings.Builder
	settled    int
	replayed   int
}

func (g *spanGovernor) charge(n int64) error {
	g.structures++
	switch {
	case g.structures == g.failAt:
		return errSpanFail
	case g.limit > 0 && g.bytes+n > g.limit:
		return errSpanLimit
	case g.structures == g.gateAt:
		fmt.Fprintf(&g.log, "gate bytes=%d tasks=%d\n", g.bytes, g.tasks)
	}
	g.bytes += n
	return nil
}

func (g *spanGovernor) chargeSpan(exprs, groups int) bool {
	k, n := exprs+groups, g.o.cfg.Memo.Bytes(groups, exprs)
	trips := func(at int) bool { return g.structures < at && at <= g.structures+k }
	if trips(g.gateAt) || trips(g.failAt) || (g.limit > 0 && g.bytes+n > g.limit) {
		g.replayed++
		return false
	}
	g.structures += k
	g.bytes += n
	g.settled++
	return true
}

// spanWorkPause, when set, runs in every Work call: the host time an engine's
// Work hook spends away from the compilation (helper_test.go sets it).
var spanWorkPause func()

func (g *spanGovernor) work(k int) {
	if spanWorkPause != nil {
		spanWorkPause()
	}
	g.tasks += k
	fmt.Fprintf(&g.log, "work %d bytes=%d structures=%d tasks=%d\n", k, g.bytes, g.structures, g.tasks)
}

// codegen logs the memo bytes it is handed beside what was charged. Like
// Work it is time an engine spends away from the compilation.
func (g *spanGovernor) codegen(memoBytes int64) error {
	if spanWorkPause != nil {
		spanWorkPause()
	}
	fmt.Fprintf(&g.log, "codegen memo=%d bytes=%d structures=%d tasks=%d\n", memoBytes, g.bytes, g.structures, g.tasks)
	if g.failCodegen {
		return errSpanCodegen
	}
	return nil
}

func (g *spanGovernor) bestEffort() bool {
	g.polls++
	fmt.Fprintf(&g.log, "poll %d bytes=%d structures=%d\n", g.polls, g.bytes, g.structures)
	return g.polls == g.bePoll
}

// play runs one compilation of q under sc — on x, or on a fresh exploration
// when x is nil — and renders everything observable about it: the
// governor's log, the last (partial-batch) Work argument, the error, and the
// plan's digest and counters.
func (sc spanScript) play(t *testing.T, o *Optimizer, q *plan.Query, x *Exploration, spans bool) (string, *spanGovernor) {
	t.Helper()
	g := &spanGovernor{spanScript: sc, o: o}
	hooks := Hooks{Charge: g.charge, Work: g.work, BestEffort: g.bestEffort, Codegen: g.codegen}
	if spans {
		hooks.ChargeSpan = g.chargeSpan
	}
	var p *plan.Plan
	var err error
	if x != nil {
		p, err = x.Optimize(hooks)
	} else {
		p, err = o.Optimize(q, hooks)
	}
	fmt.Fprintf(&g.log, "end bytes=%d structures=%d tasks=%d err=%v\n", g.bytes, g.structures, g.tasks, err)
	if err == nil {
		h := fnv.New64a()
		h.Write([]byte(p.String()))
		fmt.Fprintf(&g.log, "plan=%016x cost=%v exprs=%d bytes=%d besteffort=%t\n", h.Sum64(), p.Cost(), p.ExprsExplored, p.CompileBytes, p.BestEffort)
		if p.CompileBytes != g.bytes {
			t.Errorf("plan reports %d compile bytes, the governor was charged %d", p.CompileBytes, g.bytes)
		}
	}
	return g.log.String(), g
}

// spanStatements are the two statement widths the DSS benchmarks compile.
func spanStatements(t *testing.T) (*Optimizer, map[string]*plan.Query) {
	return salesOptimizer(), map[string]*plan.Query{
		"sales16": salesQuery(t, false, 16),
		"sales20": salesQuery(t, true, 20),
	}
}

// spanOffsets is how many of a statement's first structures get a trip of
// each kind: several work batches' worth (a batch is ~60 structures).
const spanOffsets = 400

// firstDiff names the first line two logs disagree on.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  spans  %s\n  single %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d lines against %d", len(al), len(bl))
}

// TestSpanChargingMatchesPerStructure is span charging's exactness
// contract at the optimizer's boundary. A gate, a failure and a byte limit
// are placed at every one of a statement's first spanOffsets structures; the
// compilation with a ChargeSpan hook must be indistinguishable from the one
// without, to a governor that logs its own state at every hook call — on a
// fresh exploration, on one a failed compilation left (shorter than, and
// longer than, this one), and with a best-effort poll on the way.
func TestSpanChargingMatchesPerStructure(t *testing.T) {
	o, stmts := spanStatements(t)
	for name, q := range stmts {
		settled, replayed := 0, 0
		compare := func(what string, sc spanScript, history []spanScript) {
			t.Helper()
			var logs [2]string
			for i, spans := range []bool{true, false} {
				var x *Exploration
				if history != nil {
					e := o.Explore(q)
					defer e.Release()
					x = &e
					for _, h := range history {
						h.play(t, o, q, x, spans)
					}
				}
				var g *spanGovernor
				logs[i], g = sc.play(t, o, q, x, spans)
				settled, replayed = settled+g.settled, replayed+g.replayed
			}
			if logs[0] != logs[1] {
				t.Fatalf("%s %s %+v: %s", name, what, sc, firstDiff(logs[0], logs[1]))
			}
		}
		unit := o.cfg.Memo.BytesPerExpr
		for at := 1; at <= spanOffsets; at++ {
			trips := []spanScript{
				{gateAt: at},
				{failAt: at},
				{limit: int64(at) * unit}, // between structures, and inside a group's two charges
				{limit: int64(at)*unit - 1},
				{gateAt: at, failAt: at + 37},
				{gateAt: at, bePoll: 2},
			}
			for _, sc := range trips {
				compare("fresh", sc, nil)
			}
			if at%7 == 0 {
				for _, sc := range trips[:3] {
					compare("after a shorter failure", sc, []spanScript{{failAt: at / 2}})
					compare("after a longer failure", sc, []spanScript{{failAt: 2 * at}})
					compare("after a failure and a cut", sc, []spanScript{{failAt: 3 * at}, {bePoll: 1, gateAt: at}})
				}
			}
		}
		compare("fresh", spanScript{}, nil)
		if settled == 0 || replayed == 0 {
			t.Fatalf("%s: %d spans settled, %d replayed: both paths must run", name, settled, replayed)
		}
		t.Logf("%s: %d spans settled at once, %d replayed", name, settled, replayed)
	}
}

// TestCodegenHook pins the Codegen hook's contract. A compilation that runs
// to its end calls it once, after its last Work call, with the bytes of the
// memo it charged for; one that fails a charge or is cut by best effort never
// calls it. A compilation whose codegen fails returns that error, extracts
// nothing — no extraction counted, no allocation — and leaves no DP tables on
// the run; the next compilation on the exploration compiles what a fresh
// exploration does.
func TestCodegenHook(t *testing.T) {
	defer setHelper(setHelper(false))
	o, stmts := spanStatements(t)
	for name, q := range stmts {
		fresh, _ := spanScript{}.play(t, o, q, nil, true)
		lines := strings.Split(strings.TrimSuffix(fresh, "\n"), "\n")
		var memo, bytes int64
		if n := len(lines); strings.Count(fresh, "codegen ") != 1 || !strings.HasPrefix(lines[n-3], "codegen ") {
			t.Fatalf("%s: Codegen is not called once, last before the plan:\n%s", name, strings.Join(lines[max(0, n-6):], "\n"))
		} else if _, err := fmt.Sscanf(lines[n-3], "codegen memo=%d bytes=%d", &memo, &bytes); err != nil || memo != bytes {
			t.Errorf("%s: %q: Codegen is not handed the memo bytes charged (%v)", name, lines[n-3], err)
		}
		for _, sc := range []spanScript{{failAt: 41}, {limit: 700 * o.cfg.Memo.BytesPerExpr}, {bePoll: 2}} {
			if log, _ := sc.play(t, o, q, nil, true); strings.Contains(log, "codegen ") {
				t.Errorf("%s %+v: Codegen called after a failed charge or a cut", name, sc)
			}
		}

		x := o.Explore(q)
		before := o.Work()
		log, _ := spanScript{failCodegen: true}.play(t, o, q, &x, true)
		if !strings.Contains(log, "err="+errSpanCodegen.Error()) {
			t.Errorf("%s: the compilation did not fail with Codegen's error:\n%s", name, log)
		}
		if w := o.Work(); w.Compilations != before.Compilations+1 || w.Extractions != before.Extractions {
			t.Errorf("%s: a failed codegen counted %d compilations and %d extractions", name,
				w.Compilations-before.Compilations, w.Extractions-before.Extractions)
		}
		x.r.take()
		if x.r.t != nil {
			t.Errorf("%s: a failed codegen left DP tables on the run", name)
		}
		x.r.mu.Unlock()
		failing := Hooks{Codegen: func(int64) error { return errSpanCodegen }}
		if n := testing.AllocsPerRun(3, func() { x.Optimize(failing) }); n != 0 {
			t.Errorf("%s: a compilation whose codegen fails allocates %v times", name, n)
		}
		if n := testing.AllocsPerRun(3, func() { x.Optimize(Hooks{}) }); n == 0 {
			t.Errorf("%s: a compilation that extracts allocates nothing: the count above proves nothing", name)
		}
		if again, _ := (spanScript{}).play(t, o, q, &x, true); again != fresh {
			t.Errorf("%s: after a failed codegen the exploration compiles %s", name, firstDiff(again, fresh))
		}
		x.Release()
	}
}
