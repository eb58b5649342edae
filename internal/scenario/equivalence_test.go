package scenario

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"compilegate/internal/gateway"
	"compilegate/internal/harness"
	"compilegate/internal/optimizer"
)

// The whole-run equivalences: configurations that must change nothing a
// run measures. Each is a row of equivalences, two sweeps compared
// scenario by scenario with sameResult, and most compare against one
// reference, swept once per test binary: every registered scenario on
// refWindow, serially, with a core spare for the optimizer's kernel
// helper. Each row is asserted by the test it names, a view of the table,
// so a failure names the equivalence that broke. CI runs them under
// -race, where they double as the data-race probe of the sweep's worker
// pool, of the state runs share (snapshots, pools) and of the helper's run
// ownership protocol. The equivalences that need the harness's test-only
// seams stay in internal/harness: one-node fleet ≡ single server, fresh
// snapshot ≡ shared.

// raceWindow is the window every registered scenario runs under the race
// detector, which slows a run about tenfold: at most 30 minutes, or an
// hour where a fault plan needs it (every registered plan clears by
// then), measured from at most 20 minutes — whole slices of every
// registered width.
func raceWindow(s Scenario) Scenario {
	h := 30 * time.Minute
	if s.Fault != nil {
		h = time.Hour
	}
	return s.WithWindow(min(s.Horizon, h), min(s.Warmup, 20*time.Minute))
}

// refWindow is the window of the reference and its rows: goldenWindow, or
// raceWindow under the race detector (TestRegistryGoldenDigests then skips
// its file comparisons, which are recorded on goldenWindow).
func refWindow(s Scenario) Scenario {
	if raceEnabled {
		return raceWindow(goldenWindow(s))
	}
	return goldenWindow(s)
}

// refSweep is the reference sweep and what the kernel helper did during it.
var refSweep struct {
	sync.Once
	runs   []SweepResult
	helper optimizer.HelperCounts
}

// reference returns the reference sweep, running it on first use.
func reference(t *testing.T) []SweepResult {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	refSweep.Do(func() {
		all := All()
		scenarios := make([]Scenario, len(all))
		for i, s := range all {
			scenarios[i] = refWindow(s)
		}
		// The sweep's one event loop leaves the helper a core iff there
		// are two.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
		before := optimizer.HelperStats()
		refSweep.runs = RunSweep(scenarios, 1)
		refSweep.helper = helperDelta(before, optimizer.HelperStats())
	})
	for _, r := range refSweep.runs {
		if r.Err != nil {
			t.Fatalf("%s: reference: %v", r.Scenario.Name, r.Err)
		}
	}
	return refSweep.runs
}

// An equivalence is one row: two sweeps, index for index, that must
// return the same Result. test names the view that asserts it.
type equivalence struct {
	test, name string
	sweeps     func(t *testing.T, ref []SweepResult) (want, got []SweepResult)
}

var equivalences = []equivalence{
	// Each run owns a fresh scheduler and shares no mutable state, so
	// neither the pool size nor which goroutine ran a scenario can reach
	// a result: 0 is the GOMAXPROCS default that the commands and
	// RunClaims use; 2, 4 and NumCPU are under-, evenly- and
	// over-subscribed pools (a count above len(scenarios) clamps inside
	// RunSweep).
	workers("TestSweepWorkerCountInvariance", 0),
	workers("TestShardCountInvariance", 2),
	workers("TestShardCountInvariance", 4),
	workers("TestShardCountInvariance", runtime.NumCPU()),
	// At one core the kernel helper stands down by itself and the players
	// grow every tape alone; the reference ran with it.
	{"TestKernelHelperInvariance", "GOMAXPROCS=1", helperStoodDown},
	// §4's governor at its limit is no governor.
	{"TestNeverClosingGatesAreTheBaseline", "never-closing gates", neverClosingVsBaseline},
}

func workers(test string, w int) equivalence {
	return equivalence{test, fmt.Sprintf("workers=%d", w), func(_ *testing.T, ref []SweepResult) ([]SweepResult, []SweepResult) {
		return ref, RunSweep(scenariosOf(ref), w)
	}}
}

func helperStoodDown(t *testing.T, ref []SweepResult) ([]SweepResult, []SweepResult) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := optimizer.HelperStats()
	alone := RunSweep(scenariosOf(ref), 1)
	if after := optimizer.HelperStats(); after.Requests != before.Requests {
		t.Fatalf("the helper did not stand down at GOMAXPROCS=1: %+v, then %+v", before, after)
	}
	return ref, alone
}

// neverClosingVsBaseline runs every throttled scenario of the reference as
// its Baseline() and behind gates that never close, in one sweep. Reports
// are left out: the governor's dump names its gates.
func neverClosingVsBaseline(t *testing.T, ref []SweepResult) ([]SweepResult, []SweepResult) {
	var base, open []Scenario
	for _, s := range scenariosOf(ref) {
		if s.Throttled {
			base, open = append(base, s.Baseline()), append(open, neverClosing(s))
		}
	}
	if len(open) == 0 {
		t.Fatal("no throttled scenario registered")
	}
	t.Logf("%d throttled scenarios", len(open))
	rs := RunSweep(append(base, open...), 0)
	for _, r := range rs {
		if r.Result != nil {
			r.Result.Report = ""
		}
	}
	return rs[:len(base)], rs[len(base):]
}

// neverClosing returns s governed by one gate that no compilation ever
// waits at — its threshold is past any compilation's memory, and its slots
// and timeout past any run's clients and horizon in case it were not —
// with dynamic thresholds and best-effort plans off: the uncontended
// configuration, governed.
func neverClosing(s Scenario) Scenario {
	s.Server = s.ServerConfig()
	s.Server.GatewayOverride = &gateway.Config{Levels: []gateway.LevelConfig{
		{Name: "open", Threshold: math.MaxInt64 / 2, Slots: 1 << 20, Timeout: 1000 * time.Hour},
	}}
	s.Server.DynamicThresholds, s.Server.BestEffort = false, false
	return s
}

func scenariosOf(rs []SweepResult) []Scenario {
	out := make([]Scenario, len(rs))
	for i, r := range rs {
		out[i] = r.Scenario
	}
	return out
}

// assertEquivalences asserts the calling test's rows of equivalences.
func assertEquivalences(t *testing.T) {
	t.Helper()
	ref, n := reference(t), 0
	for _, e := range equivalences {
		if e.test != t.Name() {
			continue
		}
		n++
		want, got := e.sweeps(t, ref)
		if len(want) != len(got) {
			t.Fatalf("%s: %d runs against %d", e.name, len(got), len(want))
		}
		for i := range want {
			name := want[i].Scenario.Name
			if want[i].Err != nil || got[i].Err != nil {
				t.Fatalf("%s: %s: %v, %v", e.name, name, want[i].Err, got[i].Err)
			}
			a, b := want[i].Result, got[i].Result
			if a.Report != b.Report {
				t.Errorf("%s: %s: report diverges:\n%s\nvs\n%s", e.name, name, a.Report, b.Report)
				continue
			}
			if !sameResult(a, b) {
				t.Errorf("%s: %s: results differ in %v", e.name, name, differingFields(a, b))
			}
		}
	}
	if n == 0 {
		t.Fatal("no rows of equivalences belong to this test")
	}
}

// TestShardCountInvariance and TestSweepWorkerCountInvariance are the
// sweep's determinism guard: a full-registry sweep returns byte-identical
// results — same measurements, same rendered reports — at every worker
// count. Each then runs a paired figure3 replication and a replication of
// two cluster scenarios at workers 1 and 4 or GOMAXPROCS.
func TestShardCountInvariance(t *testing.T) {
	assertEquivalences(t)
	replicationsInvariant(t, 4, "cluster-nodeloss", "cluster-breaker-recovery")
}

func TestSweepWorkerCountInvariance(t *testing.T) {
	assertEquivalences(t)
	replicationsInvariant(t, 0, "cluster-affinity", "cluster-thrash-shed")
}

// TestKernelHelperInvariance pins that the optimizer's kernel helper cannot
// be observed: the registry returns the same Result whether a second core
// grew the explorations' tapes ahead of their players or the players grew
// them alone. The helper's counters move between the two sweeps and no
// Result or Report does, so none of them — they depend on host timing —
// reaches one, or a golden derived from one.
func TestKernelHelperInvariance(t *testing.T) {
	assertEquivalences(t)
	d := refSweep.helper
	if d.HelperSteps == 0 {
		t.Fatalf("the helper took no kernel step with a core spare: %+v", d)
	}
	t.Logf("kernel steps: %d by the helper, %d inline; %d requests, %d hand-offs, %d parks; %d DPs solved, %d found by their player, %d abandoned",
		d.HelperSteps, d.InlineSteps, d.Requests, d.Handoffs, d.Parks, d.Solves, d.SolveHits, d.SolvesAbandoned)
}

// TestNeverClosingGatesAreTheBaseline pins that the governor costs nothing
// where it never acts: every throttled registry scenario, its own engine
// config kept, behind one gate that never closes and with dynamic
// thresholds and best-effort plans off, measures exactly what its
// unthrottled Baseline() does, Work and SimEvents included. Throttling
// changes a run only by making compilations wait or stop early.
func TestNeverClosingGatesAreTheBaseline(t *testing.T) { assertEquivalences(t) }

func helperDelta(a, b optimizer.HelperCounts) optimizer.HelperCounts {
	return optimizer.HelperCounts{
		HelperSteps: b.HelperSteps - a.HelperSteps, InlineSteps: b.InlineSteps - a.InlineSteps,
		Requests: b.Requests - a.Requests, Handoffs: b.Handoffs - a.Handoffs, Parks: b.Parks - a.Parks,
		Solves: b.Solves - a.Solves, SolveHits: b.SolveHits - a.SolveHits, SolvesAbandoned: b.SolvesAbandoned - a.SolvesAbandoned,
	}
}

// replicationsInvariant runs a paired figure3 replication and a
// replication of each named cluster scenario at workers 1 and repWorkers:
// seeds become sweep jobs, so a replication's per-seed results must be
// identical at any worker count. A multi-node run adds N servers and a
// router to one event loop; cluster-breaker-recovery and
// cluster-thrash-shed re-prove it with the health plane armed — health
// exclusion, breaker state machines, failover resubmission and the
// per-node transition trails all live on the same loop.
func replicationsInvariant(t *testing.T, repWorkers int, clusters ...string) {
	t.Helper()
	rep := goldenWindow(MustGet(t, "figure3"))
	replicationInvariant(t, Replication{Scenario: rep, Seeds: Seeds(3), Twin: Scenario.Baseline}, repWorkers)
	for _, name := range clusters {
		replicationInvariant(t, Replication{Scenario: MustGet(t, name), Seeds: Seeds(2)}, repWorkers)
	}
}

// replicationInvariant runs rp on one worker and on each of workers, and
// fails on any seed whose runs differ.
func replicationInvariant(t *testing.T, rp Replication, workers ...int) {
	t.Helper()
	ref, err := replicate(rp, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		got, err := replicate(rp, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Runs {
			if !sameSeedRun(ref.Runs[i], got.Runs[i]) {
				t.Errorf("%s replication seed %d differs between workers=1 and workers=%d", rp.Scenario.Name, ref.Runs[i].Seed, w)
			}
		}
	}
}

// sameResult reports whether two runs measured the same thing. The
// scenario a Result carries is left out: its Engine and Load deltas are
// funcs, which reflect.DeepEqual never equates.
func sameResult(a, b *harness.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	x.Options, y.Options = Scenario{}, Scenario{}
	return reflect.DeepEqual(x, y)
}

// differingFields names the fields of two Results that sameResult finds
// different.
func differingFields(a, b *harness.Result) []string {
	x, y := reflect.ValueOf(*a), reflect.ValueOf(*b)
	var out []string
	for i := range x.NumField() {
		if f := x.Type().Field(i).Name; f != "Options" && !reflect.DeepEqual(x.Field(i).Interface(), y.Field(i).Interface()) {
			out = append(out, f)
		}
	}
	return out
}

// sameSeedRun is sameResult over both arms of a replication's seed.
func sameSeedRun(a, b SeedRun) bool {
	return a.Seed == b.Seed && sameResult(a.Result, b.Result) && sameResult(a.Twin, b.Twin)
}

// MustGet fetches a registered scenario or fails the test.
func MustGet(t *testing.T, name string) Scenario {
	t.Helper()
	s, ok := Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	return s
}
