package engine_test

import (
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"compilegate/internal/engine"
	"compilegate/internal/harness"
	"compilegate/internal/scenario"
	"compilegate/internal/workload"
)

// The whole-run side of span charging's contract lives here and not in
// internal/harness because the switch it needs is this package's
// export_test.go, which only this package's tests can see.

// spanLine is the governor's span counters in a server's report — the one
// thing a run with span charging shows that a run without does not.
var spanLine = regexp.MustCompile(`(?m)^charge spans: settled=(\d+) replayed=(\d+)\n`)

// spanCounts sums the span counters over every server in a run's report.
func spanCounts(t *testing.T, r *harness.Result) (settled, replayed uint64) {
	return sumReportLines(t, r, spanLine)
}

// sumReportLines sums the two counters line captures over every server in a
// run's report.
func sumReportLines(t *testing.T, r *harness.Result, line *regexp.Regexp) (first, second uint64) {
	t.Helper()
	for _, m := range line.FindAllStringSubmatch(r.Report, -1) {
		a, errA := strconv.ParseUint(m[1], 10, 64)
		b, errB := strconv.ParseUint(m[2], 10, 64)
		if errA != nil || errB != nil {
			t.Fatalf("counters %q: %v, %v", m[0], errA, errB)
		}
		first, second = first+a, second+b
	}
	return first, second
}

// dssShape is the benchmark's dss-governed (throttled, 30 clients) and
// dss-collapse (unthrottled, 40 clients) workloads on a quarter of their
// window: six times the benchmark's own -quick size (some 10 000 spans a run
// instead of 2 000) and still well under a second.
func dssShape(clients int, throttled bool) scenario.Scenario {
	return scenario.Scenario{
		Name:      "dss",
		Clients:   clients,
		Scale:     0.04,
		Workload:  workload.SpecSales,
		Horizon:   2 * time.Hour,
		Warmup:    time.Hour,
		Throttled: throttled,
		Engine:    scenario.CalibratedKnobs().Apply,
	}
}

// registered is a registered scenario, its window compressed to
// [warmup, horizon) when horizon is not zero.
func registered(t *testing.T, name string, warmup, horizon time.Duration) scenario.Scenario {
	t.Helper()
	s, ok := scenario.Default.Get(name)
	if !ok {
		t.Fatalf("scenario %q is not registered", name)
	}
	if horizon > 0 {
		s = s.WithWindow(horizon, warmup)
	}
	return s
}

// diffResults requires two runs of one scenario to agree in every Result
// field, naming each that does not. The scenario itself is left out: its
// Engine and Load deltas are funcs, which reflect.DeepEqual never equates.
func diffResults(t *testing.T, wantName string, want *harness.Result, gotName string, got *harness.Result) {
	t.Helper()
	w, g := reflect.ValueOf(*want), reflect.ValueOf(*got)
	for i := 0; i < w.NumField(); i++ {
		name := w.Type().Field(i).Name
		if name != "Options" && !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
			t.Errorf("%s: %s %v, %s %v", name, wantName, w.Field(i).Interface(), gotName, g.Field(i).Interface())
		}
	}
}

// TestSpanChargingLeavesRunsIdentical runs each shape with span charging
// and with every structure charged on its own, and requires the two Results
// to be equal in every field — series, client counters, the scheduler's
// event count, per-node results, the servers' reports — once the span
// counters' own line is taken out of the reports, and their own fields out
// of Result.Work. The shapes are the places a span can end badly: gates and
// the broker's moving thresholds (dss-governed), the end of physical
// memory, reclaim and the OOM-retry spiral (dss-collapse), a crash landing
// on compilations in flight (cluster-nodeloss), the address-space group cap
// (best-effort) and brown-out admission under a leak (fault-leak).
func TestSpanChargingLeavesRunsIdentical(t *testing.T) {
	cases := []struct {
		name  string
		opts  scenario.Scenario
		shape func(t *testing.T, r *harness.Result)
	}{
		{"dss-governed", dssShape(30, true), func(t *testing.T, r *harness.Result) {
			if r.BestEffortPlans == 0 {
				t.Error("no best-effort plans: the exhaustion path is idle")
			}
		}},
		{"dss-collapse", dssShape(40, false), func(t *testing.T, r *harness.Result) {
			if r.ErrorsByKind["oom"] == 0 {
				t.Errorf("errors %v: no compilation ran out of memory", r.ErrorsByKind)
			}
			// The fast path's own regression test: on the workload the
			// claim is made on, all but a few spans must settle at once.
			settled, replayed := spanCounts(t, r)
			if share := float64(settled) / float64(settled+replayed); share < 0.85 {
				t.Errorf("%d of %d spans settled at once (%.3f), want at least 0.85", settled, settled+replayed, share)
			}
		}},
		{"cluster-nodeloss", registered(t, "cluster-nodeloss", 0, 0), func(t *testing.T, r *harness.Result) {
			if r.Fault == nil || r.Fault.Crashes != 1 || r.ErrorsByKind["crashed"] == 0 {
				t.Errorf("crashes %+v, errors %v: the node loss did not reach a query in flight", r.Fault, r.ErrorsByKind)
			}
		}},
		{"best-effort (VAS cap)", registered(t, "best-effort", 20*time.Minute, time.Hour), func(t *testing.T, r *harness.Result) {
			if r.BestEffortPlans == 0 {
				t.Error("no best-effort plans on the starved machine")
			}
		}},
		{"fault-leak (brown-out)", registered(t, "fault-leak", 20*time.Minute, 70*time.Minute), func(t *testing.T, r *harness.Result) {
			if r.BrownoutEntries == 0 {
				t.Error("the leak never escalated the governor to brown-out")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.opts.Run()
			if err != nil {
				t.Fatal(err)
			}
			tc.shape(t, got)
			settled, replayed := spanCounts(t, got)
			if settled == 0 || replayed == 0 {
				t.Errorf("%d spans settled at once, %d replayed: both paths must run", settled, replayed)
			}
			t.Logf("%d spans settled at once, %d replayed", settled, replayed)

			defer engine.SetSpanCharging(engine.SetSpanCharging(false))
			want, err := tc.opts.Run()
			if err != nil {
				t.Fatal(err)
			}
			if a, b := spanCounts(t, want); a+b != 0 {
				t.Fatalf("the reference run charged %d spans", a+b)
			}
			// A span refused after a crash never reaches a governor, so Work
			// may count more refusals than the reports.
			if got.Work.SpansSettled != settled || got.Work.SpansRefused < replayed {
				t.Errorf("Work counts %d spans settled and %d refused, the governors %d and %d", got.Work.SpansSettled, got.Work.SpansRefused, settled, replayed)
			}
			got.Report = spanLine.ReplaceAllString(got.Report, "")
			got.Work.SpansSettled, got.Work.SpansRefused = 0, 0
			diffResults(t, "per structure", want, "span charging", got)
		})
	}
}
