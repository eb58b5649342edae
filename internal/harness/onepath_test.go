package harness_test

import (
	"strings"
	"testing"
	"time"

	"compilegate/internal/cluster"
	"compilegate/internal/harness"
	"compilegate/internal/scenario"
	"compilegate/internal/vtime"
)

// quickWindow compresses a long scenario the way cmd/figures -quick and the
// golden sweep do: above two hours, 2 h measured from 30 min.
func quickWindow(s scenario.Scenario) scenario.Scenario {
	if s.Horizon > 2*time.Hour {
		return s.WithWindow(2*time.Hour, 30*time.Minute)
	}
	return s
}

// TestOneNodeFleetIsASingleServer pins the equivalence the one run path
// rests on: Nodes 0 and Nodes 1 are the same run — a fleet of one with no
// router in front — in every Result field, and nothing of a router shows:
// no per-node rows, no routing counters, no router header in the report.
// SALES through the gateway ladder, the OLTP:SALES mix with its plan-cache
// hits, and a crash-restart with the retry driver.
func TestOneNodeFleetIsASingleServer(t *testing.T) {
	for _, name := range []string{"figure3", "oltp-mix", "fault-crash-restart"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := quickWindow(registered(t, name))
			zero, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			s.Nodes = 1
			one, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			diffResults(t, "Nodes 0", zero, "Nodes 1", one)
			if one.Completed == 0 {
				t.Error("the run completed nothing")
			}
			if one.NodeResults != nil || one.Rerouted != 0 || one.Resubmitted != 0 || one.RouterAllExcluded != 0 {
				t.Errorf("a single server reports a router: %d node rows, rerouted %d, resubmitted %d, all-excluded %d",
					len(one.NodeResults), one.Rerouted, one.Resubmitted, one.RouterAllExcluded)
			}
			if strings.Contains(one.Report, "router policy=") || strings.Contains(one.Report, "--- node") {
				t.Errorf("a single server's report has fleet sections:\n%s", one.Report)
			}
		})
	}
}

// TestFreshSnapshotMatchesShared re-runs every registered scenario on a
// private, freshly built snapshot instead of the process-wide shared one:
// the shared immutable run state (catalog, estimator, layout, statement
// identities) changes nothing, sharing is purely a set-up cost
// optimization.
func TestFreshSnapshotMatchesShared(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	for _, s := range scenario.All() {
		s := quickWindow(s)
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			shared, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := harness.RunOnWith(nil, s, harness.Seams{Snap: harness.NewSnapshot(s.Workload, s.Scale)})
			if err != nil {
				t.Fatal(err)
			}
			diffResults(t, "shared snapshot", shared, "fresh snapshot", fresh)
		})
	}
}

// windowTap counts, at every node, the submissions that come back completed
// at a time inside [from, to). A statement's outcome reaches its caller in
// the step that records it, so that is the recorder's RecordCompletion calls
// with t in the window — counted where they happen, not read back from
// slices.
type windowTap struct {
	cluster.Node
	from, to time.Duration
	n        *int64
}

func (w windowTap) SubmitThen(t *vtime.Task, sql string, errp *error, k vtime.Step) {
	w.Node.SubmitThen(t, sql, errp, vtime.StepFunc(func(t *vtime.Task) {
		if now := t.Now(); *errp == nil && now >= w.from && now < w.to {
			*w.n++
		}
		k.Run(t)
	}))
}

// TestWindowCountsWhatHappenedInIt holds every registered scenario to its
// declared window: the series sums to Completed, and Completed is the
// number of completions that happened in [Warmup, Horizon) — on every node,
// storm queries included — so Throughput() divides what the window held by
// the window's length.
func TestWindowCountsWhatHappenedInIt(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	for _, s := range scenario.All() {
		s := quickWindow(s)
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			var happened int64
			r, err := harness.RunOnWith(nil, s, harness.Seams{Tap: func(n cluster.Node) cluster.Node {
				return windowTap{n, s.Warmup, s.Horizon, &happened}
			}})
			if err != nil {
				t.Fatal(err)
			}
			var series int64
			for _, p := range r.Series {
				series += p.V
			}
			if happened == 0 || series != r.Completed || r.Completed != happened {
				t.Errorf("window [%v, %v): series sums to %d, Completed %d, %d completions happened in it",
					s.Warmup, s.Horizon, series, r.Completed, happened)
			}
			if want := float64(happened) / (s.Horizon - s.Warmup).Hours(); r.Throughput() != want {
				t.Errorf("Throughput() %v, %d completions in %v are %v an hour", r.Throughput(), happened, s.Horizon-s.Warmup, want)
			}
		})
	}
}
