package engine_test

import (
	"regexp"
	"testing"
	"time"

	"compilegate/internal/cluster"
	"compilegate/internal/engine"
	"compilegate/internal/fault"
	"compilegate/internal/harness"
	"compilegate/internal/scenario"
	"compilegate/internal/workload"
)

// execLine is the executor's counters in a server's report — the one thing
// a run that reuses static statements' scan lists shows that a run without
// does not.
var execLine = regexp.MustCompile(`(?m)^executions: completed=(\d+) replayed=(\d+)\n`)

// execCounts sums the execution counters over every server in a run's
// report.
func execCounts(t *testing.T, r *harness.Result) (executed, replayed uint64) {
	return sumReportLines(t, r, execLine)
}

// mixNodelossShape is the benchmark's mix-nodeloss workload (3:1 OLTP:SALES,
// 36 clients, 3 nodes, least-loaded, jittered-backoff clients) on its own
// window, crash included — half a second of host time: node 1 goes down
// under executions and compilations in flight and comes back with a cold
// plan cache. (The benchmark's -quick size drops the crash, and of its 900
// executions a sixth are a statement's first on its node, which record.)
func mixNodelossShape() scenario.Scenario {
	return scenario.Scenario{
		Name:      "mix-nodeloss",
		Clients:   36,
		Scale:     0.04,
		Workload:  workload.SpecMix,
		Horizon:   70 * time.Minute,
		Warmup:    10 * time.Minute,
		Throttled: true,
		Nodes:     3,
		Router:    cluster.LeastLoaded,
		ThinkTime: 5 * time.Second,
		Retry:     true,
		Fault: &fault.Plan{Seed: 105, Injections: []fault.Injection{
			{Kind: fault.CrashRestart, Node: 1, At: 40 * time.Minute, Duration: 6 * time.Minute},
		}},
	}
}

// TestStaticPreparedLeavesRunsIdentical runs each shape with and without
// the reuse of static statements' scan lists by their recompiled plans, and
// requires the two Results to be equal in every field once the execution
// counters' own line is taken out of the reports: a replayed list is the
// list a reseeded source would draw. On the mix shape, where the plan cache
// misses nine times in ten and three statements in four are static, three
// executions in five must replay (the SALES quarter never can; without the
// reuse none does) — if they stop, this fails before a benchmark notices. cluster-thrash-shed has no static statements: the switch must
// reach nothing there.
func TestStaticPreparedLeavesRunsIdentical(t *testing.T) {
	cases := []struct {
		name  string
		opts  scenario.Scenario
		shape func(t *testing.T, r *harness.Result)
	}{
		{"mix-nodeloss", mixNodelossShape(), func(t *testing.T, r *harness.Result) {
			if r.Fault == nil || r.Fault.Crashes != 1 || r.ErrorsByKind["crashed"] == 0 {
				t.Errorf("crashes %+v, errors %v: the node loss did not reach a query in flight", r.Fault, r.ErrorsByKind)
			}
			if r.PlanCacheHitRate > 0.5 {
				t.Errorf("plan-cache hit rate %.2f: the shape must recompile its static statements", r.PlanCacheHitRate)
			}
			executed, replayed := execCounts(t, r)
			if share := float64(replayed) / float64(executed); share < 0.6 {
				t.Errorf("%d of %d executions replayed recorded scan lists (%.3f), want at least 0.6", replayed, executed, share)
			}
			t.Logf("%d of %d executions replayed, plan-cache hit rate %.3f", replayed, executed, r.PlanCacheHitRate)
		}},
		{"cluster-thrash-shed", registered(t, "cluster-thrash-shed", 15*time.Minute, 65*time.Minute), func(t *testing.T, r *harness.Result) {
			if executed, replayed := execCounts(t, r); executed == 0 || replayed != 0 {
				t.Errorf("%d executions, %d replayed: every SALES statement is new text", executed, replayed)
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

			defer engine.SetStaticPrepared(engine.SetStaticPrepared(false))
			want, err := tc.opts.Run()
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "mix-nodeloss" {
				gs, gr := execCounts(t, got)
				ws, wr := execCounts(t, want)
				if gs != ws || gr == 0 || wr != 0 {
					t.Errorf("executions %d with reuse and %d without, replays %d and %d: the switch must take every replay away and nothing else", gs, ws, gr, wr)
				}
			}
			got.Report = execLine.ReplaceAllString(got.Report, "")
			want.Report = execLine.ReplaceAllString(want.Report, "")
			diffResults(t, "reseeding", want, "static lists", got)
		})
	}
}
