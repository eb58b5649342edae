package main

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"compilegate/internal/scenario"
)

// figures runs the command and fails the test on an error.
func figures(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("figures %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// wantLines fails unless every want is a whole line of out.
func wantLines(t *testing.T, out string, want ...string) {
	t.Helper()
	lines := "\n" + out
	for _, w := range want {
		if !strings.Contains(lines, "\n"+w+"\n") {
			t.Errorf("output lacks the line %q:\n%s", w, out)
		}
	}
}

func TestList(t *testing.T) {
	out := figures(t, "-list")
	for _, name := range []string{"figure3", "cluster-nodeloss", "fault-leak", "quickstart"} {
		if !strings.Contains(out, "  "+name+" ") {
			t.Errorf("-list lacks %s:\n%s", name, out)
		}
	}
}

func TestQuickRegeneratesEveryFigure(t *testing.T) {
	out := figures(t, "-quick")
	wantLines(t, out,
		"== Figure 1: memory monitors ==",
		"== Figure 2: compilation throttling example ==",
		"== Figure 3: throughput, 30 clients ==",
		"== Figure 4: throughput, 35 clients ==",
		"== Figure 5: throughput, 40 clients ==")
	if n := strings.Count(out, "  ratio: "); n != 3 {
		t.Errorf("%d ratio lines, want 3", n)
	}
}

// TestScenarioOverrides sets every override flag on a cluster scenario and
// on a fault scenario: both sides of the pair run with them and print
// their per-run lines, the Key of what ran among them.
func TestScenarioOverrides(t *testing.T) {
	for _, tc := range []struct{ name, workload, extra string }{
		{"cluster-nodeloss", "mix", "  per-node breakdown (least-loaded router, rerouted=0):"},
		{"fault-crash-restart", "sales", "  fault plan:"},
	} {
		out := figures(t, "-quick", "-scenario", tc.name, "-clients", "6", "-seed", "3",
			"-scale", "0.02", "-workload", tc.workload, "-horizon", "1h", "-warmup", "10m")
		wantLines(t, out, tc.extra,
			"scenario="+tc.name+" workload="+tc.workload+" clients=6 throttle=true window=[10m0s,1h0m0s)",
			"scenario="+tc.name+"-baseline workload="+tc.workload+" clients=6 throttle=false window=[10m0s,1h0m0s)",
			"completions per slice:")
		for _, side := range []string{tc.name, tc.name + "-baseline"} {
			if !strings.Contains(out, "\nkey: {\"Name\":\""+side+"\",") {
				t.Errorf("%s: no key line", side)
			}
		}
		// The baseline's key says what it ran: no throttling.
		_, base, _ := strings.Cut(out, "\nkey: {\"Name\":\""+tc.name+"-baseline\",")
		if line, _, _ := strings.Cut(base, "\n"); !strings.Contains(line, `"Throttle":false,`) {
			t.Errorf("%s: the baseline's key does not say \"Throttle\":false: %s", tc.name, line)
		}
		if n := strings.Count(out, `"Clients":6,`); n != 2 {
			t.Errorf("%s: %d keys carry the -clients override, want 2", tc.name, n)
		}
		for _, prefix := range []string{"\nkey: ", "\nerrors: ", "\ncompile memory: ", "\ngateway timeouts: "} {
			if n := strings.Count(out, prefix); n != 2 {
				t.Errorf("%s: %d lines start %q, want one per side", tc.name, n, prefix[1:])
			}
		}
	}
}

func TestFaultPlan(t *testing.T) {
	wantLines(t, figures(t, "-faultplan"), "== fault-leak ==", "== cluster-nodeloss ==")
	wantLines(t, figures(t, "-faultplan", "-scenario", "fault-diskstall"),
		"== fault-diskstall ==", "  t=2400s   disk-stall    x6.0 for 1200s")
	if err := run([]string{"-faultplan", "-scenario", "figure3"}, io.Discard); err == nil {
		t.Error("-faultplan accepted a scenario without faults")
	}
}

func TestUnknownNamesAreErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "no-such-scenario"},
		{"-figure", "9"},
		{"-scenario", "quickstart", "-workload", "tpcds"},
		{"-scenario", "quickstart", "-warmup", "3m"}, // quickstart counts in 2-minute slices
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("figures %s: no error", strings.Join(args, " "))
		}
	}
}

// TestClaimsTable: -claims' printer marks each verdict's row and returns
// an error exactly when a claim fails.
func TestClaimsTable(t *testing.T) {
	holds := scenario.Verdict{Claim: scenario.Claim{Text: "a claim that holds", Metric: scenario.MetricCompleted, Lo: 1, Hi: 2},
		Summary: scenario.Summarize([]float64{1.5, 1.5, 1.5}, 0.95)}
	fails := holds
	fails.Text, fails.Err = "a claim that fails", errors.New("claim \"a claim that fails\": out of band")
	var out strings.Builder
	if err := renderClaims(&out, []scenario.Verdict{holds}); err != nil {
		t.Fatalf("holding claim: %v", err)
	}
	wantLines(t, out.String(), "| a claim that holds | completed | [1, 2] | 3 | 1.500 | [1.500, 1.500] | holds |")
	out.Reset()
	err := renderClaims(&out, []scenario.Verdict{holds, fails})
	if err == nil || !strings.Contains(err.Error(), "a claim that fails") {
		t.Fatalf("failing claim returned %v", err)
	}
	wantLines(t, out.String(), "| a claim that fails | completed | [1, 2] | 3 | 1.500 | [1.500, 1.500] | fails |")
}

// TestPerturbTable: -perturb prints one row per (claim, twin), labelled
// with the twin's knob, lists the cells that fail without failing itself,
// and fails only when a run returns an error.
func TestPerturbTable(t *testing.T) {
	s := scenario.Sales(6).WithWindow(20*time.Minute, 10*time.Minute)
	claim := scenario.Claim{Text: "completes nothing", Scenario: s, Metric: scenario.MetricCompleted, Lo: 0, Hi: 0}
	var out strings.Builder
	if err := renderPerturbed(&out, []scenario.Claim{claim}, scenario.KnobTwins()[:2], scenario.Seeds(3)); err != nil {
		t.Fatalf("failing cells returned %v", err)
	}
	rows := strings.Count(out.String(), "| completes nothing [")
	wantLines(t, out.String(), "Cells that fail:")
	for _, knob := range []string{"reserve+10%", "reserve-10%"} {
		if !strings.Contains(out.String(), "| completes nothing ["+knob+"] | completed | [0, 0] | 3 |") ||
			!strings.Contains(out.String(), "\n- claim \"completes nothing ["+knob+"]\": ") {
			t.Errorf("no failing row or listed cell for %s", knob)
		}
	}
	if rows != 2 {
		t.Errorf("%d rows, want one per twin:\n%s", rows, out.String())
	}

	broken := func(s scenario.Scenario) scenario.Scenario {
		s.Name, s.Clients = s.Name+"~broken", 0
		return s
	}
	if err := renderPerturbed(io.Discard, []scenario.Claim{claim}, []func(scenario.Scenario) scenario.Scenario{broken}, scenario.Seeds(3)); err == nil {
		t.Error("a run error did not fail -perturb")
	}
}
