package harness

import (
	"math"
	"strings"
	"testing"
	"time"

	"compilegate/internal/metrics"
	"compilegate/internal/workload"
)

// defaults is SALES on the uncalibrated machine — no engine or load delta,
// so engine.DefaultConfig and workload.DefaultLoadConfig apply — over the
// paper's window.
func defaults(clients int) Scenario {
	return Scenario{
		Name:      "defaults",
		Clients:   clients,
		Scale:     0.04,
		Workload:  workload.SpecSales,
		Horizon:   8 * time.Hour,
		Warmup:    3 * time.Hour,
		Throttled: true,
		Seed:      1,
	}
}

func quickOpts(clients int) Scenario {
	return defaults(clients).WithWindow(30*time.Minute, 5*time.Minute).WithSlice(5 * time.Minute)
}

func TestRunValidation(t *testing.T) {
	if _, err := defaults(0).Run(); err == nil {
		t.Fatal("zero clients accepted")
	}
	bad := defaults(5)
	bad.Warmup = bad.Horizon
	if _, err := bad.Run(); err == nil {
		t.Fatal("warmup >= horizon accepted")
	}
}

func TestRunProducesSeries(t *testing.T) {
	o := quickOpts(8)
	r, err := o.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Fatal("no completions")
	}
	wantSlices := int((o.Horizon - o.Warmup) / (5 * time.Minute))
	if len(r.Series) != wantSlices {
		t.Fatalf("series has %d slices, want %d", len(r.Series), wantSlices)
	}
	var sum int64
	for _, p := range r.Series {
		sum += p.V
	}
	if sum != r.Completed {
		t.Fatalf("series sum %d != completed %d", sum, r.Completed)
	}
	if r.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
	if r.CompileMemMean <= 0 || r.BufferPoolHitRate <= 0 {
		t.Fatalf("missing profile: mem=%d hit=%v", r.CompileMemMean, r.BufferPoolHitRate)
	}
}

func TestRunDeterministicAcrossInvocations(t *testing.T) {
	o := quickOpts(6)
	a, err := o.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.Errors != b.Errors {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Completed, a.Errors, b.Completed, b.Errors)
	}
	for i := range a.Series {
		if a.Series[i] != b.Series[i] {
			t.Fatalf("series diverge at slice %d", i)
		}
	}
}

func TestSeedChangesRun(t *testing.T) {
	o := quickOpts(6)
	a, _ := o.Run()
	o.Seed = 99
	b, _ := o.Run()
	same := a.Completed == b.Completed
	for i := range a.Series {
		if i < len(b.Series) && a.Series[i] != b.Series[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestWorkloadSelection(t *testing.T) {
	for _, wl := range []workload.Spec{workload.SpecTPCH, workload.SpecOLTP, workload.SpecMix} {
		o := quickOpts(4)
		o.Workload = wl
		o.Horizon = 20 * time.Minute
		r, err := o.Run()
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if r.Completed == 0 {
			t.Fatalf("%s completed nothing", wl)
		}
	}
}

func TestCompareAndSeriesString(t *testing.T) {
	th := &Result{Options: defaults(30), Completed: 135}
	ba := &Result{Options: defaults(30), Completed: 100}
	ratio, summary := Compare(th, ba)
	if ratio != 1.35 {
		t.Fatalf("ratio = %v", ratio)
	}
	if !strings.Contains(summary, "35.0%") {
		t.Fatalf("summary = %q", summary)
	}
	s := SeriesString([]metrics.Point{{T: 600 * time.Second, V: 31}})
	if !strings.Contains(s, "600") || !strings.Contains(s, "31") {
		t.Fatalf("series string = %q", s)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	cases := []struct {
		name                string
		throttled, baseline int64
		wantInf, wantNaN    bool
		wantRatio           float64
		wantSummary, banned string
	}{
		{
			name: "finite", throttled: 135, baseline: 100,
			wantRatio: 1.35, wantSummary: "35.0%",
		},
		{
			// The old code left ratio=0 here and printed the improvement
			// as -100.0%, reading a starved baseline as a regression.
			name: "zero baseline", throttled: 10, baseline: 0,
			wantInf: true, wantSummary: "baseline completed 0", banned: "-100.0%",
		},
		{
			name: "both zero", throttled: 0, baseline: 0,
			wantNaN: true, wantSummary: "undefined", banned: "-100.0%",
		},
		{
			name: "throttled zero", throttled: 0, baseline: 50,
			wantRatio: 0, wantSummary: "-100.0%",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			th := &Result{Options: defaults(30), Completed: tc.throttled}
			ba := &Result{Options: defaults(30), Completed: tc.baseline}
			ratio, summary := Compare(th, ba)
			switch {
			case tc.wantInf:
				if !math.IsInf(ratio, 1) {
					t.Fatalf("ratio = %v, want +Inf", ratio)
				}
			case tc.wantNaN:
				if !math.IsNaN(ratio) {
					t.Fatalf("ratio = %v, want NaN", ratio)
				}
			default:
				if ratio != tc.wantRatio {
					t.Fatalf("ratio = %v, want %v", ratio, tc.wantRatio)
				}
			}
			if !strings.Contains(summary, tc.wantSummary) {
				t.Fatalf("summary %q missing %q", summary, tc.wantSummary)
			}
			if tc.banned != "" && strings.Contains(summary, tc.banned) {
				t.Fatalf("summary %q still renders %q", summary, tc.banned)
			}
		})
	}
}
