package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"compilegate/internal/fault"
	"compilegate/internal/harness"
	"compilegate/internal/metrics"
	"compilegate/internal/workload"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON mirrors BENCHMARK.json; DisallowUnknownFields below makes
// a surplus key fail the test, as it fails the driver.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the metric and
// workload tables the program emits from, and both to the driver's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", bj.RunSeconds)
	}

	ws := workloads()
	if len(ws) < 2 || len(ws) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d workloads / %d end-to-end / %d per-layer metrics exceed the limits 8 / 16 / 128", len(ws), len(endToEnd), len(perLayer))
	}
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(ws))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	var maxSim float64
	for i, w := range ws {
		unique(w.Name)
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if err := w.validate(); err != nil {
			t.Error(err)
		}
		maxSim = max(maxSim, w.SimBound)
	}

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program emits %d", len(bj.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range endToEnd {
		unique(d.Name)
		got := bj.EndToEnd[i]
		if got.Bound == nil || got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || *got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the driver's limits", d)
		}
		if d.Source == srcSim && d.Bound < maxSim {
			t.Errorf("%s: bound %.2f is below the largest per-workload SimBound %.2f", d.Name, d.Bound, maxSim)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric with unit s, lower is better")
	}

	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program emits %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		unique(d.Name)
		if got := bj.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the program has %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("per-layer metric %+v is outside the driver's limits", d)
		}
	}
}

// TestQuickRunEmitsEveryMetric runs every workload at smoke size in both
// modes and checks that exactly the declared metrics come out, no
// operation fails, and the trace file holds a well-formed span tree.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	dir := t.TempDir()
	for _, w := range workloads() {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			o := options{workload: w.Name, seed: 1, seconds: 1, trace: trace, quick: true, outDir: dir}
			qw, err := resolve(o)
			if err != nil {
				t.Fatal(err)
			}
			res, d, _, err := measure(qw, o)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d: %v", w.Name, trace, res.Correct, res.Attempted, res.Failed, d.Errors)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, def := range defs {
				if v, ok := res.Metrics[def.Name]; !ok || v.Unit != def.Unit {
					t.Errorf("%s trace %d: metric %s missing or unit %q != %q", w.Name, trace, def.Name, v.Unit, def.Unit)
				}
			}
			if len(d.Digests) != qw.Seeds {
				t.Errorf("%s trace %d: %d digests for %d seeds", w.Name, trace, len(d.Digests), qw.Seeds)
			}
		}
		checkTraceFile(t, filepath.Join(dir, "trace-"+w.Name+".json"))
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	// No floor on profile samples: a smoke-size run may finish between
	// two ticks of the 100 Hz profiler.
	if len(doc.Spans) == 0 {
		t.Errorf("%s: no spans", path)
	}
	layers := map[string]bool{}
	for i, s := range doc.Spans {
		if s.ID != i+1 || s.Parent < 0 || s.Parent >= s.ID || s.End < s.Start {
			t.Fatalf("%s: malformed span %+v at index %d", path, s, i)
		}
		layers[s.Layer] = true
	}
	for _, layer := range []string{"workload", "sqlparser", "optimizer", "metrics", "engine", "core", "broker", "vtime", "scenario"} {
		if !layers[layer] {
			t.Errorf("%s: no span for layer %s", path, layer)
		}
	}
}

// passing builds, for each workload, a hand-made result that satisfies
// every check, so each tamper below trips exactly one.
func passing(name string) *harness.Result {
	r := &harness.Result{
		Completed: 30,
		Series:    []metrics.Point{{T: 10 * time.Minute, V: 10}, {T: 20 * time.Minute, V: 20}},
		Load:      workload.LoadStats{Submitted: 100, Succeeded: 90, Failed: 10, Retries: 20},
	}
	fleet := func(routed ...uint64) {
		for i, n := range routed {
			r.NodeResults = append(r.NodeResults, harness.NodeResult{Node: i, Routed: n})
		}
	}
	switch name {
	case "dss-governed":
		r.BestEffortPlans, r.AvgOvercommitRatio = 5, 0.9
	case "dss-collapse":
		r.Load.Succeeded, r.Load.Failed = 20, 80
		r.AvgOvercommitRatio = 1.4
	case "oltp-fleet":
		r.PlanCacheHitRate = 0.999
		fleet(30, 30, 30, 30)
	case "mix-nodeloss":
		r.Fault = &fault.Stats{Crashes: 1}
		r.Resubmitted = 3
		fleet(41, 41, 41)
	}
	return r
}

// TestChecksTripOnTamperedResult proves the determinism, conservation
// and guard checks each fail on a result tampered in the one way they
// exist to catch.
func TestChecksTripOnTamperedResult(t *testing.T) {
	for _, w := range workloads() {
		r := passing(w.Name)
		if err := check(w, r, digest(r), digest(r)); err != nil {
			t.Fatalf("%s: the untampered result fails: %v", w.Name, err)
		}
	}
	cases := []struct {
		workload string
		tamper   func(*harness.Result)
		want     string
	}{
		{"dss-governed", func(r *harness.Result) { r.SimEvents++ }, "determinism"},
		{"dss-governed", func(r *harness.Result) { r.Load.Failed++ }, "client conservation"},
		{"dss-governed", func(r *harness.Result) { r.Completed++ }, "window conservation"},
		{"oltp-fleet", func(r *harness.Result) { r.NodeResults[0].Routed += 4 }, "routing conservation"},
		{"mix-nodeloss", func(r *harness.Result) { r.Resubmitted++ }, "routing conservation"},
		{"dss-governed", func(r *harness.Result) { r.BestEffortPlans = 0 }, "guard: no best-effort"},
		{"dss-governed", func(r *harness.Result) { r.AvgOvercommitRatio = 1.2 }, "guard: overcommit"},
		{"dss-collapse", func(r *harness.Result) { r.Load.Succeeded, r.Load.Failed = 60, 40 }, "guard: failed share"},
		{"dss-collapse", func(r *harness.Result) { r.AvgOvercommitRatio = 1.0 }, "guard: overcommit"},
		{"oltp-fleet", func(r *harness.Result) { r.PlanCacheHitRate = 0.9 }, "guard: plan-cache"},
		{"oltp-fleet", func(r *harness.Result) { r.Errors = 1 }, "guard: 1 errors"},
		{"oltp-fleet", func(r *harness.Result) {
			r.NodeResults[0].Routed, r.NodeResults[1].Routed = 28, 32
		}, "guard: routed imbalance"},
		{"mix-nodeloss", func(r *harness.Result) { r.Fault = nil }, "guard: fault plane"},
		{"mix-nodeloss", func(r *harness.Result) { r.Fault.Crashes = 2 }, "guard: fault plane"},
		{"mix-nodeloss", func(r *harness.Result) {
			r.Load.Retries = 0
			r.NodeResults[0].Routed -= 20
		}, "guard: no client retries"},
	}
	for _, c := range cases {
		w, _ := workloadByName(c.workload)
		r := passing(c.workload)
		before := digest(r)
		c.tamper(r)
		err := check(w, r, digest(r), before)
		if c.want == "determinism" {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: tampered result passed the determinism check: %v", c.workload, err)
			}
			continue
		}
		// Every tamper moves the digest; take determinism out of the way
		// to reach the check under test.
		err = check(w, r, digest(r), "")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want an error containing %q, got %v", c.workload, c.want, err)
		}
	}
}

// TestValidateRefusesTraps covers the measurement traps a workload
// definition may not contain.
func TestValidateRefusesTraps(t *testing.T) {
	cases := []struct {
		name  string
		wreck func(*Workload)
		want  string
	}{
		{"unaligned warm-up", func(w *Workload) { w.Scenario.Warmup = 5 * time.Minute }, "recorder slice"},
		{"unaligned horizon", func(w *Workload) { w.Scenario.Horizon = 15 * time.Minute }, "recorder slice"},
		{"zero think time", func(w *Workload) {
			w.Scenario.Load = func(l *workload.LoadConfig) { l.ThinkTime = 0 }
		}, "zero think time"},
		{"one round", func(w *Workload) { w.MinRounds = 1 }, "determinism needs two rounds"},
	}
	for _, c := range cases {
		w, _ := workloadByName("oltp-fleet")
		c.wreck(&w)
		if err := w.validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want an error containing %q, got %v", c.name, c.want, err)
		}
	}
}

func suiteOf(ns, allocs, qpvh float64) *suiteResult {
	return &suiteResult{Seed: 1, Workloads: []workloadResult{{
		Name: "dss-governed", Attempted: 10, Digests: []string{"a"}, TraceDigests: []string{"a"},
		EndToEnd: emit(endToEnd, map[string]float64{"host_ns_per_query": ns, "host_allocs_per_query": allocs,
			"sim_queries_per_vhour": qpvh, "sim_success_share": 0.99, "setup_s": 0.7}),
		PerLayer: emit(perLayer, map[string]float64{"gateway.timeouts": 3}),
	}}}
}

// TestCompare covers the verdicts of -compare: inside the bound, worse
// beyond it, better beyond it, and the exact-repeat rule.
func TestCompare(t *testing.T) {
	base := suiteOf(300000, 11, 185)
	// by scales a first value so that it is worse by the given share of
	// the named metric's bound on dss-governed.
	w, _ := workloadByName("dss-governed")
	by := func(v float64, metric string, share float64) float64 {
		for _, d := range endToEnd {
			if d.Name == metric {
				if d.Better == higher {
					share = -share
				}
				return v * (1 + share*boundFor(d, w))
			}
		}
		t.Fatalf("no metric %s", metric)
		return 0
	}
	cases := []struct {
		name   string
		second *suiteResult
		exact  bool
		ok     bool
		want   string
	}{
		{"identical", suiteOf(300000, 11, 185), true, true, "agree"},
		{"inside the bounds", suiteOf(by(300000, "host_ns_per_query", 0.5), by(11, "host_allocs_per_query", 0.5), 185), false, true, "agree"},
		{"host time worse beyond its bound", suiteOf(by(300000, "host_ns_per_query", 1.3), 11, 185), false, false, "FAIL worse beyond bound"},
		{"allocations worse beyond their bound", suiteOf(300000, by(11, "host_allocs_per_query", 1.3), 185), false, false, "FAIL worse beyond bound"},
		{"faster is not a failure", suiteOf(100000, 11, 185), false, true, "better beyond bound"},
		{"throughput down beyond the workload's sim bound", suiteOf(300000, 11, by(185, "sim_queries_per_vhour", 1.3)), false, false, "FAIL worse beyond bound"},
		{"a simulated metric moved between two runs of one commit", suiteOf(300000, 11, 185.2), true, false, "FAIL not identical"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if ok := compareSuites(&out, base, c.second, c.exact); ok != c.ok || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: ok=%v, want %v with %q in:\n%s", c.name, ok, c.ok, c.want, out.String())
		}
	}

	var out bytes.Buffer
	moved := suiteOf(300000, 11, 185)
	moved.Workloads[0].PerLayer["gateway.timeouts"] = value{Value: 4, Unit: "count"}
	if compareSuites(&out, base, moved, true) || !strings.Contains(out.String(), "a counter must repeat exactly") {
		t.Errorf("a moved counter passed -exact:\n%s", out.String())
	}
	out.Reset()
	failed := suiteOf(300000, 11, 185)
	failed.Workloads[0].Failed = 1
	if compareSuites(&out, base, failed, false) || !strings.Contains(out.String(), "failed operations") {
		t.Errorf("a failed operation passed -compare:\n%s", out.String())
	}
}

var sink uint64

// spin burns CPU in registers only, so that under the race detector the
// samples still land in spin and not in its instrumentation.
//
//go:noinline
func spin(d time.Duration) {
	var acc uint64
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := uint64(0); i < 1<<20; i++ {
			acc += i * i
		}
	}
	sink = acc
}

// TestLeafSamples checks the hand-written profile reader against a real
// runtime/pprof profile, and the package-to-layer mapping.
func TestLeafSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	byFunc, err := leafSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for fn, n := range byFunc {
		total += n
		if strings.HasSuffix(fn, ".spin") {
			inSpin += n
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Errorf("%d of %d samples attributed to spin: %v", inSpin, total, byFunc)
	}
	if _, err := leafSamples([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}

	for fn, want := range map[string]string{
		"compilegate/internal/u64hash.(*Set).Add":          "u64hash",
		"compilegate/internal/vtime.(*Scheduler).Go.func2": "vtime",
		"math/rand.(*rngSource).Seed":                      "math_rand",
		"runtime.mallocgc":                                 "go_runtime",
		"internal/runtime/atomic.(*Uint32).CompareAndSwap": "go_runtime",
		"fmt.Sprintf":   "other",
		"main.simulate": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
