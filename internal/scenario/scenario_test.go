package scenario

import (
	"sort"
	"strings"
	"testing"
	"time"

	"compilegate/internal/engine"
	"compilegate/internal/fault"
	"compilegate/internal/harness"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// TestRegisteredScenariosBuildValidConfigs proves every registered
// experiment resolves to a runnable configuration: the scenario
// validates, is a value (it has a Key: no Engine or Load closure), and
// its server config assembles a real server over the resolved catalog.
func TestRegisteredScenariosBuildValidConfigs(t *testing.T) {
	all := All()
	if len(all) < 10 {
		t.Fatalf("registry holds %d scenarios, expected the full paper set", len(all))
	}
	for _, s := range all {
		t.Run(s.Name, func(t *testing.T) {
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Key(); !ok {
				t.Fatal("no key: the scenario carries an Engine or Load closure")
			}
			ecfg := s.ServerConfig()
			ecfg.Throttle = s.Throttled
			cat := s.Workload.NewCatalog(s.Scale, workload.DefaultExtentBytes)
			if _, err := engine.NewShared(ecfg, cat, engine.Prebuilt{}, vtime.NewScheduler()); err != nil {
				t.Fatalf("engine rejects the scenario's config: %v", err)
			}
		})
	}
}

// TestSalesMatchesPaperWindow pins the canonical experiment to §5.2: an
// 8-hour throttled SALES run measured from t = 3 h.
func TestSalesMatchesPaperWindow(t *testing.T) {
	s := Sales(30)
	if s.Horizon != 8*time.Hour || s.Warmup != 3*time.Hour {
		t.Fatalf("window = [%v, %v), paper uses [3h, 8h)", s.Warmup, s.Horizon)
	}
	if !s.Throttled || s.Workload != "sales" {
		t.Fatal("the canonical experiment should be throttled SALES")
	}
}

// TestValidateRejectsBrokenScenarios breaks one field at a time. Validate
// is the only check a description gets, so Run must refuse each case too,
// with the same error: nothing downstream defaults or re-checks a field.
func TestValidateRejectsBrokenScenarios(t *testing.T) {
	good := Sales(4)
	good.Name = "ok"
	crash := func(at, dur time.Duration, node int) *fault.Plan {
		return &fault.Plan{Injections: []fault.Injection{{Kind: fault.CrashRestart, Node: node, At: at, Duration: dur}}}
	}
	cases := map[string]func(*Scenario){
		"no-name":            func(s *Scenario) { s.Name = "" },
		"no-clients":         func(s *Scenario) { s.Clients = 0 },
		"no-scale":           func(s *Scenario) { s.Scale = 0 },
		"negative-scale":     func(s *Scenario) { s.Scale = -1 },
		"bad-workload":       func(s *Scenario) { s.Workload = "tpcds" },
		"warmup>=horizon":    func(s *Scenario) { s.Warmup = s.Horizon },
		"no-horizon":         func(s *Scenario) { s.Horizon, s.Warmup = 0, 0 },
		"negative-warmup":    func(s *Scenario) { s.Warmup = -time.Minute },
		"window-cuts-slices": func(s *Scenario) { s.Warmup, s.Horizon = 5*time.Minute, 15*time.Minute },
		"no-slice":           func(s *Scenario) { *s = s.WithSlice(0) },
		"negative-think":     func(s *Scenario) { s.ThinkTime = -time.Second },
		"negative-nodes":     func(s *Scenario) { s.Nodes = -1 },
		"bad-router":         func(s *Scenario) { s.Nodes, s.Router = 2, "random" },
		"health-one-node":    func(s *Scenario) { s.Health = true },
		"breaker-one-node":   func(s *Scenario) { s.Nodes, s.Breaker = 1, true },
		"hops-one-node":      func(s *Scenario) { s.FailoverHops = 1 },
		"negative-hops":      func(s *Scenario) { s.Nodes, s.FailoverHops = 2, -1 },
		"malformed-fault":    func(s *Scenario) { s.Fault = crash(-time.Minute, time.Minute, 0) },
		"fault-past-end":     func(s *Scenario) { s.Fault = crash(s.Horizon-time.Minute, 2*time.Minute, 0) },
		"fault-node-range":   func(s *Scenario) { s.Nodes, s.Fault = 2, crash(time.Minute, time.Minute, 2) },
	}
	for name, breakIt := range cases {
		s := good
		breakIt(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: broken scenario validated", name)
			continue
		}
		if _, runErr := s.Run(); runErr == nil || runErr.Error() != err.Error() {
			t.Errorf("%s: Validate says %q, Run says %v", name, err, runErr)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryRejectsDuplicatesAndSortsNames(t *testing.T) {
	refused := func(what string, s Scenario) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s registered", what)
			}
		}()
		register(s)
	}
	n := len(registry)
	refused("duplicate name", MustGet(t, "figure3").WithSeed(9))
	bad := Sales(0) // invalid: no clients
	bad.Name = "bad"
	refused("invalid scenario", bad)
	if len(registry) != n {
		t.Fatalf("registry grew from %d to %d scenarios", n, len(registry))
	}
	// Iteration is sorted by name regardless of registration order, so
	// -list output and docs snippets stay stable.
	names, all := Names(), All()
	if !sort.StringsAreSorted(names) || len(names) != n || len(all) != n {
		t.Fatalf("names = %v", names)
	}
	list := List()
	for i, s := range all {
		if s.Name != names[i] {
			t.Fatalf("scenario %d is %s, want %s", i, s.Name, names[i])
		}
		if !strings.Contains(list, s.Name) {
			t.Fatalf("list misses %s", s.Name)
		}
	}
	if s, ok := Get("figure3"); !ok || s.Name != "figure3" {
		t.Fatal("registered scenario not found")
	}
	if _, ok := Get("zzz"); ok {
		t.Fatal("unknown scenario found")
	}
}

func TestDerivations(t *testing.T) {
	s := Sales(30)
	ba := s.Baseline()
	if ba.Throttled || !s.Throttled {
		t.Fatal("Baseline must flip throttling on the copy only")
	}
	if ba.Name != s.Name+"-baseline" {
		t.Fatalf("baseline name = %q", ba.Name)
	}
	w := s.WithWindow(time.Hour, time.Minute)
	if w.Horizon != time.Hour || w.Warmup != time.Minute || s.Horizon != 8*time.Hour {
		t.Fatal("WithWindow must replace the window on the copy only")
	}
	if s.WithSeed(9).Seed != 9 || s.WithClients(7).Clients != 7 {
		t.Fatal("WithSeed/WithClients broken")
	}
	if sl := s.WithSlice(time.Minute); sl.Server.SliceDur != time.Minute || s.Server.SliceDur != 10*time.Minute ||
		sl.Server.VASBytes != s.Server.VASBytes {
		t.Fatal("WithSlice must set the slice on the copy only, keeping its server")
	}
}

// TestKeyIsTheResolvedScenario: Key resolves Server, so a zero Server and
// an explicit engine.DefaultConfig() are one key, while any setting, the
// name included, moves it; an Engine or Load closure leaves no key.
func TestKeyIsTheResolvedScenario(t *testing.T) {
	explicit := defaults("keyed", 6, time.Hour, 10*time.Minute)
	zero := explicit
	zero.Server = engine.Config{}
	if explicit.Server != engine.DefaultConfig() {
		t.Fatal("defaults is not on engine.DefaultConfig()")
	}
	kz, okz := zero.Key()
	ke, oke := explicit.Key()
	if !okz || !oke || kz != ke {
		t.Fatalf("zero and default Server keyed apart:\n%s\n%s", kz, ke)
	}
	moved := []func(*Scenario){
		func(s *Scenario) { s.Name += "~" },
		func(s *Scenario) { s.ThinkTime = time.Second },
		func(s *Scenario) { s.Retry = true },
		func(s *Scenario) { s.Server = calibrated() },
		func(s *Scenario) { s.Server.Brownout = true },
	}
	for i, move := range moved {
		s := explicit
		move(&s)
		if k, ok := s.Key(); !ok || k == ke {
			t.Errorf("setting %d left the key unchanged", i)
		}
	}
	for _, s := range []Scenario{
		{Name: "engine", Engine: func(*engine.Config) {}},
		{Name: "load", Load: func(*workload.LoadConfig) {}},
	} {
		if _, ok := s.Key(); ok {
			t.Errorf("%s: a scenario with a closure has a key", s.Name)
		}
	}
}

// sweepSet is a cheap, heterogeneous set of registered scenarios used by
// the determinism tests: two as registered, two with a compressed
// window so the suite stays fast.
func sweepSet(t *testing.T) []Scenario {
	t.Helper()
	var out []Scenario
	for _, name := range []string{"quickstart", "figure2", "oltp-mix", "adhoc-dss", "cluster-roundrobin"} {
		s, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %s not registered", name)
		}
		if s.Horizon > 30*time.Minute {
			s = s.WithWindow(20*time.Minute, 5*time.Minute).WithSlice(5 * time.Minute)
		}
		out = append(out, s)
	}
	return out
}

// TestSweepMatchesSerial is the determinism guarantee: a parallel sweep
// over independent scenarios returns results identical to running each
// scenario serially — same measurements, same rendered reports.
func TestSweepMatchesSerial(t *testing.T) {
	scenarios := sweepSet(t)
	serial := make([]*harness.Result, len(scenarios))
	for i, s := range scenarios {
		r, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		serial[i] = r
	}

	parallel := RunSweep(scenarios, len(scenarios))
	if len(parallel) != len(scenarios) {
		t.Fatalf("sweep returned %d results", len(parallel))
	}
	for i, sr := range parallel {
		if sr.Err != nil {
			t.Fatalf("%s: %v", sr.Scenario.Name, sr.Err)
		}
		if sr.Scenario.Name != scenarios[i].Name {
			t.Fatalf("result %d out of order: %s", i, sr.Scenario.Name)
		}
		if sr.Result.Completed == 0 {
			t.Fatalf("%s completed nothing", sr.Scenario.Name)
		}
		if sr.Result.Report != serial[i].Report {
			t.Errorf("%s: parallel report diverges from serial:\n%s\nvs\n%s",
				sr.Scenario.Name, sr.Result.Report, serial[i].Report)
		}
		if !sameResult(sr.Result, serial[i]) {
			t.Errorf("%s: parallel result differs from serial run", sr.Scenario.Name)
		}
	}
}

func TestSweepWorkerBounds(t *testing.T) {
	s, _ := Get("quickstart")
	// workers > len, workers = 1, workers <= 0 all behave.
	for _, workers := range []int{8, 1, 0} {
		res := RunSweep([]Scenario{s, s.WithSeed(2)}, workers)
		for _, sr := range res {
			if sr.Err != nil {
				t.Fatal(sr.Err)
			}
		}
		if res[0].Result.Options.Seed == res[1].Result.Options.Seed {
			t.Fatal("results out of order")
		}
	}
	if got := RunSweep(nil, 4); len(got) != 0 {
		t.Fatalf("empty sweep returned %d results", len(got))
	}
}

func TestSweepSurfacesErrors(t *testing.T) {
	bad := Sales(0) // invalid: no clients
	bad.Name = "bad"
	res := RunSweep([]Scenario{bad}, 1)
	if res[0].Err == nil {
		t.Fatal("invalid scenario ran")
	}
	// A failed run between two good ones leaves their results as a sweep
	// without it returns them.
	s := MustGet(t, "quickstart")
	ref := RunSweep([]Scenario{s, s.WithSeed(2)}, 1)
	for _, workers := range []int{1, 2} {
		got := RunSweep([]Scenario{s, bad, s.WithSeed(2)}, workers)
		if got[1].Err == nil {
			t.Fatalf("workers=%d: invalid scenario ran", workers)
		}
		for i, j := range []int{0, 2} {
			if ref[i].Err != nil || got[j].Err != nil || !sameResult(ref[i].Result, got[j].Result) {
				t.Errorf("workers=%d: %s differs beside a failed run", workers, got[j].Scenario.Name)
			}
		}
	}
}
