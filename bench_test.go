// Benchmarks regenerating every figure and headline claim in the paper's
// evaluation (§5), plus ablations of the design choices called out in
// DESIGN.md. Each benchmark resolves its experiment through the scenario
// layer and runs complete simulations in virtual time; independent runs
// within a benchmark execute concurrently through the sweep runner, so
// wall-clock cost drops by roughly the core count. The reported custom
// metrics (completions, ratios, error counts) are the quantities the
// paper's figures plot. Wall-clock ns/op is incidental.
//
// The benchmarks use a compressed 2-hour window (30-minute warmup) so the
// whole suite completes in minutes; cmd/figures regenerates the paper's
// full 8-hour runs.
package compilegate

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"compilegate/internal/catalog"
	"compilegate/internal/cluster"
	"compilegate/internal/core"
	"compilegate/internal/engine"
	"compilegate/internal/errclass"
	"compilegate/internal/gateway"
	"compilegate/internal/harness"
	"compilegate/internal/mem"
	"compilegate/internal/optimizer"
	"compilegate/internal/scenario"
	"compilegate/internal/sqlparser"
	"compilegate/internal/stats"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// benchWindow compresses a scenario to the suite's measurement window.
func benchWindow(s scenario.Scenario) scenario.Scenario {
	return s.WithWindow(2*time.Hour, 30*time.Minute)
}

// benchScenario is the SALES configuration at the given client count on
// the compressed window.
func benchScenario(clients int) scenario.Scenario {
	return benchWindow(scenario.Sales(clients))
}

// registered resolves a registry scenario on the compressed window.
func registered(b *testing.B, name string) scenario.Scenario {
	b.Helper()
	s, ok := scenario.Get(name)
	if !ok {
		b.Fatalf("scenario %s not registered", name)
	}
	return benchWindow(s)
}

// mustSweep runs scenarios concurrently, failing the benchmark on any
// error, and returns results in input order.
func mustSweep(b *testing.B, scenarios ...scenario.Scenario) []*harness.Result {
	b.Helper()
	out := make([]*harness.Result, len(scenarios))
	for i, sr := range scenario.RunSweep(scenarios, 0) {
		if sr.Err != nil {
			b.Fatalf("%s: %v", sr.Scenario.Name, sr.Err)
		}
		out[i] = sr.Result
	}
	return out
}

// simMeter accumulates scheduler-event counts across a benchmark's
// simulation runs so every benchmark reports sim-events/sec — the
// throughput of the simulator itself, independent of what the simulated
// server achieved. Create it before b.N work starts and report at the
// end.
type simMeter struct {
	events uint64
	start  time.Time
}

func startSimMeter(b *testing.B) *simMeter {
	b.ReportAllocs()
	return &simMeter{start: time.Now()}
}

func (m *simMeter) add(results ...*harness.Result) {
	for _, r := range results {
		m.events += r.SimEvents
	}
}

func (m *simMeter) addEvents(n uint64) { m.events += n }

func (m *simMeter) report(b *testing.B) {
	if sec := time.Since(m.start).Seconds(); sec > 0 {
		b.ReportMetric(float64(m.events)/sec, "sim-events/sec")
	}
}

// BenchmarkFigure1MonitorLadder builds the server figure3 runs and
// verifies and reports its monitor ladder: thresholds strictly ascending,
// concurrency never rising (4·CPU / 1·CPU / 1).
func BenchmarkFigure1MonitorLadder(b *testing.B) {
	s, ok := scenario.Get("figure3")
	if !ok {
		b.Fatal("no figure3 scenario")
	}
	cat := s.Workload.NewCatalog(s.Scale, workload.DefaultExtentBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		srv, err := engine.NewShared(s.ServerConfig(), cat, engine.Prebuilt{}, vtime.NewScheduler())
		if err != nil {
			b.Fatal(err)
		}
		info := srv.Governor().Chain().Info()
		for j := 1; j < len(info); j++ {
			if info[j].Threshold <= info[j-1].Threshold || info[j].Slots > info[j-1].Slots {
				b.Fatal("monitor ladder not monotonic")
			}
		}
		b.ReportMetric(float64(info[0].Slots), "small-slots")
		b.ReportMetric(float64(info[1].Slots), "medium-slots")
		b.ReportMetric(float64(info[2].Slots), "big-slots")
	}
}

// BenchmarkFigure2ThrottleTrace reproduces the Figure 2 trace: staggered
// compilations block at monitors (flat regions in their memory curves)
// and later compilations are blocked by earlier ones.
func BenchmarkFigure2ThrottleTrace(b *testing.B) {
	meter := startSimMeter(b)
	for i := 0; i < b.N; i++ {
		sched := vtime.NewScheduler()
		budget := mem.NewBudget(1 * mem.GiB)
		gov, err := core.NewGovernor(core.DefaultOptions(2, budget.Total()), budget.NewTracker("compile"))
		if err != nil {
			b.Fatal(err)
		}
		var waits time.Duration
		peaks := []int64{420 * mem.MiB, 300 * mem.MiB, 280 * mem.MiB}
		for qi, peak := range peaks {
			qi, peak := qi, peak
			sched.Go("q", func(t *vtime.Task) {
				t.Sleep(time.Duration(qi) * 5 * time.Second)
				c := gov.Begin(t, "q")
				for c.Used() < peak {
					if err := c.Alloc(10 * mem.MiB); err != nil {
						b.Error(err)
						break
					}
					t.Sleep(time.Second)
				}
				waits += c.GateWait()
				c.Finish()
			})
		}
		if err := sched.Run(); err != nil {
			b.Fatal(err)
		}
		if waits == 0 {
			b.Fatal("no gate blocking occurred; Figure 2 trace is flat")
		}
		meter.addEvents(sched.Events())
		b.ReportMetric(waits.Seconds(), "gate-wait-s")
	}
	meter.report(b)
}

// throughputFigure runs one paper throughput figure (3, 4 or 5): the
// throttled scenario and its baseline sweep concurrently.
func throughputFigure(b *testing.B, clients int) {
	meter := startSimMeter(b)
	for i := 0; i < b.N; i++ {
		s := benchScenario(clients)
		res := mustSweep(b, s, s.Baseline())
		th, ba := res[0], res[1]
		meter.add(res...)
		ratio, _ := harness.Compare(th, ba)
		b.ReportMetric(float64(th.Completed), "throttled-completions")
		b.ReportMetric(float64(ba.Completed), "baseline-completions")
		b.ReportMetric(ratio, "throughput-ratio")
		b.ReportMetric(float64(th.Errors), "throttled-errors")
		b.ReportMetric(float64(ba.Errors), "baseline-errors")
	}
	meter.report(b)
}

// BenchmarkFigure3Throughput30 reproduces Figure 3 (30 clients): the
// paper reports ~35% higher throughput with throttling enabled.
func BenchmarkFigure3Throughput30(b *testing.B) { throughputFigure(b, 30) }

// BenchmarkFigure4Throughput35 reproduces Figure 4 (35 clients).
func BenchmarkFigure4Throughput35(b *testing.B) { throughputFigure(b, 35) }

// BenchmarkFigure5Throughput40 reproduces Figure 5 (40 clients).
func BenchmarkFigure5Throughput40(b *testing.B) { throughputFigure(b, 40) }

// BenchmarkFigure5Collapse40 runs the timer-heaviest registry scenario:
// the Figure 5 pair at 40 clients, where the unthrottled baseline
// collapses into the OOM-retry spiral — peak live-timer density (codegen
// ramp steps, grant retries, client retry backoffs, pager ticks all in
// flight) and therefore the scheduler's worst case. Tracked separately
// from the figure benchmarks so timer-wheel regressions surface on the
// scenario that stresses the wheel hardest.
func BenchmarkFigure5Collapse40(b *testing.B) {
	meter := startSimMeter(b)
	for i := 0; i < b.N; i++ {
		s := registered(b, "figure5")
		res := mustSweep(b, s, s.Baseline())
		meter.add(res...)
		ratio, _ := harness.Compare(res[0], res[1])
		b.ReportMetric(float64(res[0].Completed), "throttled-completions")
		b.ReportMetric(float64(res[1].Completed), "baseline-completions")
		b.ReportMetric(ratio, "throughput-ratio")
		b.ReportMetric(float64(res[1].Errors), "baseline-errors")
	}
	meter.report(b)
}

// BenchmarkClientSweep reproduces the §5.2 observation that 30 clients is
// the maximum-throughput point: fewer clients yield less throughput, more
// clients saturate the server. All four populations run concurrently.
func BenchmarkClientSweep(b *testing.B) {
	counts := []int{10, 20, 30, 40}
	meter := startSimMeter(b)
	for i := 0; i < b.N; i++ {
		scenarios := make([]scenario.Scenario, len(counts))
		for j, clients := range counts {
			scenarios[j] = benchScenario(clients)
		}
		for j, r := range mustSweep(b, scenarios...) {
			meter.add(r)
			b.ReportMetric(float64(r.Completed), "completions-"+strconv.Itoa(counts[j]))
		}
	}
	meter.report(b)
}

// BenchmarkCompletionRates reproduces the §5.2 reliability claim:
// throttling yields measurably higher completion rates (fewer resource
// errors) under overload.
func BenchmarkCompletionRates(b *testing.B) {
	meter := startSimMeter(b)
	for i := 0; i < b.N; i++ {
		s30, s40 := benchScenario(30), benchScenario(40)
		res := mustSweep(b, s30, s30.Baseline(), s40, s40.Baseline())
		meter.add(res...)
		b.ReportMetric(completionRate(res[0]), "throttled-rate-30")
		b.ReportMetric(completionRate(res[1]), "baseline-rate-30")
		b.ReportMetric(completionRate(res[2]), "throttled-rate-40")
		b.ReportMetric(completionRate(res[3]), "baseline-rate-40")
	}
	meter.report(b)
}

func completionRate(r *harness.Result) float64 {
	total := float64(r.Completed + r.Errors)
	if total == 0 {
		return 0
	}
	return float64(r.Completed) / total
}

// BenchmarkCompileMemoryByWorkload reproduces the §5.1 claim that SALES
// queries consume one to two orders of magnitude more compile memory than
// TPC-H queries of similar scale.
func BenchmarkCompileMemoryByWorkload(b *testing.B) {
	salesCat := catalog.NewSales(catalog.SalesConfig{Scale: 0.04, ExtentBytes: 8 << 20})
	tpchCat := catalog.NewTPCHLike(0.0004, 8<<20)
	salesOpt := optimizer.New(stats.NewEstimator(salesCat), optimizer.DefaultConfig())
	tpchOpt := optimizer.New(stats.NewEstimator(tpchCat), optimizer.DefaultConfig())
	salesGen, tpchGen := workload.NewSales(), workload.NewTPCH()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var salesBytes, tpchBytes int64
		const n = 30
		for j := 0; j < n; j++ {
			q, err := sqlparser.Parse(salesGen.Next(rng))
			if err != nil {
				b.Fatal(err)
			}
			p, err := salesOpt.Optimize(q, optimizer.Hooks{})
			if err != nil {
				b.Fatal(err)
			}
			salesBytes += p.CompileBytes
			q2, err := sqlparser.Parse(tpchGen.Next(rng))
			if err != nil {
				b.Fatal(err)
			}
			p2, err := tpchOpt.Optimize(q2, optimizer.Hooks{})
			if err != nil {
				b.Fatal(err)
			}
			tpchBytes += p2.CompileBytes
		}
		ratio := float64(salesBytes) / float64(tpchBytes)
		if ratio < 10 {
			b.Fatalf("SALES/TPC-H compile memory ratio = %.1f, paper says 1-2 orders of magnitude", ratio)
		}
		b.ReportMetric(float64(salesBytes)/n/float64(mem.MiB), "sales-MiB/query")
		b.ReportMetric(float64(tpchBytes)/n/float64(mem.MiB), "tpch-MiB/query")
		b.ReportMetric(ratio, "sales/tpch-ratio")
	}
}

// BenchmarkQueryProfile reproduces the §5.2 workload profile: compiles of
// 10-90 s and executions of 30 s - 10 min.
func BenchmarkQueryProfile(b *testing.B) {
	meter := startSimMeter(b)
	for i := 0; i < b.N; i++ {
		r := mustSweep(b, benchScenario(30))[0]
		meter.add(r)
		b.ReportMetric(r.CompileP50.Seconds(), "compile-p50-s")
		b.ReportMetric(r.ExecP50.Seconds(), "exec-p50-s")
		if r.CompileP50 < time.Second || r.CompileP50 > 5*time.Minute {
			b.Fatalf("compile p50 %v outside the paper's profile", r.CompileP50)
		}
		if r.ExecP50 < 10*time.Second || r.ExecP50 > 30*time.Minute {
			b.Fatalf("exec p50 %v outside the paper's profile", r.ExecP50)
		}
	}
	meter.report(b)
}

// BenchmarkRetryStorm runs the fault-plane headline pair: a compile-storm
// burst under aggressive client retries at 40 clients, throttled (with
// brown-out and a cooperating driver) against the collapsing baseline.
// It first asserts that the retry path's error handling is allocation-free:
// the gateway rewrites one recycled ErrTimeout in place and the taxonomy
// classifies it without formatting, so a retry storm costs no garbage.
func BenchmarkRetryStorm(b *testing.B) {
	var te gateway.ErrTimeout
	if a := testing.AllocsPerRun(100, func() {
		te = gateway.ErrTimeout{Gate: "small", Wait: 42 * time.Second}
		if !errclass.IsShed(&te) || errclass.Of(engine.ErrCrashed) != errclass.Crashed {
			b.Fatal("error taxonomy misclassified recycled errors")
		}
	}); a != 0 {
		b.Fatalf("recycled-error retry path allocates %.1f allocs/op, want 0", a)
	}
	meter := startSimMeter(b)
	for i := 0; i < b.N; i++ {
		s := registered(b, "retry-storm")
		res := mustSweep(b, s, s.Baseline())
		th, ba := res[0], res[1]
		meter.add(res...)
		ratio, _ := harness.Compare(th, ba)
		b.ReportMetric(ratio, "throughput-ratio")
		b.ReportMetric(float64(th.Load.Retries), "throttled-retries")
		b.ReportMetric(float64(ba.Load.Retries), "baseline-retries")
		b.ReportMetric(float64(th.Load.GiveUps), "giveups")
		b.ReportMetric(th.RecoveryTime.Seconds(), "recovery-s")
	}
	meter.report(b)
}

// BenchmarkCluster runs the cluster plane: the three registered
// multi-node scenarios plus the affinity experiment's round-robin twin,
// all concurrently, on their registered windows (they are already
// bench-sized; the 1000-client round-robin run dominates the cost).
// The headline custom metric is the plan-cache locality margin the
// routing-policy claim pins.
func BenchmarkCluster(b *testing.B) {
	meter := startSimMeter(b)
	for i := 0; i < b.N; i++ {
		rr, ok := scenario.Get("cluster-roundrobin")
		if !ok {
			b.Fatal("cluster-roundrobin not registered")
		}
		aff, ok := scenario.Get("cluster-affinity")
		if !ok {
			b.Fatal("cluster-affinity not registered")
		}
		affTwin := aff
		affTwin.Name = "cluster-affinity-roundrobin"
		affTwin.Router = cluster.RoundRobin
		loss, ok := scenario.Get("cluster-nodeloss")
		if !ok {
			b.Fatal("cluster-nodeloss not registered")
		}
		res := mustSweep(b, rr, aff, affTwin, loss)
		meter.add(res...)
		b.ReportMetric(float64(res[0].Completed), "roundrobin-completions")
		b.ReportMetric(res[1].PlanCacheHitRate, "affinity-hit-rate")
		b.ReportMetric(res[1].PlanCacheHitRate-res[2].PlanCacheHitRate, "affinity-hit-margin")
		b.ReportMetric(float64(res[3].Errors), "nodeloss-errors")
		b.ReportMetric(res[3].RecoveryTime.Seconds(), "nodeloss-recovery-s")
	}
	meter.report(b)
}

// --- Ablations (A-1 .. A-5 in DESIGN.md) ---

// BenchmarkAblationMonitorCount compares 1-, 2-, 3- and 5-monitor
// ladders; the paper chose three monitors ("four memory usage
// categories") as the best balance. The ladder variants come from the
// scenario registry and all four servers run concurrently.
func BenchmarkAblationMonitorCount(b *testing.B) {
	meter := startSimMeter(b)
	for i := 0; i < b.N; i++ {
		scenarios := []scenario.Scenario{
			registered(b, "monitors-1"),
			registered(b, "monitors-2"),
			benchScenario(30), // the paper's 3-monitor default
			registered(b, "monitors-5"),
		}
		names := []string{"1", "2", "3", "5"}
		for j, r := range mustSweep(b, scenarios...) {
			meter.add(r)
			b.ReportMetric(float64(r.Completed), "completions-"+names[j]+"mon")
		}
	}
	meter.report(b)
}

// BenchmarkAblationDynamicThresholds compares §4.1's broker-driven
// thresholds against static ones.
func BenchmarkAblationDynamicThresholds(b *testing.B) {
	meter := startSimMeter(b)
	for i := 0; i < b.N; i++ {
		dynamic := benchScenario(35)
		static := benchScenario(35)
		// On the scenario's calibrated server: only the thresholds policy
		// may differ between the two arms.
		static.Server.DynamicThresholds = false
		res := mustSweep(b, dynamic, static)
		meter.add(res...)
		b.ReportMetric(float64(res[0].Completed), "completions-dynamic")
		b.ReportMetric(float64(res[0].Errors), "errors-dynamic")
		b.ReportMetric(float64(res[1].Completed), "completions-static")
		b.ReportMetric(float64(res[1].Errors), "errors-static")
	}
	meter.report(b)
}

// BenchmarkAblationBestEffortPlan compares §4.1's best-effort plans
// against plain out-of-memory failures on a memory-starved machine.
func BenchmarkAblationBestEffortPlan(b *testing.B) {
	meter := startSimMeter(b)
	for i := 0; i < b.N; i++ {
		res := mustSweep(b, registered(b, "best-effort"), registered(b, "best-effort-off"))
		meter.add(res...)
		for j, key := range []string{"on", "off"} {
			r := res[j]
			b.ReportMetric(float64(r.Completed), "completions-besteffort-"+key)
			b.ReportMetric(float64(r.ErrorsByKind[engine.ErrKindOOM]), "oom-besteffort-"+key)
			b.ReportMetric(float64(r.BestEffortPlans), "besteffort-plans-"+key)
		}
	}
	meter.report(b)
}

// BenchmarkAblationBypass verifies the diagnostic-query property: small
// queries proceed unblocked (zero gate acquisitions) even while the
// system is saturated with large compilations.
func BenchmarkAblationBypass(b *testing.B) {
	meter := startSimMeter(b)
	for i := 0; i < b.N; i++ {
		r := mustSweep(b, registered(b, "oltp-mix"))[0]
		meter.add(r)
		b.ReportMetric(float64(r.Completed), "mix-completions")
		b.ReportMetric(float64(r.GatewayTimeouts), "gateway-timeouts")
	}
	meter.report(b)
}

// BenchmarkAblationBrokerOnly measures the broker's contribution without
// compilation throttling (ablation A-5).
func BenchmarkAblationBrokerOnly(b *testing.B) {
	meter := startSimMeter(b)
	for i := 0; i < b.N; i++ {
		res := mustSweep(b, registered(b, "broker-only"), registered(b, "no-governance"))
		meter.add(res...)
		b.ReportMetric(float64(res[0].Completed), "completions-broker-on")
		b.ReportMetric(float64(res[1].Completed), "completions-broker-off")
	}
	meter.report(b)
}
