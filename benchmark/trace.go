package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"compilegate"
	"compilegate/internal/harness"
	"compilegate/internal/metrics"
	"compilegate/internal/optimizer"
	"compilegate/internal/plan"
	"compilegate/internal/scenario"
	"compilegate/internal/sqlparser"
	"compilegate/internal/stats"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Times are host nanoseconds since the
// traced run began; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	// Sized for a full traced run so no timed call pays for a regrow.
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<15)}
}

func (tr *tracer) begin(parent int, name, layer string) int {
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Name: name, Layer: layer,
		Start: int64(time.Since(tr.t0))})
	return len(tr.spans)
}

func (tr *tracer) end(id int) time.Duration {
	s := &tr.spans[id-1]
	s.End = int64(time.Since(tr.t0))
	return time.Duration(s.End - s.Start)
}

// record adds a span for an interval that was timed elsewhere.
func (tr *tracer) record(parent int, name, layer string, start time.Time, d time.Duration) {
	at := int64(start.Sub(tr.t0))
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Name: name, Layer: layer,
		Start: at, End: at + int64(d)})
}

// traceSizes are the fixed sizes of the traced run; quick shrinks them
// for the smoke test.
type traceSizes struct {
	corpus        int           // statements drawn for the layer replay
	passes        int           // replay and micro-driver passes, fastest wins
	profileTarget time.Duration // profiled wall time wanted (100 Hz => 1000 samples in 10 s)
	microScale    int           // divisor on micro-driver iteration counts
}

func sizesFor(quick bool) traceSizes {
	if quick {
		return traceSizes{corpus: 32, passes: 2, profileTarget: 0, microScale: 20}
	}
	return traceSizes{corpus: 512, passes: 5, profileTarget: 10 * time.Second, microScale: 1}
}

// tracedRun is the outcome of the traced measurement of one workload.
type tracedRun struct {
	tally
	Values map[string]float64
	// Digests are the per-seed result digests, equal across the untraced,
	// profiled and swept runs or the run has failed operations.
	Digests []string
	// Table is the "where the time goes" report.
	Table string
	Doc   traceDoc
}

// traceDoc is what trace-<workload>.json holds.
type traceDoc struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Samples  int64              `json:"profile_samples"`
	Shares   map[string]float64 `json:"profile_share_by_layer"`
	TopFuncs []funcSamples      `json:"profile_top_functions"`
	ReplayNs map[string]float64 `json:"replay_ns_per_call"`
	Counters map[string]float64 `json:"counters"`
	Spans    []span             `json:"spans"`
}

type funcSamples struct {
	Func    string `json:"func"`
	Layer   string `json:"layer"`
	Samples int64  `json:"samples"`
}

// runTraced is the traced measurement: untraced reference rounds, then
// profiled passes over the same seeds, the fixed-corpus layer replay, the
// micro-drivers, a parallel sweep, and seed base's counters.
func runTraced(w Workload, base int64, budget time.Duration, quick bool) (*tracedRun, error) {
	sz := sizesFor(quick)
	out := &tracedRun{Values: map[string]float64{}}
	tr := newTracer()

	if err := warmUp(w, base); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// Untraced reference: two rounds give the fastest untraced time per
	// seed, the run-to-run spread, and the digests profiling must not move.
	ref := w
	ref.MinRounds = 2
	root := tr.begin(0, "untraced rounds", "harness")
	refRounds := rounds(ref, base, 0, &out.tally)
	tr.end(root)
	fastest := make([]time.Duration, w.Seeds)
	var walls, spreadPool []float64
	for i := range fastest {
		var seedWalls []float64
		for r, round := range refRounds {
			rec := round[i]
			tr.record(root, fmt.Sprintf("run seed=%d round=%d", rec.Seed, r), "scenario", rec.Start, rec.Wall)
			if rec.Result == nil {
				continue
			}
			if fastest[i] == 0 || rec.Wall < fastest[i] {
				fastest[i] = rec.Wall
			}
			seedWalls = append(seedWalls, float64(rec.Wall))
			walls = append(walls, float64(rec.Wall)/1e6)
		}
		m := scenario.Median(seedWalls)
		for _, x := range seedWalls {
			spreadPool = append(spreadPool, ratio(x, m))
		}
	}
	for _, rec := range refRounds[0] {
		out.Digests = append(out.Digests, rec.Digest)
	}
	first := refRounds[0][0].Result
	if first == nil {
		return nil, fmt.Errorf("seed %d produced no result: %v", base, refRounds[0][0].Err)
	}
	out.Values["harness.run_wall_ms_p50"] = scenario.Median(walls)
	out.Values["harness.run_wall_spread"] = ratio(scenario.Quantile(spreadPool, 0.75)-scenario.Quantile(spreadPool, 0.25), scenario.Median(spreadPool))
	var fastSum time.Duration
	var events uint64
	for i, d := range fastest {
		fastSum += d
		if r := refRounds[0][i].Result; r != nil {
			events += r.SimEvents
		}
	}
	out.Values["vtime.host_ns_per_event"] = ratio(float64(fastSum.Nanoseconds()), float64(events))

	// Profile attribution.
	profBudget := min(sz.profileTarget, budget/2)
	prof, err := profilePasses(tr, w, base, refRounds[0], profBudget, &out.tally)
	if err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		if d.Source == srcProfile {
			out.Values[d.Name] = prof.shares[strings.TrimSuffix(d.Name, ".cpu_share")]
		}
	}
	out.Values["harness.tracing_overhead"] = ratio(float64(prof.fastest), float64(fastSum))

	// Layer replay and micro-drivers.
	replay, err := replayLayers(tr, w, base, sz)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	for k, v := range replay {
		out.Values[k] = v
	}

	// Parallel efficiency, reported on its own instead of being folded
	// into an events-per-second figure.
	out.Values["scenario.sweep_speedup"] = sweepSpeedup(tr, w, base, refRounds[0], fastest, &out.tally)

	for k, v := range counterValues(first) {
		out.Values[k] = v
	}
	out.Values["harness.peak_rss_mb"] = peakRSSMiB()

	bySource := func(source string) map[string]float64 {
		m := map[string]float64{}
		for _, d := range perLayer {
			if d.Source == source {
				m[d.Name] = out.Values[d.Name]
			}
		}
		return m
	}
	out.Doc = traceDoc{Workload: w.Name, Seed: base, Samples: prof.samples, Shares: prof.shares, TopFuncs: prof.top,
		ReplayNs: bySource(srcReplay), Counters: bySource(srcCounter), Spans: tr.spans}
	out.Table = timeTable(w, out)
	return out, nil
}

// profile is what the profiled passes yield.
type profile struct {
	shares  map[string]float64 // share of leaf samples per layer
	samples int64
	top     []funcSamples
	fastest time.Duration // sum over seeds of the fastest profiled wall time
}

// profilePasses runs whole passes over the seeds under the CPU profiler
// until target wall time is covered (at least one pass).
func profilePasses(tr *tracer, w Workload, base int64, ref []runRecord, target time.Duration, t *tally) (*profile, error) {
	var buf bytes.Buffer
	root := tr.begin(0, "profiled passes", "harness")
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	fastest := make([]time.Duration, len(ref))
	start := time.Now()
	for pass := 0; ; pass++ {
		passStart := time.Now()
		for i, seed := range seedsOf(w, base) {
			rec := simulate(w, seed, ref[i].Digest)
			t.add(w, rec)
			tr.record(root, fmt.Sprintf("profiled run seed=%d pass=%d", seed, pass), "scenario", rec.Start, rec.Wall)
			if rec.Result != nil && (fastest[i] == 0 || rec.Wall < fastest[i]) {
				fastest[i] = rec.Wall
			}
		}
		// Stop once the target is covered, or when one more pass would
		// overshoot it by half (a 10 s pass is not repeated to add 4%).
		if e := time.Since(start); e >= target || e+time.Since(passStart) > target+target/2 {
			break
		}
	}
	pprof.StopCPUProfile()
	tr.end(root)

	byFunc, err := leafSamples(buf.Bytes())
	if err != nil {
		return nil, err
	}
	shares, total := layerShares(byFunc)
	top := make([]funcSamples, 0, len(byFunc))
	for fn, n := range byFunc {
		top = append(top, funcSamples{Func: fn, Layer: layerOf(fn), Samples: n})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].Samples != top[j].Samples {
			return top[i].Samples > top[j].Samples
		}
		return top[i].Func < top[j].Func
	})
	if len(top) > 25 {
		top = top[:25]
	}
	var sum time.Duration
	for _, d := range fastest {
		sum += d
	}
	return &profile{shares: shares, samples: total, top: top, fastest: sum}, nil
}

// replayLayers times calls into single layers' public functions on a
// fixed corpus drawn from the workload's generator, plus three fixed
// micro-drivers through the root API. Every per-call number is the
// fastest of sz.passes passes.
func replayLayers(tr *tracer, w Workload, seed int64, sz traceSizes) (map[string]float64, error) {
	best := map[string]float64{}
	keep := func(name string, ns float64) {
		if old, ok := best[name]; !ok || ns < old {
			best[name] = ns
		}
	}
	// Every pinned workload runs against the SALES catalog.
	cat := compilegate.NewSalesCatalog(w.Scenario.Scale)
	opt := optimizer.New(stats.NewEstimator(cat), optimizer.DefaultConfig())

	var compileBytes int64
	var distinct int
	for pass := 0; pass < sz.passes; pass++ {
		totals, cb, n, err := replayPass(tr, w, seed, sz.corpus, cat, opt)
		if err != nil {
			return nil, err
		}
		compileBytes, distinct = cb, n
		for name, c := range totals {
			keep(name, ratio(float64(c.total), float64(c.calls)))
		}
		keep("core.alloc_ns", governorDriver(tr, sz))
		keep("broker.tick_ns", brokerDriver(tr, sz))
		ns, err := timerDriver(tr, sz)
		if err != nil {
			return nil, err
		}
		keep("vtime.event_ns", ns)
	}
	best["optimizer.compile_mb_per_stmt"] = ratio(float64(compileBytes)/float64(compilegate.MiB), float64(distinct))
	return best, nil
}

type callTotal struct {
	total time.Duration
	calls int
}

// replayPass is one pass over the corpus: for each statement a parent
// span, and as its children the calls into the generator, the parser, the
// fingerprint, the optimizer (first sight of a statement only), the
// recorder, and one Submit on an otherwise idle one-client server.
func replayPass(tr *tracer, w Workload, seed int64, n int, cat *compilegate.Catalog, opt *optimizer.Optimizer) (map[string]*callTotal, int64, int, error) {
	totals := map[string]*callTotal{}
	for _, name := range []string{"workload.next_ns", "sqlparser.parse_ns", "sqlparser.fingerprint_ns",
		"optimizer.optimize_ns", "metrics.record_ns", "engine.submit_ns"} {
		totals[name] = &callTotal{}
	}
	timed := func(parent int, metric, layer string, call func()) {
		id := tr.begin(parent, metric[:len(metric)-len("_ns")], layer)
		call()
		c := totals[metric]
		c.total += tr.end(id)
		c.calls++
	}

	sched := compilegate.NewScheduler()
	cfg := compilegate.DefaultServerConfig()
	if w.Scenario.Engine != nil {
		w.Scenario.Engine(&cfg)
	}
	cfg.Throttle = w.Scenario.Throttled
	srv, err := compilegate.NewServer(cfg, cat, sched)
	if err != nil {
		return nil, 0, 0, err
	}
	gen := w.Scenario.Workload.Generator()
	rng := rand.New(rand.NewSource(seed))
	rec := metrics.NewRecorder(sliceDur)
	seen := map[string]bool{}
	var q plan.Query
	var compileBytes int64
	var firstErr error

	root := tr.begin(0, "layer replay pass", "harness")
	sched.Go("replay", func(t *compilegate.Task) {
		defer srv.Close()
		for i := 0; i < n; i++ {
			stmt := tr.begin(root, "statement", "harness")
			var sql, fp string
			timed(stmt, "workload.next_ns", "workload", func() { sql = gen.Next(rng) })
			timed(stmt, "sqlparser.parse_ns", "sqlparser", func() { err = sqlparser.ParseInto(&q, sql) })
			if err != nil {
				firstErr = err
				return
			}
			timed(stmt, "sqlparser.fingerprint_ns", "sqlparser", func() { fp = sqlparser.Fingerprint(sql) })
			if !seen[fp] {
				seen[fp] = true
				var p *plan.Plan
				timed(stmt, "optimizer.optimize_ns", "optimizer", func() { p, err = opt.Optimize(&q, optimizer.Hooks{}) })
				if err != nil {
					firstErr = err
					return
				}
				compileBytes += p.CompileBytes
			}
			timed(stmt, "metrics.record_ns", "metrics", func() { rec.RecordCompletion(t.Now()) })
			timed(stmt, "engine.submit_ns", "engine", func() { err = srv.Submit(t, sql) })
			if err != nil {
				firstErr = fmt.Errorf("submit on an idle server: %w", err)
				return
			}
			tr.end(stmt)
		}
	})
	if err := sched.Run(); err != nil {
		return nil, 0, 0, err
	}
	tr.end(root)
	if firstErr != nil {
		return nil, 0, 0, firstErr
	}
	if got := int(rec.Completed()); got != n {
		return nil, 0, 0, fmt.Errorf("recorder counted %d completions of %d", got, n)
	}
	return totals, compileBytes, len(seen), nil
}

// governorDriver times Compilation.Alloc on an uncontended monitor
// ladder: one compilation at a time climbing through every threshold.
func governorDriver(tr *tracer, sz traceSizes) float64 {
	const allocsPer = 64
	compilations := 200 / sz.microScale
	sched := compilegate.NewScheduler()
	budget := compilegate.NewBudget(64 * compilegate.GiB)
	gov, err := compilegate.NewGovernor(compilegate.DefaultGovernorOptions(8, budget.Total()), budget.NewTracker("compile"))
	if err != nil {
		panic(err) // fixed valid options: only a bug can fail here
	}
	var total time.Duration
	root := tr.begin(0, "governor micro-driver", "harness")
	sched.Go("compiler", func(t *compilegate.Task) {
		for c := 0; c < compilations; c++ {
			comp := gov.Begin(t, "q")
			id := tr.begin(root, "governor.alloc x64", "core")
			for a := 0; a < allocsPer; a++ {
				if err := comp.Alloc(8 * compilegate.MiB); err != nil {
					panic(err)
				}
			}
			total += tr.end(id)
			comp.Finish()
		}
	})
	if err := sched.Run(); err != nil {
		panic(err)
	}
	tr.end(root)
	return ratio(float64(total), float64(compilations*allocsPer))
}

// brokerDriver times Broker.Tick over four components under sustained
// pressure, so trend prediction and target computation both run.
func brokerDriver(tr *tracer, sz traceSizes) float64 {
	ticks := 20000 / sz.microScale
	budget := compilegate.NewBudget(4 * compilegate.GiB)
	brk := compilegate.NewBroker(compilegate.DefaultBrokerConfig(), budget)
	trackers := make([]*compilegate.Tracker, 4)
	for i := range trackers {
		tk := budget.NewTracker(fmt.Sprintf("c%d", i))
		tk.MustReserve(950 * compilegate.MiB)
		trackers[i] = tk
		brk.Register(tk.Name(), float64(i+1), 64*compilegate.MiB, tk.Used, func(compilegate.Notification) {})
	}
	id := tr.begin(0, fmt.Sprintf("broker.tick x%d", ticks), "broker")
	for i := 0; i < ticks; i++ {
		// One component breathes so the trend is never flat.
		if i%2 == 0 {
			trackers[0].MustReserve(16 * compilegate.MiB)
		} else {
			trackers[0].Release(16 * compilegate.MiB)
		}
		brk.Tick(time.Duration(i) * time.Second)
	}
	return ratio(float64(tr.end(id)), float64(ticks))
}

// timerDriver times the event core alone: tasks that only sleep.
func timerDriver(tr *tracer, sz traceSizes) (float64, error) {
	const tasks = 64
	sleeps := 2000 / sz.microScale
	sched := compilegate.NewScheduler()
	for i := 0; i < tasks; i++ {
		d := time.Duration(i%7+1) * 37 * time.Millisecond
		sched.Go("sleeper", func(t *compilegate.Task) {
			for s := 0; s < sleeps; s++ {
				t.Sleep(d)
			}
		})
	}
	id := tr.begin(0, "scheduler timer-only run", "vtime")
	if err := sched.Run(); err != nil {
		return 0, err
	}
	return ratio(float64(tr.end(id)), float64(sched.Events())), nil
}

// sweepSpeedup runs the first min(4, S) seeds through RunSweep at
// min(GOMAXPROCS, 4) workers and divides the serial time (the fastest
// untraced runs of the same seeds) by the sweep's wall time.
func sweepSpeedup(tr *tracer, w Workload, base int64, ref []runRecord, fastest []time.Duration, t *tally) float64 {
	n := min(4, w.Seeds)
	workers := min(runtime.GOMAXPROCS(0), 4)
	scs := make([]scenario.Scenario, n)
	var serial time.Duration
	for i := range scs {
		scs[i] = w.Scenario.WithSeed(base + int64(i))
		serial += fastest[i]
	}
	runtime.GC()
	id := tr.begin(0, fmt.Sprintf("sweep %d runs on %d workers", n, workers), "scenario")
	results := scenario.RunSweep(scs, workers)
	wall := tr.end(id)
	for i, sr := range results {
		rec := runRecord{Seed: base + int64(i), Err: sr.Err, Result: sr.Result}
		if sr.Err == nil {
			rec.Digest = digest(sr.Result)
			rec.Err = check(w, sr.Result, rec.Digest, ref[i].Digest)
		}
		t.add(w, rec)
	}
	return ratio(float64(serial), float64(wall))
}

// counterValues reads the modelled-component counters of one run. They
// are simulated quantities and repeat exactly.
func counterValues(r *harness.Result) map[string]float64 {
	mib := float64(compilegate.MiB)
	var trips uint64
	for _, n := range r.NodeResults {
		trips += n.BreakerTrips
	}
	var downtime time.Duration
	if r.Fault != nil {
		downtime = r.Fault.DownTime
	}
	attempts := float64(queries(r))
	return map[string]float64{
		"vtime.events_per_query":      ratio(float64(r.SimEvents), attempts),
		"gateway.timeouts":            float64(r.GatewayTimeouts),
		"core.best_effort_plans":      float64(r.BestEffortPlans),
		"core.brownout_ticks":         float64(r.BrownoutTicks),
		"engine.compile_p50_vs":       r.CompileP50.Seconds(),
		"engine.compile_p90_vs":       r.CompileP90.Seconds(),
		"engine.active_compiles_avg":  r.AvgActiveCompiles,
		"mem.overcommit_avg":          r.AvgOvercommitRatio,
		"mem.compile_avg_mb":          float64(r.AvgCompileBytes) / mib,
		"mem.exec_avg_mb":             float64(r.AvgExecBytes) / mib,
		"mem.pool_avg_mb":             float64(r.AvgPoolBytes) / mib,
		"engine.compile_mem_mean_mb":  float64(r.CompileMemMean) / mib,
		"engine.compile_mem_max_mb":   float64(r.CompileMemMax) / mib,
		"bufferpool.hit_rate":         r.BufferPoolHitRate,
		"bufferpool.page_steal_mb":    float64(r.PageStealBytes) / mib,
		"engine.exec_p50_vs":          r.ExecP50.Seconds(),
		"plancache.hit_rate":          r.PlanCacheHitRate,
		"workload.retries_per_query":  ratio(float64(r.Load.Retries), float64(r.Load.Submitted)),
		"workload.giveups":            float64(r.Load.GiveUps),
		"harness.attempt_error_share": 1 - ratio(float64(r.Load.Succeeded), attempts),
		"cluster.routed_imbalance":    routedImbalance(r),
		"cluster.rerouted":            float64(r.Rerouted),
		"cluster.resubmitted":         float64(r.Resubmitted),
		"cluster.breaker_trips":       float64(trips),
		"fault.downtime_vs":           downtime.Seconds(),
		"harness.recovery_vs":         r.RecoveryTime.Seconds(),
	}
}

// peakRSSMiB is this process's peak resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// timeTable renders the per-workload "where the time goes" report:
// profile share by layer, replay cost per call, counters.
func timeTable(w Workload, tr *tracedRun) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "where the time goes: %s (seed %d, %d profile samples)\n", w.Name, tr.Doc.Seed, tr.Doc.Samples)
	type kv struct {
		k string
		v float64
	}
	var shares []kv
	for k, v := range tr.Doc.Shares {
		shares = append(shares, kv{k, v})
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].v != shares[j].v {
			return shares[i].v > shares[j].v
		}
		return shares[i].k < shares[j].k
	})
	sb.WriteString("  cpu share by layer (leaf samples):\n")
	for _, s := range shares {
		if s.v < 0.005 {
			continue
		}
		fmt.Fprintf(&sb, "    %-12s %5.1f%%\n", s.k, 100*s.v)
	}
	sb.WriteString("  top functions:\n")
	for i, f := range tr.Doc.TopFuncs {
		if i == 8 {
			break
		}
		fmt.Fprintf(&sb, "    %5.1f%%  %s\n", 100*ratio(float64(f.Samples), float64(tr.Doc.Samples)), f.Func)
	}
	sb.WriteString("  replay, host ns per call (fastest pass):\n")
	for _, d := range perLayer {
		if d.Source == srcReplay {
			fmt.Fprintf(&sb, "    %-28s %12.0f\n", d.Name, tr.Values[d.Name])
		}
	}
	sb.WriteString("  counters of the base seed (simulated, exact):\n")
	for _, d := range perLayer {
		if d.Source == srcCounter {
			fmt.Fprintf(&sb, "    %-30s %14.4f %s\n", d.Name, tr.Values[d.Name], d.Unit)
		}
	}
	return sb.String()
}

// writeTrace writes the trace document to dir/trace-<workload>.json.
func writeTrace(dir string, doc traceDoc) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+doc.Workload+".json"), data, 0o644)
}
