// figures regenerates every figure dataset from the paper: the monitor
// ladder (Fig. 1), a compilation-throttling trace (Fig. 2), and the
// throttled-vs-baseline throughput series at 30/35/40 clients
// (Figs. 3-5), plus the headline numbers quoted in the text. It also runs
// any registered scenario against its baseline.
//
// Experiments resolve from the scenario registry, and every
// throttled/baseline pair runs concurrently through the sweep runner —
// `-figure all` executes all six throughput runs in parallel on real
// cores.
//
// Usage:
//
//	figures [-quick] [-figure all|1|2|3|4|5] [-workers N]
//	figures -list
//	figures -scenario oltp-mix [-clients N] [-seed N] [-scale F]
//	        [-workload sales|tpch|oltp|mix] [-horizon D] [-warmup D]
//	figures -faultplan [-scenario fault-leak]
//	figures -claims
//	figures -perturb
//
// -quick shrinks the simulation window so a full regeneration finishes in
// well under a minute of wall-clock time. The override flags replace
// that field of every scenario the command runs, after -quick. -scenario
// prints, after the side-by-side series, each side's completion series,
// error taxonomy, compile memory, gateway counters and engine report.
// -claims checks every row of scenario.Claims() over CLAIMS_SEEDS seeds
// (default 5) into a markdown table, and exits 1 when a row fails.
// -perturb checks every row again under each calibrated knob moved ±10%
// (scenario.KnobTwins), one row per claim and knob, then lists the cells
// that fail; it exits 1 only when a run returns an error.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"compilegate/internal/core"
	"compilegate/internal/gateway"
	"compilegate/internal/harness"
	"compilegate/internal/mem"
	"compilegate/internal/profiling"
	"compilegate/internal/scenario"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "short simulation window")
	fig := fs.String("figure", "all", "which figure to regenerate")
	scen := fs.String("scenario", "", "run one registered scenario (with its baseline) instead of a figure")
	list := fs.Bool("list", false, "list registered scenarios and exit")
	faultplan := fs.Bool("faultplan", false, "print the injected fault schedule of -scenario (or of every fault scenario) and exit")
	claims := fs.Bool("claims", false, "check every paper claim over the claim seeds and print the table")
	perturb := fs.Bool("perturb", false, "check every paper claim under each calibrated knob moved ±10% and print the table")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = all cores)")
	clients := fs.Int("clients", 0, "override the concurrent database users")
	seed := fs.Int64("seed", 0, "override the random seed")
	scale := fs.Float64("scale", 0, "override the catalog scale factor")
	wl := fs.String("workload", "", "override the workload: sales | tpch | oltp | mix")
	horizon := fs.Duration("horizon", 0, "override the virtual run length")
	warmup := fs.Duration("warmup", 0, "override the excluded warm-up prefix")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this path on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stop()

	// resolve looks a scenario up in the registry, then applies -quick and
	// the override flags given on the command line.
	resolve := func(name string) (scenario.Scenario, error) {
		s, ok := scenario.Get(name)
		if !ok {
			return s, fmt.Errorf("unknown scenario %q; -list shows the registry", name)
		}
		if *quick && s.Horizon > 2*time.Hour {
			s = s.WithWindow(2*time.Hour, 30*time.Minute)
		}
		var err error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "clients":
				s.Clients = *clients
			case "seed":
				s.Seed = *seed
			case "scale":
				s.Scale = *scale
			case "workload":
				s.Workload, err = workload.ParseSpec(*wl)
			case "horizon":
				s.Horizon = *horizon
			case "warmup":
				s.Warmup = *warmup
			}
		})
		return s, err
	}

	if *list {
		fmt.Fprint(w, scenario.List())
		return nil
	}
	if *claims {
		return renderClaims(w, scenario.RunClaims(scenario.Claims(), scenario.ClaimSeeds()))
	}
	if *perturb {
		return renderPerturbed(w, scenario.Claims(), scenario.KnobTwins(), scenario.ClaimSeeds())
	}
	if *faultplan {
		plans := scenario.All()
		if *scen != "" {
			s, err := resolve(*scen)
			if err != nil {
				return err
			}
			if s.Fault.Empty() {
				return fmt.Errorf("scenario %q injects no faults", *scen)
			}
			plans = []scenario.Scenario{s}
		}
		for _, s := range plans {
			if !s.Fault.Empty() {
				fmt.Fprintf(w, "== %s ==\n%s", s.Name, s.Fault.String())
			}
		}
		return nil
	}
	if *scen != "" {
		s, err := resolve(*scen)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== Scenario %s: %s ==\n", s.Name, s.Description)
		if !s.Fault.Empty() {
			plan := strings.TrimRight(s.Fault.String(), "\n")
			fmt.Fprintf(w, "  fault plan:\n  %s\n", strings.ReplaceAll(plan, "\n", "\n  "))
		}
		pair := scenario.RunSweep([]scenario.Scenario{s, s.Baseline()}, *workers)
		if err := renderPair(w, pair); err != nil {
			return err
		}
		for _, sr := range pair {
			renderRun(w, sr.Scenario, sr.Result)
		}
		return nil
	}

	figs := []string{*fig}
	switch *fig {
	case "1":
		figure1(w)
		return nil
	case "2":
		figure2(w)
		return nil
	case "all":
		figure1(w)
		figure2(w)
		figs = []string{"3", "4", "5"}
	case "3", "4", "5":
	default:
		return fmt.Errorf("unknown -figure %q", *fig)
	}
	// The throughput figures' throttled/baseline pairs sweep concurrently:
	// six independent simulations for -figure all.
	var scenarios []scenario.Scenario
	for _, n := range figs {
		s, err := resolve("figure" + n)
		if err != nil {
			return err
		}
		scenarios = append(scenarios, s, s.Baseline())
	}
	results := scenario.RunSweep(scenarios, *workers)
	for i, n := range figs {
		fmt.Fprintf(w, "== Figure %s: throughput, %d clients ==\n", n, results[2*i].Scenario.Clients)
		if err := renderPair(w, results[2*i:2*i+2]); err != nil {
			return err
		}
	}
	return nil
}

// renderClaims prints one markdown row per verdict and returns the
// failing claims' errors.
func renderClaims(w io.Writer, vs []scenario.Verdict) error {
	fmt.Fprint(w, "| claim | metric | band | n | mean | 95% CI | verdict |\n|---|---|---|---|---|---|---|\n")
	var errs []error
	for _, v := range vs {
		verdict := "holds"
		if v.Err != nil {
			verdict, errs = "fails", append(errs, v.Err)
		}
		fmt.Fprintf(w, "| %s | %s | [%g, %g] | %d | %.3f | [%.3f, %.3f] | %s |\n", v.Text, v.Metric.Name,
			v.Lo, v.Hi, v.Summary.N, v.Summary.Mean, v.Summary.CI.Lo, v.Summary.CI.Hi, verdict)
	}
	return errors.Join(errs...)
}

// renderPerturbed checks every claim on each twin of its scenario and
// prints one row per (claim, twin), labelled with the twin's knob
// ("[vas+10%]"), then lists the cells that fail. A failing cell is a
// finding about the calibration's neighbourhood, not an error: only runs
// that return one fail the command.
func renderPerturbed(w io.Writer, claims []scenario.Claim, twins []func(scenario.Scenario) scenario.Scenario, seeds []int64) error {
	var cells []scenario.Claim
	for _, c := range claims {
		for _, twin := range twins {
			cell := c
			cell.Scenario = twin(c.Scenario)
			cell.Text += " [" + strings.TrimPrefix(cell.Scenario.Name, c.Scenario.Name+"~") + "]"
			cells = append(cells, cell)
		}
	}
	vs := scenario.RunClaims(cells, seeds)
	if fails := renderClaims(w, vs); fails != nil {
		fmt.Fprintf(w, "\nCells that fail:\n\n- %s\n", strings.ReplaceAll(fails.Error(), "\n", "\n- "))
	}
	var errs []error
	for _, v := range vs {
		errs = append(errs, v.Report.Err)
	}
	return errors.Join(errs...)
}

// renderPair prints the throttled and baseline series side by side.
func renderPair(w io.Writer, pair []scenario.SweepResult) error {
	for _, sr := range pair {
		if sr.Err != nil {
			return fmt.Errorf("%s: %w", sr.Scenario.Name, sr.Err)
		}
	}
	th, ba := pair[0].Result, pair[1].Result
	fmt.Fprintln(w, "  time      throttled  non-throttled")
	for i := range th.Series {
		b := int64(0)
		if i < len(ba.Series) {
			b = ba.Series[i].V
		}
		fmt.Fprintf(w, "  %6.0fs  %9d  %13d\n", th.Series[i].T.Seconds(), th.Series[i].V, b)
	}
	ratio, summary := harness.Compare(th, ba)
	fmt.Fprintf(w, "  ratio: %.2fx — %s\n\n", ratio, summary)
	renderNodes(w, th)
	return nil
}

// renderNodes prints the per-node breakdown of a cluster run (no output
// for single-server results): the routing distribution, the router's
// health actions (rerouted / failover / all-excluded counters), and —
// when breakers are armed — each node's final breaker state, trip
// count, and state-transition trail in virtual-time order.
func renderNodes(w io.Writer, r *harness.Result) {
	if len(r.NodeResults) == 0 {
		return
	}
	breakers := r.NodeResults[0].BreakerState != ""
	fmt.Fprintf(w, "  per-node breakdown (%s router, rerouted=%d", r.Options.Router, r.Rerouted)
	if breakers || r.Options.FailoverHops > 0 {
		fmt.Fprintf(w, " resubmitted=%d all-excluded=%d", r.Resubmitted, r.RouterAllExcluded)
	}
	fmt.Fprintln(w, "):")
	fmt.Fprint(w, "  node     routed  completed  errors  plan-hit  crashes")
	if breakers {
		fmt.Fprint(w, "    breaker  trips")
	}
	fmt.Fprintln(w)
	for _, nr := range r.NodeResults {
		fmt.Fprintf(w, "  %4d  %9d  %9d  %6d  %8.4f  %7d",
			nr.Node, nr.Routed, nr.Completed, nr.Errors, nr.PlanCacheHitRate, nr.Crashes)
		if breakers {
			fmt.Fprintf(w, "  %9s  %5d", nr.BreakerState, nr.BreakerTrips)
		}
		fmt.Fprintln(w)
	}
	for _, nr := range r.NodeResults {
		if len(nr.BreakerTransitions) == 0 {
			continue
		}
		fmt.Fprintf(w, "  node %d breaker transitions:\n", nr.Node)
		for _, tr := range nr.BreakerTransitions {
			fmt.Fprintf(w, "    %s\n", tr)
		}
	}
	fmt.Fprintln(w)
}

// renderRun prints one side of a -scenario pair: its settings and their
// Key, the completion series, the error taxonomy, compile-memory and
// gateway counters, and the engine report.
func renderRun(w io.Writer, s scenario.Scenario, res *harness.Result) {
	fmt.Fprintf(w, "scenario=%s workload=%s clients=%d throttle=%v window=[%v,%v)\n",
		s.Name, s.Workload, s.Clients, s.Throttled, s.Warmup, s.Horizon)
	key, _ := s.Key()
	fmt.Fprintf(w, "key: %s\n", cmp.Or(key, "none (an Engine or Load closure is set)"))
	fmt.Fprintln(w, "completions per slice:")
	for _, p := range res.Series {
		fmt.Fprintf(w, "  t=%6.0fs  %d\n", p.T.Seconds(), p.V)
	}
	fmt.Fprintf(w, "total completed: %d  (%.1f/hour)\n", res.Completed, res.Throughput())
	fmt.Fprintf(w, "errors: %v (in-window %d)\n", res.ErrorsByKind, res.Errors)
	fmt.Fprintf(w, "compile memory: mean %d MiB, max %d MiB; pool hit-rate %.1f%%\n",
		res.CompileMemMean/mem.MiB, res.CompileMemMax/mem.MiB, res.BufferPoolHitRate*100)
	fmt.Fprintf(w, "gateway timeouts: %d; best-effort plans: %d\n", res.GatewayTimeouts, res.BestEffortPlans)
	fmt.Fprintln(w)
	fmt.Fprintln(w, res.Report)
}

// figure1 prints the monitor ladder (thresholds ascending, concurrency
// descending) — the content of the paper's Figure 1.
func figure1(w io.Writer) {
	fmt.Fprintln(w, "== Figure 1: memory monitors ==")
	chain, err := gateway.NewChain(gateway.DefaultConfig(8, 4*mem.GiB))
	if err != nil {
		panic(err)
	}
	fmt.Fprint(w, chain.String())
	fmt.Fprintln(w)
}

// figure2 reproduces the throttling example trace with the governance
// primitives directly: staggered compilations whose memory curves
// flatten while blocked at monitors. (The registry's "figure2" scenario
// runs the same conditions through the full engine.)
func figure2(w io.Writer) {
	fmt.Fprintln(w, "== Figure 2: compilation throttling example ==")
	sched := vtime.NewScheduler()
	budget := mem.NewBudget(1 * mem.GiB)
	gov, err := core.NewGovernor(core.DefaultOptions(2, budget.Total()), budget.NewTracker("compile"))
	if err != nil {
		panic(err)
	}
	type samp struct {
		t time.Duration
		v [3]int64
	}
	var series []samp
	cur := [3]int64{}
	peaks := []int64{420 * mem.MiB, 300 * mem.MiB, 280 * mem.MiB}
	rates := []time.Duration{time.Second, 2 * time.Second, 2 * time.Second}
	for i := range peaks {
		sched.Go(fmt.Sprintf("Q%d", i+1), func(t *vtime.Task) {
			t.Sleep(time.Duration(i) * 5 * time.Second)
			c := gov.Begin(t, fmt.Sprintf("Q%d", i+1))
			for c.Used() < peaks[i] {
				if err := c.Alloc(10 * mem.MiB); err != nil {
					break
				}
				cur[i] = c.Used()
				t.Sleep(rates[i])
			}
			c.Finish()
			cur[i] = 0
		})
	}
	sched.Go("sampler", func(t *vtime.Task) {
		for t.Now() < 4*time.Minute {
			series = append(series, samp{t.Now(), cur})
			t.Sleep(5 * time.Second)
		}
	})
	if err := sched.Run(); err != nil {
		panic(err)
	}
	fmt.Fprintln(w, "  time      Q1(MiB)  Q2(MiB)  Q3(MiB)")
	for _, s := range series {
		fmt.Fprintf(w, "  %7v  %7d  %7d  %7d\n", s.t, s.v[0]/mem.MiB, s.v[1]/mem.MiB, s.v[2]/mem.MiB)
	}
	fmt.Fprintln(w)
}
