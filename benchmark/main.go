// Command benchmark is the repository's performance instrument: four
// pinned workloads, each measured from outside the simulator by timing
// whole runs through scenario.Scenario.Run, by timing calls into single
// layers' public functions on a fixed corpus, and by attributing a CPU
// profile to packages. It is serial on purpose (one simulation at a time,
// one process per workload, no load-generator threads) so it measures the
// program and not a shared host's scheduler. See README.md in this
// directory for the workloads, the metrics, and which clock each uses.
//
// One workload, the shape the benchmark driver calls (BENCHMARK.json):
//
//	go run ./benchmark -workload dss-governed -seed 1 -seconds 20 -trace 0
//
// prints the metrics by name and, as its last line, one JSON object with
// the keys correct, attempted, failed and metrics. -trace 0 reports the
// end-to-end metrics with tracing and profiling off; -trace 1 reports the
// per-layer metrics from a separate traced run and writes the spans to
// benchmark/out/trace-<workload>.json.
//
// The whole set, both modes, one child process per run:
//
//	go run ./benchmark [-seed 1] [-seconds 20] [-o benchmark/out/results.json]
//
// Comparing two result files, and deriving bounds:
//
//	go run ./benchmark -compare a.json b.json [-exact]
//	go run ./benchmark -calibrate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// options are the command-line settings shared by every mode.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	quick    bool
	// outDir receives the trace files: benchmark/out, a temporary
	// directory in tests.
	outDir string
	// probe times the set-up in fresh processes; off in tests, which
	// cannot re-execute themselves as the benchmark.
	probe bool
}

// result is the last line a single-workload run prints: exactly what the
// benchmark driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// detail rides on the line before the result for the suite and -compare:
// what the exact-repeat check needs beyond the metrics.
type detail struct {
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	Trace        int       `json:"trace"`
	Seeds        int       `json:"seeds"`
	Rounds       int       `json:"rounds"`
	Digests      []string  `json:"digests"`
	PerSeedQPVH  []float64 `json:"per_seed_queries_per_vhour,omitempty"`
	SetupSamples []float64 `json:"setup_samples_s,omitempty"`
	Errors       []string  `json:"errors,omitempty"`
}

const detailPrefix = "#detail "

func main() {
	var (
		o          options
		compare    = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 when the second is worse beyond a bound")
		exact      = flag.Bool("exact", false, "with -compare: the files are two runs of one commit at one seed, so every simulated metric and digest must be identical")
		calibrate  = flag.Bool("calibrate", false, "run the whole set three times, print each metric's spread and the derived per-workload sim bounds")
		setupProbe = flag.Bool("setup-probe", false, "internal: set up the workload (snapshot build and warm-up run) and exit")
		outFile    = flag.String("o", "benchmark/out/results.json", "whole-set mode: the result file to write")
	)
	flag.StringVar(&o.workload, "workload", "", "run one workload: "+workloadNames()+" (default: the whole set)")
	flag.Int64Var(&o.seed, "seed", 1, "base seed; a run simulates seeds seed..seed+S-1 and warms up on seed-1")
	flag.IntVar(&o.seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	flag.BoolVar(&o.quick, "quick", false, "smoke size: one seed, two rounds, compressed windows, guards off")
	flag.Parse()
	o.probe, o.outDir = true, "benchmark/out"

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files"))
		}
		var ok bool
		if ok, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *exact); err == nil && !ok {
			os.Exit(1)
		}
	case *calibrate:
		err = runCalibrate(o)
	case *setupProbe:
		var w Workload
		if w, err = resolve(o); err == nil {
			err = warmUp(w, o.seed)
		}
	case o.workload != "":
		var ok bool
		if ok, err = runOne(o); err == nil && !ok {
			os.Exit(1)
		}
	default:
		var ok bool
		if ok, err = runSuite(o, *outFile); err == nil && !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// resolve finds and validates the workload an invocation names.
func resolve(o options) (Workload, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return Workload{}, fmt.Errorf("unknown workload %q (want one of: %s)", o.workload, workloadNames())
	}
	if o.quick {
		w = w.quick()
	}
	if o.trace != 0 && o.trace != 1 {
		return Workload{}, fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	if o.seconds < 1 {
		return Workload{}, fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	}
	return w, w.validate()
}

// measure runs one workload in the mode o selects and returns what the
// run prints. A failed operation does not stop the run: it is counted and
// reported, and the result says correct=false.
func measure(w Workload, o options) (result, detail, string, error) {
	budget := time.Duration(o.seconds) * time.Second
	d := detail{Workload: w.Name, Seed: o.seed, Trace: o.trace, Seeds: w.Seeds}
	if o.trace == 1 {
		tr, err := runTraced(w, o.seed, budget, o.quick)
		if err != nil {
			return result{}, d, "", err
		}
		if err := writeTrace(o.outDir, tr.Doc); err != nil {
			return result{}, d, "", fmt.Errorf("write trace: %w", err)
		}
		d.Rounds, d.Errors, d.Digests = 2, tr.Errors, tr.Digests
		return result{Correct: tr.Failed == 0, Attempted: tr.Attempted, Failed: tr.Failed,
			Metrics: emit(perLayer, tr.Values)}, d, tr.Table, nil
	}
	tm, err := runTimed(w, o.seed, budget, o.quick, o.probe)
	if err != nil {
		return result{}, d, "", err
	}
	d.Rounds, d.Errors, d.SetupSamples = len(tm.Rounds), tm.Errors, tm.SetupSamples
	window := (w.Scenario.Horizon - w.Scenario.Warmup).Hours()
	for _, rec := range tm.Rounds[0] {
		d.Digests = append(d.Digests, rec.Digest)
		if rec.Result != nil {
			d.PerSeedQPVH = append(d.PerSeedQPVH, float64(rec.Result.Completed)/window)
		}
	}
	return result{Correct: tm.Failed == 0, Attempted: tm.Attempted, Failed: tm.Failed,
		Metrics: emit(endToEnd, tm.endToEndValues(w))}, d, "", nil
}

// runOne is the single-workload mode: the metric lines, the "where the
// time goes" table on a traced run, the detail line, and the result as
// the last line of standard output.
func runOne(o options) (bool, error) {
	w, err := resolve(o)
	if err != nil {
		return false, err
	}
	res, d, table, err := measure(w, o)
	if err != nil {
		return false, err
	}
	fmt.Printf("workload %s seed %d trace %d: %d seeds x %d rounds, %d operations, %d failed\n",
		w.Name, o.seed, o.trace, d.Seeds, d.Rounds, res.Attempted, res.Failed)
	for _, e := range d.Errors {
		fmt.Println("  FAILED", e)
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	printMetrics(defs, res.Metrics)
	if table != "" {
		fmt.Print(table)
	}
	if err := printJSONLine(detailPrefix, d); err != nil {
		return false, err
	}
	return res.Correct, printJSONLine("", res)
}

func printMetrics(defs []metricDef, ms map[string]value) {
	for _, d := range defs {
		fmt.Printf("  %-32s %16.6g %s\n", d.Name, ms[d.Name].Value, d.Unit)
	}
}

func printJSONLine(prefix string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s%s\n", prefix, data)
	return err
}
