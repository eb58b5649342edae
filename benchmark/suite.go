package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"compilegate/internal/scenario"
)

// hostBlock says where a result file's host_* numbers were taken; they
// compare only between files with the same block.
type hostBlock struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

// workloadResult is one workload's share of a result file.
type workloadResult struct {
	Name         string           `json:"name"`
	EndToEnd     map[string]value `json:"end_to_end"`
	PerLayer     map[string]value `json:"per_layer"`
	Attempted    int              `json:"attempted"`
	Failed       int              `json:"failed"`
	Seeds        int              `json:"seeds"`
	Rounds       int              `json:"rounds"`
	Digests      []string         `json:"digests"`
	TraceDigests []string         `json:"trace_digests"`
	PerSeedQPVH  []float64        `json:"per_seed_queries_per_vhour"`
	SetupSamples []float64        `json:"setup_samples_s"`
}

// suiteResult is the result file the whole-set mode writes and -compare
// reads.
type suiteResult struct {
	Host      hostBlock        `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
	// Claim is always null: the benchmark records numbers, a change that
	// claims a gain states it elsewhere, against these.
	Claim *string `json:"claim"`
}

func currentHost() hostBlock {
	h := hostBlock{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// runChild runs one workload in one mode as a fresh process of this
// binary (one process per workload keeps one workload's heap and snapshot
// cache out of the next one's numbers), passes its report through, and
// parses the detail and result lines.
func runChild(o options, w Workload, trace int) (result, detail, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, detail{}, err
	}
	args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace)}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(stdout.Bytes())
		return result{}, detail{}, fmt.Errorf("%s trace %d: %w", w.Name, trace, err)
	}
	return parseReport(os.Stdout, &stdout)
}

// parseReport copies a child's human-readable lines to echo and decodes
// its detail line and its last line, the result.
func parseReport(echo io.Writer, r io.Reader) (result, detail, error) {
	var res result
	var d detail
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, detailPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &d); err != nil {
				return res, d, fmt.Errorf("detail line: %w", err)
			}
			continue
		}
		if last != "" {
			fmt.Fprintln(echo, last)
		}
		last = line
	}
	if err := sc.Err(); err != nil {
		return res, d, err
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, d, fmt.Errorf("result line: %w", err)
	}
	return res, d, nil
}

// collect runs every workload in both modes and gathers one result set.
func collect(o options) (*suiteResult, error) {
	sr := &suiteResult{Host: currentHost(), Seed: o.seed, Seconds: o.seconds}
	for _, w := range workloads() {
		timed, td, err := runChild(o, w, 0)
		if err != nil {
			return nil, err
		}
		traced, xd, err := runChild(o, w, 1)
		if err != nil {
			return nil, err
		}
		sr.Workloads = append(sr.Workloads, workloadResult{
			Name: w.Name, EndToEnd: timed.Metrics, PerLayer: traced.Metrics,
			Attempted: timed.Attempted + traced.Attempted, Failed: timed.Failed + traced.Failed,
			Seeds: td.Seeds, Rounds: td.Rounds, Digests: td.Digests, TraceDigests: xd.Digests,
			PerSeedQPVH: td.PerSeedQPVH, SetupSamples: td.SetupSamples,
		})
	}
	return sr, nil
}

// runSuite is the whole-set mode: every workload, both modes, then the
// metric tables and the result file. It reports whether every operation
// succeeded and the traced digests equal the untraced ones.
func runSuite(o options, file string) (bool, error) {
	sr, err := collect(o)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Println()
	fmt.Printf("host: %d cpus, GOMAXPROCS %d, %s, %s, commit %s\n", sr.Host.NumCPU, sr.Host.GOMAXPROCS, sr.Host.Go, sr.Host.CPU, sr.Host.Commit)
	printSuiteTable("end-to-end (tracing off)", endToEnd, sr, func(w workloadResult) map[string]value { return w.EndToEnd })
	printSuiteTable("per-layer (traced run)", perLayer, sr, func(w workloadResult) map[string]value { return w.PerLayer })
	for _, w := range sr.Workloads {
		if w.Failed != 0 {
			ok = false
			fmt.Printf("FAILED %s: %d of %d operations failed\n", w.Name, w.Failed, w.Attempted)
		}
		if !slices.Equal(w.Digests, w.TraceDigests) {
			ok = false
			fmt.Printf("FAILED %s: the traced run's digests differ from the untraced run's\n", w.Name)
		}
	}
	data, err := json.MarshalIndent(sr, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return false, err
	}
	if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("wrote %s\n", file)
	return ok, nil
}

func printSuiteTable(title string, defs []metricDef, sr *suiteResult, pick func(workloadResult) map[string]value) {
	fmt.Printf("\n%s\n%-32s %-14s", title, "metric", "unit")
	for _, w := range sr.Workloads {
		fmt.Printf(" %14s", w.Name)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-32s %-14s", d.Name, d.Unit)
		for _, w := range sr.Workloads {
			fmt.Printf(" %14.6g", pick(w)[d.Name].Value)
		}
		fmt.Println()
	}
}

func loadSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sr suiteResult
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sr, nil
}

// boundFor is the bound -compare holds a metric to on a workload: the
// per-workload sim bound for simulated metrics, the table's otherwise.
func boundFor(d metricDef, w Workload) float64 {
	if d.Source == srcSim && w.SimBound > 0 {
		return w.SimBound
	}
	return d.Bound
}

// worsening is how far b is worse than a as a share of a, negative when
// b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if d.Better == higher {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

func compareFiles(out io.Writer, pathA, pathB string, exact bool) (bool, error) {
	a, err := loadSuite(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSuite(pathB)
	if err != nil {
		return false, err
	}
	return compareSuites(out, a, b, exact), nil
}

// compareSuites prints, per workload and end-to-end metric, both values,
// how far the second is worse than the first and the bound, and reports
// whether the second is acceptable: no metric worse beyond its bound, no
// failed operation on either side and, when exact, every simulated metric
// and digest identical.
func compareSuites(out io.Writer, a, b *suiteResult, exact bool) bool {
	ok := true
	if a.Host != b.Host {
		fmt.Fprintf(out, "note: host blocks differ (%+v vs %+v): host_* and setup_s compare only on one host\n", a.Host, b.Host)
	}
	if exact && a.Seed != b.Seed {
		fmt.Fprintf(out, "FAIL -exact needs one seed, have %d and %d\n", a.Seed, b.Seed)
		ok = false
	}
	bByName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		bByName[w.Name] = w
	}
	fmt.Fprintf(out, "%-14s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "worse by", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, found := bByName[wa.Name]
		if !found {
			fmt.Fprintf(out, "FAIL %s: missing from the second file\n", wa.Name)
			ok = false
			continue
		}
		w, _ := workloadByName(wa.Name)
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			worse, bound := worsening(d, va, vb), boundFor(d, w)
			verdict := "ok"
			switch {
			case exact && d.exact() && va != vb:
				verdict, ok = "FAIL not identical", false
			case worse > bound:
				verdict, ok = "FAIL worse beyond bound", false
			case worse < -bound:
				verdict = "better beyond bound"
			}
			fmt.Fprintf(out, "%-14s %-24s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", wa.Name, d.Name, va, vb, 100*worse, 100*bound, verdict)
		}
		if wa.Failed != 0 || wb.Failed != 0 {
			fmt.Fprintf(out, "FAIL %s: failed operations: %d of %d and %d of %d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			ok = false
		}
		if !exact {
			continue
		}
		for _, d := range perLayer {
			if va, vb := wa.PerLayer[d.Name].Value, wb.PerLayer[d.Name].Value; d.exact() && va != vb {
				fmt.Fprintf(out, "FAIL %s %s: %v vs %v, a counter must repeat exactly\n", wa.Name, d.Name, va, vb)
				ok = false
			}
		}
		if !slices.Equal(wa.Digests, wb.Digests) || !slices.Equal(wa.TraceDigests, wb.TraceDigests) {
			fmt.Fprintf(out, "FAIL %s: result digests differ between the files\n", wa.Name)
			ok = false
		}
	}
	if ok {
		fmt.Fprintln(out, "agree")
	}
	return ok
}

// runCalibrate runs the whole set three times and prints, per workload
// and end-to-end metric, the spread between the three sets against the
// bound, and the sim bound each workload's seed-to-seed variation
// supports: max(5%, 3 standard errors of the seed mean).
func runCalibrate(o options) error {
	const sets = 3
	var all []*suiteResult
	for i := 0; i < sets; i++ {
		fmt.Printf("calibration set %d of %d\n", i+1, sets)
		sr, err := collect(o)
		if err != nil {
			return err
		}
		all = append(all, sr)
	}
	fmt.Printf("\n%-14s %-24s %14s %9s %7s  %s\n", "workload", "metric", "median", "spread", "bound", "verdict")
	for wi, w := range workloads() {
		for _, d := range endToEnd {
			var xs []float64
			for _, sr := range all {
				xs = append(xs, sr.Workloads[wi].EndToEnd[d.Name].Value)
			}
			med := scenario.Median(xs)
			spread := ratio(scenario.Quantile(xs, 1)-scenario.Quantile(xs, 0), math.Abs(med))
			bound := boundFor(d, w)
			verdict := "ok"
			switch {
			case d.exact() && spread != 0:
				verdict = "NOT EXACT: a simulated metric moved between sets"
			case spread > bound:
				verdict = "too noisy: raise MinRounds or -seconds, do not widen the bound"
			}
			fmt.Fprintf(os.Stdout, "%-14s %-24s %14.6g %8.2f%% %6.0f%%  %s\n", w.Name, d.Name, med, 100*spread, 100*bound, verdict)
		}
		qs := all[0].Workloads[wi].PerSeedQPVH
		mean := scenario.Mean(qs)
		var ss float64
		for _, q := range qs {
			ss += (q - mean) * (q - mean)
		}
		// Standard error of the seed mean as a share of it.
		se := ratio(math.Sqrt(ss/float64(max(len(qs)-1, 1))/float64(len(qs))), mean)
		fmt.Printf("%-14s sim bound from %d seeds: 3 s.e. = %.1f%% -> SimBound %.2f (have %.2f); rounds run: %d\n",
			w.Name, len(qs), 300*se, math.Max(0.05, 3*se), w.SimBound, all[0].Workloads[wi].Rounds)
	}
	return nil
}
