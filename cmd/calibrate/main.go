// calibrate runs the memory-pressure calibration sweep: a grid of
// pressure-model knob sets crossed with client counts, every cell a
// throttled/baseline pair, all simulations executing concurrently
// through the sweep runner. It scores each knob set against the paper's
// Figures 3-5 throughput separations and reports the best one — the
// knob set scenario.CalibratedKnobs ships (carried by every
// SALES-derived scenario) was selected this way, layered over the
// engine defaults at resolve time (see EXPERIMENTS.md, "Calibration
// methodology").
//
// Usage:
//
//	calibrate [-quick] [-workers N] [-seeds N] [-csv out.csv] [-md out.md]
//	          [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// -quick compresses the measurement window (90 min instead of 3 h) so
// the whole grid finishes in well under a minute; use the full window
// before trusting a new calibration. The profile flags capture the grid
// under pprof (see DESIGN.md, "Profiling a run"). -seeds N replicates
// every cell over seeds {1..N} so the score reflects a population, not
// one draw.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"compilegate"
	"compilegate/internal/profiling"
)

func main() {
	quick := flag.Bool("quick", false, "compressed measurement window")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = all cores)")
	nseeds := flag.Int("seeds", 1, "replication seeds per cell (seeds {1..N})")
	csvPath := flag.String("csv", "", "write the full grid as CSV to this path")
	mdPath := flag.String("md", "", "write per-knob-set markdown tables to this path")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this path on exit")
	flag.Parse()

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
	defer stop()

	if *nseeds < 1 {
		fmt.Fprintln(os.Stderr, "calibrate: -seeds must be >= 1")
		os.Exit(1)
	}

	cal := compilegate.DefaultCalibration()
	cal.Workers = *workers
	if *quick {
		cal.Horizon, cal.Warmup = 90*time.Minute, 15*time.Minute
	}
	seeds := compilegate.ReplicationSeeds(*nseeds)
	cal.Seeds = seeds
	cells := len(cal.Knobs) * len(cal.Clients) * len(seeds)
	fmt.Printf("calibrating: %d knob sets x %d client counts x %d seeds = %d cells (%d simulations), window [%v, %v)\n",
		len(cal.Knobs), len(cal.Clients), len(seeds), cells, 2*cells, cal.Warmup, cal.Horizon)

	rep := cal.Run()

	fmt.Print(rep.Markdown())
	fmt.Println("ranking (best first):")
	for i, name := range rep.Ranking() {
		fmt.Printf("  %d. %-12s score %.3f\n", i+1, name, rep.Score(name))
	}
	best, score := rep.Best()
	fmt.Printf("\nselected: %s (score %.3f)\n", best.Name, score)
	fmt.Printf("  cache-reserve=%.2f slope=%.1f wait=%v grant-frac=%.2f\n",
		best.CacheReserveFrac, best.SlowdownSlope, best.CompileTaskWait, best.ExecGrantLimitFrac)
	fmt.Printf("  memo-scale=%.2f stages=%.1f/%.1f vas=%dMiB exhaustion=%.2f\n",
		best.MemoBytesScale, best.StageCostingScale, best.StageCodegenScale,
		best.VASBytes>>20, best.BrokerExhaustionFrac)
	writeReports(*csvPath, *mdPath, rep)
}

// writeReports writes the evaluated cells as CSV and/or markdown.
func writeReports(csvPath, mdPath string, rep *compilegate.CalibrationReport) {
	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(rep.CSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "calibrate:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", csvPath)
	}
	if mdPath != "" {
		if err := os.WriteFile(mdPath, []byte(rep.Markdown()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "calibrate:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", mdPath)
	}
}
