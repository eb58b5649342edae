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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"compilegate/internal/profiling"
	"compilegate/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "compressed measurement window")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = all cores)")
	nseeds := fs.Int("seeds", 1, "replication seeds per cell (seeds {1..N})")
	csvPath := fs.String("csv", "", "write the full grid as CSV to this path")
	mdPath := fs.String("md", "", "write per-knob-set markdown tables to this path")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this path on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nseeds < 1 {
		return errors.New("-seeds must be >= 1")
	}

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stop()

	cal := scenario.DefaultCalibration()
	cal.Workers = *workers
	if *quick {
		cal.Horizon, cal.Warmup = 90*time.Minute, 15*time.Minute
	}
	cal.Seeds = scenario.Seeds(*nseeds)
	cells := len(cal.Knobs) * len(cal.Clients) * len(cal.Seeds)
	fmt.Fprintf(w, "calibrating: %d knob sets x %d client counts x %d seeds = %d cells (%d simulations), window [%v, %v)\n",
		len(cal.Knobs), len(cal.Clients), len(cal.Seeds), cells, 2*cells, cal.Warmup, cal.Horizon)

	rep := cal.Run()

	fmt.Fprint(w, rep.Markdown())
	fmt.Fprintln(w, "ranking (best first):")
	for i, name := range rep.Ranking() {
		fmt.Fprintf(w, "  %d. %-12s score %.3f\n", i+1, name, rep.Score(name))
	}
	best, score := rep.Best()
	fmt.Fprintf(w, "\nselected: %s (score %.3f)\n", best.Name, score)
	fmt.Fprintf(w, "  cache-reserve=%.2f slope=%.1f wait=%v grant-frac=%.2f\n",
		best.CacheReserveFrac, best.SlowdownSlope, best.CompileTaskWait, best.ExecGrantLimitFrac)
	fmt.Fprintf(w, "  memo-scale=%.2f stages=%.1f/%.1f vas=%dMiB exhaustion=%.2f\n",
		best.MemoBytesScale, best.StageCostingScale, best.StageCodegenScale,
		best.VASBytes>>20, best.BrokerExhaustionFrac)

	// Write the evaluated cells as CSV and/or markdown.
	for _, out := range []struct{ path, body string }{{*csvPath, rep.CSV()}, {*mdPath, rep.Markdown()}} {
		if out.path == "" {
			continue
		}
		if err := os.WriteFile(out.path, []byte(out.body), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", out.path)
	}
	return nil
}
