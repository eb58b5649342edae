package harness

import (
	"fmt"
	"testing"
	"time"

	"compilegate/internal/engine"
	"compilegate/internal/mem"
	"compilegate/internal/optimizer"
)

// TestCalibrateGrid sweeps a few engine knobs and prints the
// throttled-vs-baseline split for each — a quick harness-level probe.
// The real calibration subsystem is internal/scenario's Calibration +
// cmd/calibrate, which sweeps the pressure-model grid with fidelity
// scoring against Figures 3-5; this test predates it and stays as a
// cheap diagnostic of the default (uncalibrated) machine.
func TestCalibrateGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration grid skipped in -short")
	}
	type knob struct {
		name      string
		taskWait  time.Duration
		effort    float64
		maxTasks  int
		vasMiB    int64
		grantFrac float64
		clients   int
		ramMiB    int64
	}
	grid := []knob{
		{"T3g-s1", 45 * time.Millisecond, 1.5, 6000, 0, 0.45, 30, 3072},
		{"T3g-s2", 45 * time.Millisecond, 1.5, 6000, 0, 0.45, 30, 3072},
		{"T2.5g", 45 * time.Millisecond, 1.5, 6000, 0, 0.45, 30, 2560},
		{"T2g", 45 * time.Millisecond, 1.5, 6000, 0, 0.45, 30, 2048},
	}
	for gi, k := range grid {
		ecfg := engine.DefaultConfig()
		ecfg.CompileTaskWait = k.taskWait
		ecfg.VASBytes = k.vasMiB * mem.MiB
		if k.vasMiB == 0 {
			ecfg.VASBytes = 0
		}
		if k.ramMiB > 0 {
			ecfg.MemoryBytes = k.ramMiB * mem.MiB
		}
		ecfg.ExecGrantLimitFrac = k.grantFrac
		ocfg := optimizer.DefaultConfig()
		ocfg.EffortPerCost = k.effort
		ocfg.MaxTasks = k.maxTasks
		ecfg.Optimizer = ocfg

		run := func(throttled bool) *Result {
			o := defaults(k.clients).WithWindow(3*time.Hour, 45*time.Minute)
			o.Throttled = throttled
			o.Seed = int64(gi%3) + 1
			o.Engine = func(c *engine.Config) { *c = ecfg }
			o = o.WithSlice(15 * time.Minute)
			r, err := o.Run()
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		th, ba := run(true), run(false)
		ratio := 0.0
		if ba.Completed > 0 {
			ratio = float64(th.Completed)/float64(ba.Completed) - 1
		}
		fmt.Printf("%s vas=%d grant=%.2f cl=%d | th=%d (err %v, conc %.0f, cmem %dMB, exec %dMB) ba=%d (err %v, conc %.0f, cmem %dMB, exec %dMB) => %+.0f%%\n",
			k.name, k.vasMiB, k.grantFrac, k.clients,
			th.Completed, th.ErrorsByKind, th.AvgActiveCompiles, th.AvgCompileBytes>>20, th.AvgExecBytes>>20,
			ba.Completed, ba.ErrorsByKind, ba.AvgActiveCompiles, ba.AvgCompileBytes>>20, ba.AvgExecBytes>>20,
			ratio*100)
	}
}
