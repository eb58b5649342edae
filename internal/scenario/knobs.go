package scenario

import (
	"time"

	"compilegate/internal/engine"
	"compilegate/internal/mem"
)

// Calibration writes a calibration's settings into a server config (one
// that started from engine.DefaultConfig).
type Calibration func(*engine.Config)

// Apply writes the calibration's settings into c.
func (k Calibration) Apply(c *engine.Config) { k(c) }

// CalibratedKnobs returns the calibration a grid over the twelve knobs
// selected for the paper's §5 throughput experiments (Figures 3-5). It
// writes the six settings the grid moved off engine.DefaultConfig(); the
// other six — paging slope 14 and cap 24, commit 1.5, steal 0.5, costing
// 4 and codegen 5 — are the defaults. Compile waits stay at the default's
// scale, so §5.2's 10-90 s compile profile holds at the figure operating
// point; the collapse comes from compile-memory stock instead: the staged
// ramps grow each compilation to about ten times its memo inside a
// bounded 32-bit VAS, which thirty unthrottled clients wire past the
// paging threshold. The gateway ladder and the §4.1 exhaustion signal
// (Broker.ExhaustionFreeFrac) keep the throttled server inside it. See
// EXPERIMENTS.md, "Calibration methodology".
func CalibratedKnobs() Calibration {
	return func(c *engine.Config) {
		c.Pressure.CacheReserveFrac = 0.50 // paging starts at half of RAM wired
		c.CompileTaskWait = 40 * time.Millisecond
		c.ExecGrantLimitFrac = 0.35 // the wired base the compile pileup lands on
		m := &c.Optimizer.Memo      // heavier charges, the same compile times
		m.BytesPerGroup, m.BytesPerExpr = int64(1.10*float64(m.BytesPerGroup)), int64(1.10*float64(m.BytesPerExpr))
		c.VASBytes = 2816 * mem.MiB // the 32-bit testbed, booted /3GB
		c.Broker.ExhaustionFreeFrac = 0.15
	}
}

// knobs is the calibration's twelve settings — the six CalibratedKnobs
// writes and the six it leaves at their defaults — each scaled by f from
// its current value.
var knobs = []struct {
	name  string
	scale func(c *engine.Config, f float64)
}{
	{"reserve", func(c *engine.Config, f float64) { c.Pressure.CacheReserveFrac *= f }},
	{"slope", func(c *engine.Config, f float64) { c.Pressure.SlowdownSlope *= f }},
	{"maxslow", func(c *engine.Config, f float64) { c.Pressure.MaxSlowdown *= f }},
	{"commit", func(c *engine.Config, f float64) { c.Pressure.CommitFrac *= f }},
	{"steal", func(c *engine.Config, f float64) { c.Pressure.StealFrac *= f }},
	{"wait", func(c *engine.Config, f float64) { c.CompileTaskWait = time.Duration(f * float64(c.CompileTaskWait)) }},
	{"grant", func(c *engine.Config, f float64) { c.ExecGrantLimitFrac *= f }},
	{"memo", func(c *engine.Config, f float64) {
		m := &c.Optimizer.Memo
		m.BytesPerGroup, m.BytesPerExpr = int64(f*float64(m.BytesPerGroup)), int64(f*float64(m.BytesPerExpr))
	}},
	{"costing", func(c *engine.Config, f float64) { c.CompileStages.CostingScale *= f }},
	{"codegen", func(c *engine.Config, f float64) { c.CompileStages.CodegenScale *= f }},
	{"vas", func(c *engine.Config, f float64) { c.VASBytes = int64(f * float64(c.VASBytes)) }},
	{"exhaust", func(c *engine.Config, f float64) { c.Broker.ExhaustionFreeFrac *= f }},
}

// KnobTwins returns the calibration's perturbations as twins: for each
// knob, one that moves its engine setting up 10% and one down, from the
// value the scenario runs with (its ServerConfig; a setting at zero, like
// the uncalibrated machine's unbounded VAS, stays there). Each twin
// renames the scenario after the knob ("figure3~vas+10%"), so an error
// says which knob it ran under.
func KnobTwins() []func(Scenario) Scenario {
	var out []func(Scenario) Scenario
	for _, k := range knobs {
		for _, d := range []struct {
			label string
			f     float64
		}{{"+10%", 1.1}, {"-10%", 0.9}} {
			out = append(out, func(s Scenario) Scenario {
				s.Name += "~" + k.name + d.label
				s.Server, s.Engine = s.ServerConfig(), nil
				k.scale(&s.Server, d.f)
				return s
			})
		}
	}
	return out
}
