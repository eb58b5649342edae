package scenario

import (
	"time"

	"compilegate/internal/engine"
	"compilegate/internal/mem"
)

// PressureKnobs is a calibration of the pressure-model and
// compile-profile settings that shape the thrash regime of Figures 3-5.
// The zero value of a field means "keep the engine default".
type PressureKnobs struct {
	// CacheReserveFrac sets where paging starts: wired memory beyond
	// (1-CacheReserveFrac)*RAM pays the thrash penalty.
	CacheReserveFrac float64
	// SlowdownSlope is the paging slowdown per unit of overcommit.
	SlowdownSlope float64
	// MaxSlowdown caps the slowdown factor.
	MaxSlowdown float64
	// CommitFrac sizes commit (physical+swap) as a multiple of RAM.
	CommitFrac float64
	// StealFrac is the per-tick pager steal fraction.
	StealFrac float64

	// CompileTaskWait is the non-CPU time per optimizer task; it sets how
	// long compilations hold their memory, and with it the steady-state
	// compile concurrency the monitor ladder sees.
	CompileTaskWait time.Duration
	// ExecGrantLimitFrac caps execution-grant memory as a fraction of
	// RAM; it sets the wired-memory base the compile pileup lands on.
	ExecGrantLimitFrac float64
	// MemoBytesScale multiplies the memo's per-structure memory charge:
	// heavier compilations reach the monitor thresholds sooner without
	// taking longer, preserving the §5.2 10-90 s compile profile.
	MemoBytesScale float64
	// StageCostingScale / StageCodegenScale size the staged costing and
	// codegen ramps (engine.CompileStages) as multiples of the memo:
	// they set how much larger a compilation's *peak* stock is than its
	// exploration share, without stretching per-task waits.
	StageCostingScale float64
	StageCodegenScale float64
	// VASBytes bounds the address space compile, execution grants, and
	// the plan cache contend inside (the paper's testbed was a 32-bit
	// server booted /3GB; its AWE-mapped buffer pool lived outside).
	// Compile stock that outruns the gates exhausts it — the paper's
	// out-of-memory failure mode.
	VASBytes int64
	// BrokerExhaustionFrac overrides broker.Config.ExhaustionFreeFrac:
	// when free-plus-shrinkable memory in a broker domain falls under
	// this fraction, notifications carry the exhaustion signal and
	// governed compilations yield best-effort plans (§4.1) — the
	// throttled server's asymmetric escape valve from the stock spiral.
	BrokerExhaustionFrac float64
}

// Apply overlays the knob set on an engine config (one that started from
// engine.DefaultConfig).
func (k PressureKnobs) Apply(c *engine.Config) {
	if k.CacheReserveFrac > 0 {
		c.Pressure.CacheReserveFrac = k.CacheReserveFrac
	}
	if k.SlowdownSlope > 0 {
		c.Pressure.SlowdownSlope = k.SlowdownSlope
	}
	if k.MaxSlowdown > 0 {
		c.Pressure.MaxSlowdown = k.MaxSlowdown
	}
	if k.CommitFrac > 0 {
		c.Pressure.CommitFrac = k.CommitFrac
	}
	if k.StealFrac > 0 {
		c.Pressure.StealFrac = k.StealFrac
	}
	if k.CompileTaskWait > 0 {
		c.CompileTaskWait = k.CompileTaskWait
	}
	if k.ExecGrantLimitFrac > 0 {
		c.ExecGrantLimitFrac = k.ExecGrantLimitFrac
	}
	if k.MemoBytesScale > 0 {
		c.Optimizer.Memo.BytesPerGroup = int64(k.MemoBytesScale * float64(c.Optimizer.Memo.BytesPerGroup))
		c.Optimizer.Memo.BytesPerExpr = int64(k.MemoBytesScale * float64(c.Optimizer.Memo.BytesPerExpr))
	}
	if k.StageCostingScale > 0 {
		c.CompileStages.CostingScale = k.StageCostingScale
	}
	if k.StageCodegenScale > 0 {
		c.CompileStages.CodegenScale = k.StageCodegenScale
	}
	if k.VASBytes > 0 {
		c.VASBytes = k.VASBytes
	}
	if k.BrokerExhaustionFrac > 0 {
		c.Broker.ExhaustionFreeFrac = k.BrokerExhaustionFrac
	}
}

// CalibratedKnobs returns the knob set a calibration grid selected for
// the paper's §5 throughput experiments (Figures 3-5). Compile waits stay
// at the default's scale, so §5.2's 10-90 s compile profile holds at the
// figure operating point; the collapse comes from compile-memory stock
// instead: the staged ramps grow each compilation to about ten times its
// memo inside a bounded 32-bit VAS, which thirty unthrottled clients wire
// past the paging threshold. The gateway ladder and the §4.1 exhaustion
// signal (BrokerExhaustionFrac) keep the throttled server inside it. See
// EXPERIMENTS.md, "Calibration methodology".
func CalibratedKnobs() PressureKnobs {
	return PressureKnobs{
		CacheReserveFrac:     0.50,
		SlowdownSlope:        14,
		MaxSlowdown:          24,
		CommitFrac:           1.5,
		StealFrac:            0.5,
		CompileTaskWait:      40 * time.Millisecond,
		ExecGrantLimitFrac:   0.35,
		MemoBytesScale:       1.10,
		StageCostingScale:    4,
		StageCodegenScale:    5,
		VASBytes:             2816 * mem.MiB,
		BrokerExhaustionFrac: 0.15,
	}
}

// knobs maps each PressureKnobs field to the engine settings it sets,
// scaled by f from their current value.
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
// PressureKnobs field, one that moves its engine setting up 10% and one
// down, from the value the scenario runs with (its ServerConfig; a
// setting at zero, like the uncalibrated machine's unbounded VAS, stays
// there). Each twin renames the scenario after the knob
// ("figure3~vas+10%"), so an error says which knob it ran under.
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
