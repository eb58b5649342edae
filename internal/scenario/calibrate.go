package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"compilegate/internal/engine"
	"compilegate/internal/harness"
	"compilegate/internal/mem"
)

// PressureKnobs is one point of the calibration grid: the pressure-model
// and compile-profile settings that shape the thrash regime of Figures
// 3-5. The zero value of a field means "keep the engine default".
type PressureKnobs struct {
	// Name labels the knob set in reports ("base", "steep", ...).
	Name string

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

// CalibratedKnobs returns the knob set cmd/calibrate selected for the
// paper's §5 throughput experiments (Figures 3-5) under the staged
// compile-memory model: per-task compile waits stay at the engine's
// default scale (40 ms vs the default 45 ms, against the pre-stage
// 180 ms) — so the §5.2 10-90 s compile-duration profile holds at the
// figure operating point, not just at the default tuning — and the
// collapse regime comes from compile-memory *stock* instead: the
// costing/codegen stages grow every ad-hoc compilation to roughly an
// order of magnitude above its exploration memo over its 10-90 s
// lifetime, and the address space those compilations share with
// execution grants is bounded (the paper's 32-bit testbed, booted with
// extended user VAS, its AWE buffer pool outside). Thirty unthrottled
// clients wire the VAS past the paging threshold at realistic compile
// durations: queries start failing with out-of-memory while the
// machine thrashes, and retries pile more compilations on — the
// paper's collapse. The gateway ladder plus the §4.1 exhaustion signal
// (best-effort plans, BrokerExhaustionFrac) keep the throttled
// server's stock inside the VAS and below the paging threshold. The
// execution-grant share is trimmed to 0.35 so the compile pileup, not
// grant admission, is the contended resource.
//
// See EXPERIMENTS.md, "Calibration methodology".
func CalibratedKnobs() PressureKnobs {
	return PressureKnobs{
		Name:                 "selected",
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

// CalibrationPoint is one grid cell's outcome: a throttled/baseline pair
// at one client count and seed under one knob set.
type CalibrationPoint struct {
	Knobs     PressureKnobs
	Clients   int
	Seed      int64
	Throttled *harness.Result
	Baseline  *harness.Result
	Err       error
}

// Ratio returns throttled/baseline completions (0 when unavailable).
func (p CalibrationPoint) Ratio() float64 {
	if p.Err != nil || p.Baseline == nil || p.Baseline.Completed == 0 {
		return 0
	}
	return float64(p.Throttled.Completed) / float64(p.Baseline.Completed)
}

// FidelityTarget is the throughput separation the paper shows at one
// client count.
type FidelityTarget struct {
	Clients int
	// Ratio is the throttled/baseline separation to aim for.
	Ratio float64
	// AtLeast relaxes the target to a floor: any separation >= Ratio
	// scores perfectly (Figure 5's "baseline collapses" has no upper
	// bound worth matching).
	AtLeast bool
}

// PaperTargets returns the Figures 3-5 separations: ~1.35x at 30
// clients (Figure 3), throttled clearly ahead at 35 (Figure 4), and a
// collapsing baseline at 40 (Figure 5).
func PaperTargets() []FidelityTarget {
	return []FidelityTarget{
		{Clients: 30, Ratio: 1.35},
		{Clients: 35, Ratio: 1.30, AtLeast: true},
		{Clients: 40, Ratio: 1.50, AtLeast: true},
	}
}

// Calibration describes a sweep: every knob set crossed with every
// client count, each cell a throttled/baseline pair.
type Calibration struct {
	Knobs   []PressureKnobs
	Clients []int
	// Horizon/Warmup bound each run's measurement window.
	Horizon, Warmup time.Duration
	// Seeds replicates every cell over this seed population; nil runs
	// every cell at seed 1. A multi-seed grid scores each knob set over
	// all of its cells, so the selected calibration holds as a
	// distribution.
	Seeds []int64
	// Targets score knob sets; nil uses PaperTargets.
	Targets []FidelityTarget
	// Workers bounds concurrent simulations (0 = all cores).
	Workers int
}

// DefaultCalibration returns the grid cmd/calibrate ships: the selected
// calibration plus its neighborhood, so reruns show the sensitivity of
// every knob.
func DefaultCalibration() Calibration {
	base := CalibratedKnobs()
	vary := func(name string, f func(*PressureKnobs)) PressureKnobs {
		k := base
		k.Name = name
		f(&k)
		return k
	}
	return Calibration{
		Knobs: []PressureKnobs{
			base,
			vary("reserve-lo", func(k *PressureKnobs) { k.CacheReserveFrac -= 0.05 }),
			vary("reserve-hi", func(k *PressureKnobs) { k.CacheReserveFrac += 0.05 }),
			vary("slope-lo", func(k *PressureKnobs) { k.SlowdownSlope /= 2 }),
			vary("slope-hi", func(k *PressureKnobs) { k.SlowdownSlope *= 2 }),
			vary("stage-lo", func(k *PressureKnobs) { k.StageCostingScale, k.StageCodegenScale = 3, 4 }),
			vary("stage-hi", func(k *PressureKnobs) { k.StageCostingScale, k.StageCodegenScale = 5, 6 }),
			vary("memo-lo", func(k *PressureKnobs) { k.MemoBytesScale = 1.0 }),
			vary("memo-hi", func(k *PressureKnobs) { k.MemoBytesScale = 1.25 }),
			vary("vas-lo", func(k *PressureKnobs) { k.VASBytes = 2752 * mem.MiB }),
			vary("vas-hi", func(k *PressureKnobs) { k.VASBytes = 2880 * mem.MiB }),
			vary("exhaust-lo", func(k *PressureKnobs) { k.BrokerExhaustionFrac = 0.03 }),
			vary("grant-hi", func(k *PressureKnobs) { k.ExecGrantLimitFrac += 0.10 }),
		},
		Clients: []int{30, 35, 40},
		Horizon: 3 * time.Hour,
		Warmup:  45 * time.Minute,
	}
}

// seedList resolves the grid's seed population: Seeds when set, else {1}.
func (c Calibration) seedList() []int64 {
	if len(c.Seeds) > 0 {
		return c.Seeds
	}
	return []int64{1}
}

// cellScenario builds the throttled arm of one calibration cell; the
// baseline arm is its Baseline twin.
func (c Calibration) cellScenario(k PressureKnobs, clients int, seed int64) Scenario {
	s := Sales(clients)
	s.Name = fmt.Sprintf("cal-%s-c%d-s%d", k.Name, clients, seed)
	s.Description = fmt.Sprintf("calibration cell %s at %d clients, seed %d", k.Name, clients, seed)
	s.Horizon, s.Warmup = c.Horizon, c.Warmup
	s.Seed = seed
	s.Engine = k.Apply
	// The grid's 45- and 15-minute warm-ups are whole 5-minute slices.
	return s.WithSlice(5 * time.Minute)
}

// scenarios expands the grid into throttled/baseline scenario pairs in a
// fixed order: for cell i, index 2i is throttled and 2i+1 its baseline.
func (c Calibration) scenarios() []Scenario {
	seeds := c.seedList()
	out := make([]Scenario, 0, 2*len(c.Knobs)*len(c.Clients)*len(seeds))
	for _, k := range c.Knobs {
		for _, cl := range c.Clients {
			for _, seed := range seeds {
				s := c.cellScenario(k, cl, seed)
				out = append(out, s, s.Baseline())
			}
		}
	}
	return out
}

// Run executes the whole grid through RunSweep (every cell is two
// independent simulations; all of them run concurrently on real cores)
// and collects the outcomes into a report.
func (c Calibration) Run() *CalibrationReport {
	if c.Horizon <= 0 {
		c.Horizon, c.Warmup = 3*time.Hour, 45*time.Minute
	}
	targets := c.Targets
	if targets == nil {
		targets = PaperTargets()
	}
	seeds := c.seedList()
	results := RunSweep(c.scenarios(), c.Workers)
	rep := &CalibrationReport{Targets: targets}
	i := 0
	for _, k := range c.Knobs {
		for _, cl := range c.Clients {
			for _, seed := range seeds {
				th, ba := results[i], results[i+1]
				i += 2
				p := CalibrationPoint{Knobs: k, Clients: cl, Seed: seed}
				switch {
				case th.Err != nil:
					p.Err = th.Err
				case ba.Err != nil:
					p.Err = ba.Err
				default:
					p.Throttled, p.Baseline = th.Result, ba.Result
				}
				rep.Points = append(rep.Points, p)
			}
		}
	}
	return rep
}

// CalibrationReport holds a finished grid with its fidelity targets.
type CalibrationReport struct {
	Points  []CalibrationPoint
	Targets []FidelityTarget
}

func (r *CalibrationReport) target(clients int) (FidelityTarget, bool) {
	for _, t := range r.Targets {
		if t.Clients == clients {
			return t, true
		}
	}
	return FidelityTarget{}, false
}

// Score returns the fidelity of one knob set to the targets: 0 is a
// perfect match, larger is worse. Cells at client counts without a
// target are ignored; failed cells score as a total miss.
func (r *CalibrationReport) Score(name string) float64 {
	var score float64
	for _, p := range r.Points {
		if p.Knobs.Name != name {
			continue
		}
		t, ok := r.target(p.Clients)
		if !ok {
			continue
		}
		if p.Err != nil {
			score += t.Ratio * t.Ratio
			continue
		}
		ratio := p.Ratio()
		if t.AtLeast && ratio >= t.Ratio {
			continue
		}
		d := ratio - t.Ratio
		score += d * d
	}
	return score
}

// Best returns the knob set with the lowest Score. Ties break toward
// the earlier grid entry, so reruns are deterministic.
func (r *CalibrationReport) Best() (PressureKnobs, float64) {
	var best PressureKnobs
	bestScore := -1.0
	for _, p := range r.Points {
		if bestScore >= 0 && p.Knobs.Name == best.Name {
			continue
		}
		s := r.Score(p.Knobs.Name)
		if bestScore < 0 || s < bestScore {
			best, bestScore = p.Knobs, s
		}
	}
	return best, bestScore
}

// CSV renders every cell as one row — the machine-readable sweep output.
func (r *CalibrationReport) CSV() string {
	var sb strings.Builder
	sb.WriteString("knobs,clients,seed,reserve_frac,slope,wait_ms,grant_frac,stage_costing,stage_codegen," +
		"memo_scale,vas_mib,exhaust_frac," +
		"throttled,baseline,ratio,throttled_errors,baseline_errors," +
		"throttled_compile_p50_s,baseline_overcommit,baseline_steal_mib\n")
	for _, p := range r.Points {
		if p.Err != nil {
			fmt.Fprintf(&sb, "%s,%d,%d,,,,,,,,,,,,,,,,,error: %v\n", p.Knobs.Name, p.Clients, p.Seed, p.Err)
			continue
		}
		fmt.Fprintf(&sb, "%s,%d,%d,%.2f,%.1f,%d,%.2f,%.1f,%.1f,%.2f,%d,%.2f,%d,%d,%.3f,%d,%d,%.0f,%.2f,%d\n",
			p.Knobs.Name, p.Clients, p.Seed,
			p.Knobs.CacheReserveFrac, p.Knobs.SlowdownSlope,
			p.Knobs.CompileTaskWait.Milliseconds(), p.Knobs.ExecGrantLimitFrac,
			p.Knobs.StageCostingScale, p.Knobs.StageCodegenScale,
			p.Knobs.MemoBytesScale, p.Knobs.VASBytes>>20, p.Knobs.BrokerExhaustionFrac,
			p.Throttled.Completed, p.Baseline.Completed, p.Ratio(),
			p.Throttled.Errors, p.Baseline.Errors,
			p.Throttled.CompileP50.Seconds(),
			p.Baseline.AvgOvercommitRatio, p.Baseline.PageStealBytes>>20)
	}
	return sb.String()
}

// Markdown renders one table per knob set, ready for EXPERIMENTS.md.
func (r *CalibrationReport) Markdown() string {
	names := make([]string, 0)
	seen := map[string]bool{}
	for _, p := range r.Points {
		if !seen[p.Knobs.Name] {
			seen[p.Knobs.Name] = true
			names = append(names, p.Knobs.Name)
		}
	}
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "### %s (score %.3f)\n\n", name, r.Score(name))
		sb.WriteString("| clients | seed | throttled | baseline | ratio | target | compile p50 (throttled) | baseline overcommit |\n")
		sb.WriteString("|---|---|---|---|---|---|---|---|\n")
		for _, p := range r.Points {
			if p.Knobs.Name != name {
				continue
			}
			tgt := "—"
			if t, ok := r.target(p.Clients); ok {
				tgt = fmt.Sprintf("%.2f", t.Ratio)
				if t.AtLeast {
					tgt = "≥" + tgt
				}
			}
			if p.Err != nil {
				fmt.Fprintf(&sb, "| %d | %d | error | error | — | %s | — | — |\n", p.Clients, p.Seed, tgt)
				continue
			}
			fmt.Fprintf(&sb, "| %d | %d | %d | %d | %.2fx | %s | %v | %.2f |\n",
				p.Clients, p.Seed, p.Throttled.Completed, p.Baseline.Completed,
				p.Ratio(), tgt, p.Throttled.CompileP50, p.Baseline.AvgOvercommitRatio)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Ranking returns knob-set names ordered best to worst.
func (r *CalibrationReport) Ranking() []string {
	names := make([]string, 0)
	seen := map[string]bool{}
	for _, p := range r.Points {
		if !seen[p.Knobs.Name] {
			seen[p.Knobs.Name] = true
			names = append(names, p.Knobs.Name)
		}
	}
	sort.SliceStable(names, func(i, j int) bool {
		return r.Score(names[i]) < r.Score(names[j])
	})
	return names
}
