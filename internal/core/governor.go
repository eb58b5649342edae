// Package core implements the paper's primary contribution: the
// compilation Governor, which binds the Memory Broker (§3) to the
// gateway chain of memory monitors (§4) and exposes the per-compilation
// protocol the optimizer uses.
//
// Every query compilation opens a Compilation handle. All optimizer memory
// goes through Compilation.AllocThen, which (a) reports the new total to the
// gateway ticket, making the compiling task wait at a monitor when its
// category's concurrency is exhausted, and (b) charges the compile-memory
// tracker against the machine budget. The governor listens to broker
// notifications to adjust dynamic gate thresholds and to raise the
// best-effort-plan signal when memory exhaustion is predicted (§4.1).
package core

import (
	"fmt"
	"time"

	"compilegate/internal/broker"
	"compilegate/internal/gateway"
	"compilegate/internal/mem"
	"compilegate/internal/vtime"
)

// Options configures a Governor.
type Options struct {
	// Enabled turns compilation throttling on. When false the governor
	// only does memory accounting — the paper's "non-throttled" baseline.
	Enabled bool
	// Gateways configures the monitor chain (gateway.DefaultConfig for the
	// machine); with Enabled it must have at least one level, or
	// NewGovernor fails.
	Gateways gateway.Config
	// DynamicThresholds enables §4.1's broker-target-driven thresholds.
	DynamicThresholds bool
	// BestEffort enables §4.1's best-plan-so-far on predicted exhaustion.
	BestEffort bool
	// Brownout turns on sustained-pressure degradation (requires
	// BestEffort; off by default): after brownoutEnter consecutive broker
	// ticks under pressure the governor escalates to best-effort-only
	// admission — every compilation yields the best complete plan it holds
	// at its next opportunity, so compile footprints stop growing while the
	// broker drains the backlog — and it disarms only after brownoutExit
	// consecutive clean ticks. The asymmetric streak requirement is the
	// hysteresis: a single quiet tick inside a fault does not flap the
	// server back into full compilation.
	Brownout bool
}

// The brown-out mode's hysteresis, in broker ticks.
const (
	brownoutEnter = 3
	brownoutExit  = 6
)

// DefaultOptions returns the full production feature set for a machine
// with the given CPU count and physical memory.
func DefaultOptions(cpus int, totalMem int64) Options {
	return Options{
		Enabled:           true,
		Gateways:          gateway.DefaultConfig(cpus, totalMem),
		DynamicThresholds: true,
		BestEffort:        true,
	}
}

// Governor coordinates all concurrent compilations.
type Governor struct {
	opts    Options
	tracker *mem.Tracker
	chain   *gateway.Chain

	active     int
	exhaustion bool
	started    uint64
	finished   uint64
	aborted    uint64
	bestEffort uint64 // compilations cut short by the exhaustion signal
	peakActive int
	// AllocSpan calls that charged their span at once, and that refused.
	spansSettled  uint64
	spansReplayed uint64

	// Brown-out state machine (see Options.Brownout).
	brownout        bool
	pressureStreak  int
	cleanStreak     int
	brownoutEntries uint64
	brownoutTicks   uint64
}

// NewGovernor creates a governor charging compile memory to tracker.
func NewGovernor(opts Options, tracker *mem.Tracker) (*Governor, error) {
	g := &Governor{opts: opts, tracker: tracker}
	if opts.Enabled {
		chain, err := gateway.NewChain(opts.Gateways)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		g.chain = chain
	}
	return g, nil
}

// AttachBroker registers the governor as the "compile" component of b.
// weight and min follow broker.Register semantics.
func (g *Governor) AttachBroker(b *broker.Broker, weight float64, min int64) {
	b.Register("compile", weight, min, g.tracker.Used, g.OnBrokerNotice)
}

// OnBrokerNotice applies a broker notification: it installs the
// compile-memory target on the gateway chain (when dynamic thresholds are
// enabled), latches the exhaustion signal for best-effort plans and, with
// both Brownout and BestEffort on, advances the brown-out machine.
// Without machine-wide pressure the static thresholds are restored — the
// broker "takes no action" when memory is plentiful.
func (g *Governor) OnBrokerNotice(n broker.Notification) {
	if g.chain != nil && g.opts.DynamicThresholds {
		if n.Pressure {
			g.chain.SetTarget(n.Target)
		} else {
			g.chain.SetTarget(0)
		}
	}
	g.exhaustion = n.Exhaustion
	if g.opts.Brownout && g.opts.BestEffort { // it acts only through best-effort plans
		g.brownoutTick(n.Pressure || n.Exhaustion)
	}
}

// brownoutTick advances the brown-out state machine by one broker tick.
func (g *Governor) brownoutTick(pressured bool) {
	if pressured {
		g.pressureStreak++
		g.cleanStreak = 0
	} else {
		g.cleanStreak++
		g.pressureStreak = 0
	}
	if g.brownout && g.cleanStreak >= brownoutExit {
		g.brownout = false
	}
	if !g.brownout && g.pressureStreak >= brownoutEnter {
		g.brownout = true
		g.brownoutEntries++
	}
	if g.brownout {
		g.brownoutTicks++
	}
}

// Exhaustion reports whether the broker's last notification predicted
// memory exhaustion — the signal behind best-effort plans, exposed for
// node health scoring.
func (g *Governor) Exhaustion() bool { return g.exhaustion }

// BrownoutEntries returns how many times brown-out was entered.
func (g *Governor) BrownoutEntries() uint64 { return g.brownoutEntries }

// BrownoutTicks returns how many broker ticks were spent in brown-out.
func (g *Governor) BrownoutTicks() uint64 { return g.brownoutTicks }

// Enabled reports whether throttling is active.
func (g *Governor) Enabled() bool { return g.opts.Enabled }

// Chain exposes the gateway chain (nil when throttling is disabled).
func (g *Governor) Chain() *gateway.Chain { return g.chain }

// Tracker returns the compile-memory tracker.
func (g *Governor) Tracker() *mem.Tracker { return g.tracker }

// Active returns the number of compilations currently open.
func (g *Governor) Active() int { return g.active }

// PeakActive returns the maximum concurrent compilations observed.
func (g *Governor) PeakActive() int { return g.peakActive }

// Started returns the number of compilations begun.
func (g *Governor) Started() uint64 { return g.started }

// Finished returns the number of compilations completed.
func (g *Governor) Finished() uint64 { return g.finished }

// Aborted returns the number of compilations aborted (timeout or OOM).
func (g *Governor) Aborted() uint64 { return g.aborted }

// Spans returns how many AllocSpan calls charged their span at once and how
// many refused, leaving it to be replayed through Alloc.
func (g *Governor) Spans() (settled, replayed uint64) { return g.spansSettled, g.spansReplayed }

// BestEffortCount returns how many compilations were cut short by the
// exhaustion signal, returning best-effort plans.
func (g *Governor) BestEffortCount() uint64 { return g.bestEffort }

// Compilation is one query compilation's session with the governor. It is a
// plain value, gateway ticket included, so a caller that pools its own
// per-compilation record can keep the session inside it (BeginIn); it is
// used through its address.
type Compilation struct {
	g      *Governor
	task   *vtime.Task
	name   string
	ticket gateway.Ticket // live only under a governor with a chain
	used   int64
	peak   int64
	closed bool
	cut    bool // best-effort signal consumed
	// AllocThen's charge in flight: its bytes, its outcome's slot, what next.
	n    int64
	errp *error
	k    vtime.Step
}

// Begin opens a compilation handle for the given task. name is used in
// diagnostics.
func (g *Governor) Begin(task *vtime.Task, name string) *Compilation {
	c := new(Compilation)
	g.BeginIn(c, task, name)
	return c
}

// BeginIn is Begin in storage the caller owns: it overwrites *c, which
// must not be reused before the compilation is closed (Finish or Abort).
func (g *Governor) BeginIn(c *Compilation, task *vtime.Task, name string) {
	*c = Compilation{g: g, task: task, name: name}
	if g.chain != nil {
		c.ticket = g.chain.NewTicket()
	}
	g.active++
	if g.active > g.peakActive {
		g.peakActive = g.active
	}
	g.started++
}

// Used returns the compilation's current simulated memory.
func (c *Compilation) Used() int64 { return c.used }

// Peak returns the compilation's peak simulated memory.
func (c *Compilation) Peak() int64 { return c.peak }

// GateWait returns the time this compilation has spent blocked at gates.
func (c *Compilation) GateWait() time.Duration { return c.ticket.WaitTime() }

// Alloc is AllocThen for blocking-style callers.
func (c *Compilation) Alloc(n int64) error {
	return c.task.AwaitErr(func(errp *error, k vtime.Step) { c.AllocThen(n, errp, k) })
}

// AllocThen charges n bytes of compilation memory on behalf of the
// compilation's task, then stores the outcome through errp and runs k. The
// charge may wait at a memory monitor. The outcome is nil, mem.ErrOutOfMemory
// (via the budget) or *gateway.ErrTimeout; on an error the compilation has
// been rolled back and must abort (or return a best-effort plan it already
// holds).
func (c *Compilation) AllocThen(n int64, errp *error, k vtime.Step) {
	if c.closed {
		panic("core: Alloc on closed compilation " + c.name)
	}
	c.n, c.errp, c.k, *errp = n, errp, k, nil
	// Gate first: the monitor must admit the growth before the memory is
	// actually taken, so a waiting compilation holds its current memory
	// but does not keep growing — exactly the paper's "restrict future
	// memory allocations" semantics.
	if c.g.chain != nil {
		c.ticket.UpdateThen(c.task, c.used+n, errp, (*gated)(c))
	} else {
		(*gated)(c).Run(c.task)
	}
}

// gated is a compilation whose charge in flight the monitors have answered.
type gated Compilation

func (s *gated) Run(t *vtime.Task) {
	c := (*Compilation)(s)
	if *c.errp == nil {
		*c.errp = c.g.tracker.Reserve(c.n)
	}
	if *c.errp != nil {
		c.Abort()
	} else if c.used += c.n; c.used > c.peak {
		c.peak = c.used
	}
	c.k.Run(t)
}

// AllocSpan is any number of Alloc calls of n bytes in all, provided none
// of them would block at a gate, make the budget reclaim, or fail. Nothing
// else runs between them and the compilation only grows, so that is a
// question about the last one alone. Otherwise it does nothing and reports
// false: the caller makes the calls one by one.
func (c *Compilation) AllocSpan(n int64) bool {
	if c.closed {
		panic("core: AllocSpan on closed compilation " + c.name)
	}
	gated := c.g.chain != nil
	if (gated && !c.ticket.Clears(c.used+n)) || !c.g.tracker.ReserveSpan(n) {
		c.g.spansReplayed++
		return false
	}
	c.used += n
	if gated {
		c.ticket.UpdateThen(c.task, c.used, nil, vtime.StepFunc(func(*vtime.Task) {})) // clears: records the usage
	}
	if c.used > c.peak {
		c.peak = c.used
	}
	c.g.spansSettled++
	return true
}

// Free returns n bytes mid-compilation (e.g. a discarded subtree).
func (c *Compilation) Free(n int64) {
	if n > c.used {
		panic("core: Free exceeds compilation usage")
	}
	c.used -= n
	c.g.tracker.Release(n)
}

// ShouldYieldBestEffort reports whether the compilation should stop
// exploring and return the best complete plan found so far. It returns
// true at most once per compilation, when best-effort is enabled and the
// broker predicts memory exhaustion.
func (c *Compilation) ShouldYieldBestEffort() bool {
	if !c.g.opts.BestEffort || c.cut || c.closed {
		return false
	}
	if c.g.exhaustion || c.g.brownout {
		c.cut = true
		c.g.bestEffort++
		return true
	}
	return false
}

// Finish completes the compilation successfully, releasing all memory and
// gates. Idempotent with Abort: only the first close counts.
func (c *Compilation) Finish() {
	if c.closed {
		return
	}
	c.release()
	c.g.finished++
}

// Abort terminates the compilation unsuccessfully — Alloc does it when an
// allocation is rejected, the caller when it gives up for a reason of its
// own — releasing all memory and gates.
func (c *Compilation) Abort() {
	if c.closed {
		return
	}
	c.release()
	c.g.aborted++
}

func (c *Compilation) release() {
	c.closed = true
	if c.used > 0 {
		c.g.tracker.Release(c.used)
		c.used = 0
	}
	if c.g.chain != nil {
		c.ticket.Close()
	}
	c.g.active--
}

// Report summarizes governor counters.
func (g *Governor) Report() string {
	s := fmt.Sprintf("governor: enabled=%v started=%d finished=%d aborted=%d best-effort=%d peak-active=%d compile-mem=%s (peak %s)\n",
		g.opts.Enabled, g.started, g.finished, g.aborted, g.bestEffort, g.peakActive,
		mem.FormatBytes(g.tracker.Used()), mem.FormatBytes(g.tracker.Peak()))
	if g.spansSettled+g.spansReplayed > 0 {
		s += fmt.Sprintf("charge spans: settled=%d replayed=%d\n", g.spansSettled, g.spansReplayed)
	}
	if g.opts.Brownout {
		s += fmt.Sprintf("brownout: active=%v entries=%d ticks=%d\n",
			g.brownout, g.brownoutEntries, g.brownoutTicks)
	}
	if g.chain != nil {
		s += g.chain.String()
	}
	return s
}
