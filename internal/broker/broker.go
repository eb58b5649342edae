// Package broker implements the paper's Memory Broker (§3): a central
// mechanism that accounts for the memory allocated by each DBMS
// subcomponent, recognizes trends in allocation patterns, predicts
// near-future usage, and — only when the predicted machine-wide total would
// exceed physical memory — computes per-component targets and notifies each
// component whether it may keep growing, should hold its allocation rate,
// or must release memory.
//
// When the system is not under memory pressure the broker takes no action
// and the system behaves as if the broker were not there, exactly as the
// paper specifies.
package broker

import (
	"fmt"
	"sort"
	"time"

	"compilegate/internal/mem"
)

// Decision tells a component how it may use memory until the next
// notification.
type Decision int

const (
	// Grow: the component may continue to allocate.
	Grow Decision = iota
	// Stable: the component should hold near its current allocation.
	Stable
	// Shrink: the component must release memory toward its target.
	Shrink
)

// String renders the decision for logs and reports.
func (d Decision) String() string {
	switch d {
	case Grow:
		return "grow"
	case Stable:
		return "stable"
	case Shrink:
		return "shrink"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Notification carries the broker's verdict for one component at one tick.
type Notification struct {
	Decision  Decision
	Target    int64 // bytes the component should converge to
	Predicted int64 // broker's prediction of the component's near-future usage
	// Pressure reports whether the machine-wide predicted total exceeded
	// available memory this tick (targets are only binding under
	// pressure; without it components may ignore them).
	Pressure bool
	// Exhaustion is set when the broker predicts the machine will run out
	// of memory imminently; the compilation component uses it to return
	// best-effort plans instead of failing with out-of-memory (§4.1).
	Exhaustion bool
}

// NotifyFunc receives broker notifications for a component.
type NotifyFunc func(Notification)

// Config tunes the broker.
type Config struct {
	// ExhaustionFreeFrac: when under pressure and free memory falls below
	// this fraction of total, notifications carry Exhaustion=true.
	ExhaustionFreeFrac float64
}

// DefaultConfig returns the tuning used in the reproduction.
func DefaultConfig() Config {
	return Config{ExhaustionFreeFrac: 0.03}
}

// The broker's fixed tuning.
const (
	// sampleWindow is how many usage samples feed trend detection.
	sampleWindow = 8
	// horizon is how far ahead usage is extrapolated.
	horizon = 10 * time.Second
	// stableBand is the fraction of target above which a component is told
	// Stable rather than Grow.
	stableBand = 0.9
	// headroomFrac is the fraction of total memory the broker keeps as
	// slack: components are brokered against total*(1-headroomFrac), so
	// contention is resolved before the machine is literally full.
	headroomFrac = 0.08
)

// Domain is the memory region a broker arbitrates: the whole machine
// budget or a bounded sub-region (mem.Group), such as the 32-bit address
// space the paper's compile/grant/cache components contended inside.
type Domain interface {
	Total() int64
	Used() int64
	Free() int64
}

// Broker monitors component usage against a shared memory domain.
type Broker struct {
	cfg        Config
	budget     Domain
	components []*Component
	ticks      uint64
	pressured  uint64 // ticks that detected pressure

	// Per-tick scratch, reused so the fixed-cadence housekeeping tick
	// allocates nothing in steady state.
	predScratch     []int64
	targetScratch   []int64
	entitledScratch []int64
	overScratch     []bool
}

// Component is one registered memory consumer.
type Component struct {
	name   string
	weight float64 // share of the machine under contention
	min    int64   // floor never taken away
	usage  func() int64
	notify NotifyFunc

	// Usage-sample ring: samples holds up to sampleWindow samples, shead
	// is the next write slot, sn the live count. A true ring (not a
	// forward re-slice) so the backing array is allocated once and never
	// churns — the broker ticks every interval for every component, and
	// the old slide-forward window re-allocated on every wrap.
	samples []sample
	shead   int
	sn      int
	last    Notification
}

type sample struct {
	t time.Duration
	v int64
}

// New creates a broker over the given memory domain.
func New(cfg Config, budget Domain) *Broker {
	return &Broker{cfg: cfg, budget: budget}
}

// Register adds a component. usage is sampled at every tick; notify (may be
// nil) receives the verdict. weight sets the component's share of memory
// under contention relative to other components' weights; min is a floor in
// bytes that targets never drop below.
func (b *Broker) Register(name string, weight float64, min int64, usage func() int64, notify NotifyFunc) *Component {
	if weight <= 0 {
		panic("broker: non-positive weight for " + name)
	}
	c := &Component{name: name, weight: weight, min: min, usage: usage, notify: notify}
	b.components = append(b.components, c)
	return c
}

// ResetHistory discards every component's usage-sample ring and last
// notification — the broker's view of the world after a crash/restart:
// trend prediction starts over from an empty window, so the first
// post-restart ticks take no action until enough samples accumulate.
// Tick and pressure counters survive (they are run measurements, not
// broker state).
func (b *Broker) ResetHistory() {
	for _, c := range b.components {
		c.shead, c.sn = 0, 0
		c.last = Notification{}
	}
}

// Last returns the most recent notification delivered to the component.
func (c *Component) Last() Notification { return c.last }

// Name returns the component's name.
func (c *Component) Name() string { return c.name }

// Ticks returns how many times Tick has run.
func (b *Broker) Ticks() uint64 { return b.ticks }

// PressureTicks returns how many ticks detected memory pressure.
func (b *Broker) PressureTicks() uint64 { return b.pressured }

// UnderPressure reports whether the last tick detected pressure.
func (b *Broker) UnderPressure() bool {
	if b.ticks == 0 {
		return false
	}
	for _, c := range b.components {
		if c.last.Decision != Grow || c.last.Exhaustion {
			return true
		}
	}
	return false
}

// Tick samples all components at virtual time now, predicts usage, and
// delivers notifications. The engine calls this on a fixed cadence.
func (b *Broker) Tick(now time.Duration) {
	b.ticks++

	// 1. Sample and predict.
	if cap(b.predScratch) < len(b.components) {
		b.predScratch = make([]int64, len(b.components))
	}
	predicted := b.predScratch[:len(b.components)]
	var usedByComponents, predictedTotal int64
	for i, c := range b.components {
		u := c.usage()
		c.addSample(now, u)
		p := c.predict()
		predicted[i] = p
		usedByComponents += u
		predictedTotal += p
	}

	// Memory held outside registered components (fixed overhead etc.)
	// reduces what the components can share.
	other := b.budget.Used() - usedByComponents
	if other < 0 {
		other = 0
	}
	available := b.budget.Total() - int64(headroomFrac*float64(b.budget.Total())) - other
	if available < 0 {
		available = 0
	}

	// 2. No pressure: stay out of the way.
	if predictedTotal <= available {
		for i, c := range b.components {
			n := Notification{Decision: Grow, Target: predicted[i], Predicted: predicted[i]}
			c.deliver(n)
		}
		return
	}
	b.pressured++

	// 3. Pressure: split available memory into per-component targets.
	targets := b.computeTargets(available, predicted)
	// Exhaustion means free memory plus everything shrinkable (usage
	// above target across components) is nearly gone — a full buffer
	// pool alone is NOT exhaustion, because it can be shrunk.
	reclaimable := b.budget.Free()
	for i, c := range b.components {
		if over := c.usage() - targets[i]; over > 0 {
			reclaimable += over
		}
	}
	exhaustion := reclaimable < int64(b.cfg.ExhaustionFreeFrac*float64(b.budget.Total()))
	for i, c := range b.components {
		u := c.usage()
		n := Notification{Target: targets[i], Predicted: predicted[i], Pressure: true, Exhaustion: exhaustion}
		switch {
		case u > targets[i]:
			n.Decision = Shrink
		case float64(u) > stableBand*float64(targets[i]):
			n.Decision = Stable
		default:
			n.Decision = Grow
		}
		c.deliver(n)
	}
}

// computeTargets distributes available bytes across components: each
// component is entitled to a weight-proportional share (never below its
// floor); components predicted to use less than their entitlement keep only
// their prediction, and the surplus is granted to over-demanders in
// proportion to their weights.
func (b *Broker) computeTargets(available int64, predicted []int64) []int64 {
	n := len(b.components)
	if cap(b.targetScratch) < n {
		b.targetScratch = make([]int64, n)
		b.entitledScratch = make([]int64, n)
		b.overScratch = make([]bool, n)
	}
	targets, entitled, over := b.targetScratch[:n], b.entitledScratch[:n], b.overScratch[:n]
	var weightSum float64
	for _, c := range b.components {
		weightSum += c.weight
	}
	for i, c := range b.components {
		e := int64(float64(available) * c.weight / weightSum)
		if e < c.min {
			e = c.min
		}
		entitled[i] = e
	}

	// First pass: under-demanders take only what they are predicted to
	// need (respecting floors); record surplus and over-demanders.
	var surplus int64
	var overWeight float64
	for i, c := range b.components {
		over[i] = false
		want := predicted[i]
		if want < c.min {
			want = c.min
		}
		if want <= entitled[i] {
			targets[i] = want
			surplus += entitled[i] - want
		} else {
			targets[i] = entitled[i]
			over[i] = true
			overWeight += c.weight
		}
	}
	// Second pass: hand the surplus to over-demanders by weight, capped at
	// their prediction.
	if surplus > 0 && overWeight > 0 {
		for i, c := range b.components {
			if !over[i] {
				continue
			}
			grant := int64(float64(surplus) * c.weight / overWeight)
			if targets[i]+grant > predicted[i] {
				grant = predicted[i] - targets[i]
			}
			if grant > 0 {
				targets[i] += grant
			}
		}
	}
	return targets
}

func (c *Component) addSample(t time.Duration, v int64) {
	if c.samples == nil {
		c.samples = make([]sample, sampleWindow)
	}
	c.samples[c.shead] = sample{t: t, v: v}
	c.shead = (c.shead + 1) % sampleWindow
	if c.sn < sampleWindow {
		c.sn++
	}
}

// predict extrapolates the component's usage horizon into the future using
// a least-squares trend over the sample window. Predictions never go
// negative, and a shrinking trend is honored (the paper's broker mitigates
// wild swings by reacting to trends in both directions).
func (c *Component) predict() int64 {
	n := c.sn
	if n == 0 {
		return 0
	}
	last := c.samples[(c.shead-1+len(c.samples))%len(c.samples)]
	if n == 1 {
		return last.v
	}
	// Least-squares slope in bytes per second. The regression is
	// order-independent, so the ring is summed in slot order.
	var sumT, sumV, sumTT, sumTV float64
	for i := 0; i < n; i++ {
		s := c.samples[(c.shead-n+i+len(c.samples))%len(c.samples)]
		t := s.t.Seconds()
		v := float64(s.v)
		sumT += t
		sumV += v
		sumTT += float64(t * t)
		sumTV += float64(t * v)
	}
	fn := float64(n)
	den := float64(fn*sumTT) - float64(sumT*sumT)
	if den == 0 {
		return last.v
	}
	slope := (float64(fn*sumTV) - float64(sumT*sumV)) / den
	p := float64(last.v) + float64(slope*horizon.Seconds())
	if p < 0 {
		p = 0
	}
	return int64(p)
}

func (c *Component) deliver(n Notification) {
	c.last = n
	if c.notify != nil {
		c.notify(n)
	}
}

// Report summarizes the broker state for diagnostics.
func (b *Broker) Report() string {
	names := make([]string, 0, len(b.components))
	byName := make(map[string]*Component, len(b.components))
	for _, c := range b.components {
		names = append(names, c.name)
		byName[c.name] = c
	}
	sort.Strings(names)
	s := fmt.Sprintf("broker: ticks=%d pressured=%d\n", b.ticks, b.pressured)
	for _, name := range names {
		c := byName[name]
		s += fmt.Sprintf("  %-12s usage=%-12s target=%-12s decision=%s\n",
			c.name, mem.FormatBytes(c.usage()), mem.FormatBytes(c.last.Target), c.last.Decision)
	}
	return s
}
