// Package gateway implements the paper's memory monitors (§4, Figure 1):
// a chain of gateways with progressively higher memory thresholds and
// progressively lower limits on concurrent compilations.
//
// A compilation holds a Ticket. As the compilation's memory usage grows it
// calls Ticket.UpdateThen with the new total; when the usage crosses a
// level's threshold the ticket must acquire that level's semaphore before
// the allocation may proceed. Gates are acquired strictly in order (a ticket
// holding gate i holds all gates < i) and released in reverse order when
// the ticket is closed. If a gate cannot be acquired within its timeout the
// compilation is aborted with ErrTimeout — the paper's throttle-induced
// "timeout" error.
//
// The medium and big thresholds may be dynamic (§4.1): the chain divides
// the compile-memory target across the query-size categories, computing
// threshold[i] = target·F[i] / S[i] where F[i] is the fraction of the
// target allotted to the category below gate i and S[i] is the current
// number of compilations in that category.
package gateway

import (
	"fmt"
	"strings"
	"time"

	"compilegate/internal/errclass"
	"compilegate/internal/mem"
	"compilegate/internal/vtime"
)

// ErrTimeout is returned when a compilation waits longer than a gate's
// timeout. The error text identifies the gate and formats lazily — the
// chain recycles one value in place per failure (like the budget's OOM
// errors), so a retry storm of timeouts allocates nothing. Callers that
// keep a timeout past the chain's next failure must copy the value.
type ErrTimeout struct {
	Gate string
	Wait time.Duration
}

func (e *ErrTimeout) Error() string {
	return fmt.Sprintf("gateway: timed out after %v waiting for %s gate", e.Wait, e.Gate)
}

// Is classifies a gate timeout as deliberately shed work: the monitor
// refused the compilation to protect the machine, so a well-behaved
// client does not resubmit it.
func (e *ErrTimeout) Is(target error) bool { return target == errclass.Shed }

// LevelConfig describes one gateway level.
type LevelConfig struct {
	// Name identifies the level ("small", "medium", "big").
	Name string
	// Threshold is the static entry threshold in bytes: a compilation
	// must hold this gate before its memory may exceed the threshold.
	Threshold int64
	// Slots is the number of compilations allowed past this gate at once.
	Slots int
	// Timeout aborts a compilation that waits longer at this gate.
	// Timeouts grow for later gates, as in the paper.
	Timeout time.Duration
	// Dynamic marks the threshold for target-based recomputation.
	Dynamic bool
	// TargetFraction is F in the paper's formula: the fraction of the
	// compile-memory target allotted to the category below this gate.
	TargetFraction float64
	// MinThreshold floors the dynamic threshold so it can never fall
	// below the previous gate's threshold region.
	MinThreshold int64
}

// Config describes a gateway chain.
type Config struct {
	Levels []LevelConfig
}

// DefaultConfig mirrors the paper's production settings for a machine with
// the given CPU count: three monitors; four concurrent compilations per CPU
// at the small gate; one per CPU at the medium gate; a single compilation
// at the big gate. Thresholds are expressed against the given total
// physical memory, sized to the staged compile-memory stock
// (engine.CompileStages): an ad-hoc DSS compilation peaks near
// totalMem/12 on average, so the medium gate catches the upper half of
// that distribution and the big gate only its heaviest tail — on a
// healthy machine the static ladder barely binds, and throttling comes
// from the dynamic (broker-target-driven) thresholds shrinking under
// pressure.
func DefaultConfig(cpus int, totalMem int64) Config {
	return Config{Levels: []LevelConfig{
		{
			Name:      "small",
			Threshold: 380 * mem.KiB, // per-architecture diagnostic-query floor
			Slots:     4 * cpus,
			Timeout:   6 * time.Minute,
		},
		{
			Name:           "medium",
			Threshold:      totalMem / 16, // static fallback; dynamic in practice
			Slots:          cpus,
			Timeout:        12 * time.Minute,
			Dynamic:        true,
			TargetFraction: 0.45,
			MinThreshold:   totalMem / 96,
		},
		{
			Name:           "big",
			Threshold:      totalMem / 6,
			Slots:          1,
			Timeout:        24 * time.Minute,
			Dynamic:        true,
			TargetFraction: 0.45,
			MinThreshold:   totalMem / 12,
		},
	}}
}

// Chain is a live gateway chain.
type Chain struct {
	levels []*level
	target int64 // broker-assigned compile memory target (0 = unset)

	timeouts uint64

	// timeoutErr is the recycled timeout error, rewritten per failure.
	timeoutErr ErrTimeout
}

type level struct {
	cfg       LevelConfig
	threshold int64 // current effective threshold
	sem       *vtime.Semaphore
	holders   int // tickets currently holding this gate
}

// NewChain validates cfg and builds a chain.
func NewChain(cfg Config) (*Chain, error) {
	if len(cfg.Levels) == 0 {
		return nil, fmt.Errorf("gateway: no levels configured")
	}
	c := &Chain{}
	var prevThreshold int64 = -1
	prevTimeout := time.Duration(0)
	for i, lc := range cfg.Levels {
		if lc.Threshold <= prevThreshold {
			return nil, fmt.Errorf("gateway: level %d (%s) threshold %d not above previous %d",
				i, lc.Name, lc.Threshold, prevThreshold)
		}
		if lc.Slots <= 0 {
			return nil, fmt.Errorf("gateway: level %d (%s) has %d slots", i, lc.Name, lc.Slots)
		}
		if i > 0 && lc.Slots > cfg.Levels[i-1].Slots {
			return nil, fmt.Errorf("gateway: level %d (%s) slots %d exceed previous level's %d",
				i, lc.Name, lc.Slots, cfg.Levels[i-1].Slots)
		}
		if lc.Timeout < prevTimeout {
			return nil, fmt.Errorf("gateway: level %d (%s) timeout %v below previous %v",
				i, lc.Name, lc.Timeout, prevTimeout)
		}
		prevThreshold = lc.Threshold
		prevTimeout = lc.Timeout
		c.levels = append(c.levels, &level{
			cfg:       lc,
			threshold: lc.Threshold,
			sem:       vtime.NewSemaphore("gate-"+lc.Name, lc.Slots),
		})
	}
	return c, nil
}

// Levels returns the number of gateway levels.
func (c *Chain) Levels() int { return len(c.levels) }

// LevelInfo reports the current state of one level.
type LevelInfo struct {
	Name      string
	Threshold int64
	Slots     int
	Holders   int
	Waiting   int
	Timeout   time.Duration
}

// Info returns per-level state, ordered from the small gate up.
func (c *Chain) Info() []LevelInfo {
	out := make([]LevelInfo, len(c.levels))
	for i, l := range c.levels {
		out[i] = LevelInfo{
			Name:      l.cfg.Name,
			Threshold: l.threshold,
			Slots:     l.sem.Cap(),
			Holders:   l.holders,
			Waiting:   l.sem.Waiting(),
			Timeout:   l.cfg.Timeout,
		}
	}
	return out
}

// Timeouts returns the number of gate waits that ended in ErrTimeout.
func (c *Chain) Timeouts() uint64 { return c.timeouts }

// SetTarget installs the broker's compile-memory target and recomputes
// dynamic thresholds. A target of 0 restores static thresholds.
func (c *Chain) SetTarget(target int64) {
	c.target = target
	c.recomputeThresholds()
}

// Target returns the current compile-memory target (0 when unset).
func (c *Chain) Target() int64 { return c.target }

// recomputeThresholds applies the paper's formula: for each dynamic level
// i, the category below it (compilations holding gate i-1 but not gate i,
// or all unthrottled compilations for i==0) may together consume
// target·F; dividing by the category's current population yields the
// per-compilation threshold at which a member must upgrade.
func (c *Chain) recomputeThresholds() {
	if c.target <= 0 {
		for _, l := range c.levels {
			l.threshold = l.cfg.Threshold
		}
		return
	}
	for i, l := range c.levels {
		if !l.cfg.Dynamic {
			l.threshold = l.cfg.Threshold
			continue
		}
		// Population of the category below gate i.
		var pop int
		if i == 0 {
			pop = 1
		} else {
			pop = c.levels[i-1].holders - l.holders
		}
		if pop < 1 {
			pop = 1
		}
		th := int64(float64(c.target) * l.cfg.TargetFraction / float64(pop))
		if th < l.cfg.MinThreshold {
			th = l.cfg.MinThreshold
		}
		// Keep the ladder monotonic: never drop below the previous
		// level's current threshold.
		if i > 0 && th <= c.levels[i-1].threshold {
			th = c.levels[i-1].threshold + 1
		}
		l.threshold = th
	}
}

// Ticket tracks one compilation's progress through the chain. It is a value,
// so a compilation's record can hold it; do not copy one that holds a gate.
type Ticket struct {
	chain *Chain
	held  int // gates [0, held) are held
	usage int64
	waits time.Duration
	// UpdateThen's gate wait: when it began, the outcome's slot, what next.
	since time.Duration
	errp  *error
	k     vtime.Step
}

// NewTicket starts a compilation at zero usage holding no gates.
func (c *Chain) NewTicket() Ticket {
	return Ticket{chain: c}
}

// Held reports how many gates the ticket currently holds.
func (t *Ticket) Held() int { return t.held }

// Usage returns the last usage reported via UpdateThen.
func (t *Ticket) Usage() int64 { return t.usage }

// WaitTime returns the total time this ticket spent blocked at gates.
func (t *Ticket) WaitTime() time.Duration { return t.waits }

// UpdateThen informs the chain that the compilation's memory usage is now
// usage bytes, then runs k. If the usage crosses gate thresholds the task
// first waits for each gate in order. On timeout the ticket's gates are
// released and an *ErrTimeout is stored through errp, which nothing else
// writes (nor reads, in an update that Clears); the compilation must abort.
func (t *Ticket) UpdateThen(task *vtime.Task, usage int64, errp *error, k vtime.Step) {
	t.usage, t.errp, t.k, t.since = usage, errp, k, -1
	(*climb)(t).Run(task)
}

// climb is a ticket inside UpdateThen. Run ends a gate wait under way (since
// is when it began), then waits for the next gate the usage crosses, or runs k.
type climb Ticket

func (c *climb) Run(task *vtime.Task) {
	t := (*Ticket)(c)
	if t.since >= 0 {
		l := t.chain.levels[t.held]
		waited := task.Now() - t.since
		t.waits += waited
		if task.TimedOut() {
			t.chain.timeouts++
			t.chain.timeoutErr = ErrTimeout{Gate: l.cfg.Name, Wait: waited}
			*t.errp = &t.chain.timeoutErr
			t.Close()
			t.k.Run(task)
			return
		}
		t.held++
		l.holders++
		t.chain.recomputeThresholds()
	}
	if t.held < len(t.chain.levels) {
		if l := t.chain.levels[t.held]; t.usage > l.threshold {
			t.since = task.Now()
			l.sem.AcquireTimeoutThen(task, l.cfg.Timeout, c)
			return
		}
	}
	t.k.Run(task)
}

// Clears reports whether UpdateThen(usage) would complete at once, acquiring
// no gate: the ticket holds the whole chain or usage is at or below the next
// gate's threshold. Then so would an update to any smaller usage, which lets a
// compilation report a run of growth by its last value alone.
func (t *Ticket) Clears(usage int64) bool {
	return t.held == len(t.chain.levels) || usage <= t.chain.levels[t.held].threshold
}

// Close releases every gate the ticket holds, in reverse acquisition
// order. It is idempotent.
func (t *Ticket) Close() {
	for t.held > 0 {
		t.held--
		l := t.chain.levels[t.held]
		l.holders--
		l.sem.Release()
	}
	t.chain.recomputeThresholds()
}

// String renders the chain state for diagnostics.
func (c *Chain) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "gateway chain (target=%s):\n", mem.FormatBytes(c.target))
	for _, info := range c.Info() {
		fmt.Fprintf(&sb, "  %-8s threshold=%-12s slots=%d held=%d waiting=%d timeout=%v\n",
			info.Name, mem.FormatBytes(info.Threshold), info.Slots, info.Holders, info.Waiting, info.Timeout)
	}
	return sb.String()
}
