// Package mem implements the simulated physical-memory budget shared by
// every DBMS subcomponent.
//
// A Budget models the machine's RAM. Each subcomponent (buffer pool, plan
// cache, query compilation, execution grants, ...) owns a Tracker and
// reserves/releases simulated bytes against the shared budget. Components
// that cache reclaimable data register a Reclaimer so that a reservation
// which would otherwise fail can first shrink caches — the same last-resort
// path SQL Server uses before returning error 701.
//
// An optional PressureModel (pressure.go) extends the budget with swap:
// trackers marked AllowOvercommit may reserve past physical memory up to a
// commit limit, and the budget reports the resulting paging severity
// (OvercommitRatio, Slowdown) so the engine can charge thrash costs.
//
// All methods are intended for single-threaded use from vtime task context;
// the package performs no locking by design (determinism).
package mem

import (
	"errors"
	"fmt"
	"sort"

	"compilegate/internal/errclass"
)

// ErrOutOfMemory is returned when a reservation cannot be satisfied even
// after running all registered reclaimers.
var ErrOutOfMemory = errors.New("mem: out of memory")

// oomError is the concrete error Reserve returns. Failed reservations
// are a hot path under the collapse regime (every grant retry and OOM
// spiral produces one), so the message is rendered lazily: constructing
// the error costs one small allocation and no formatting.
type oomError struct {
	tracker string
	kind    int8 // oomLimit, oomGroup, oomBudget
	group   string
	a, b, c int64 // kind-specific quantities, captured at failure time
}

const (
	oomLimit int8 = iota
	oomGroup
	oomBudget
)

func (e *oomError) Error() string {
	switch e.kind {
	case oomLimit:
		return fmt.Sprintf("%s: component limit %s exceeded: %v",
			e.tracker, FormatBytes(e.a), ErrOutOfMemory)
	case oomGroup:
		return fmt.Sprintf("%s: %s exhausted (%s used of %s): %v",
			e.tracker, e.group, FormatBytes(e.a), FormatBytes(e.b), ErrOutOfMemory)
	default:
		return fmt.Sprintf("%s: budget exhausted (%s used of %s, commit limit %s): %v",
			e.tracker, FormatBytes(e.a), FormatBytes(e.b), FormatBytes(e.c), ErrOutOfMemory)
	}
}

func (e *oomError) Unwrap() error { return ErrOutOfMemory }

// Is places failed reservations in the engine's error taxonomy.
func (e *oomError) Is(target error) bool { return target == errclass.OOM }

// Byte-size constants for readability in configuration.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
)

// FormatBytes renders n as a human-readable quantity ("1.5 GiB").
func FormatBytes(n int64) string {
	switch {
	case n >= GiB:
		return fmt.Sprintf("%.2f GiB", float64(n)/float64(GiB))
	case n >= MiB:
		return fmt.Sprintf("%.2f MiB", float64(n)/float64(MiB))
	case n >= KiB:
		return fmt.Sprintf("%.2f KiB", float64(n)/float64(KiB))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Reclaimer frees up to want bytes of low-value memory and returns the
// number of bytes actually freed.
type Reclaimer func(want int64) int64

// Budget is the machine-wide simulated memory budget.
type Budget struct {
	total int64
	used  int64

	// Pressure-model state (see pressure.go): commitLimit extends the
	// budget with swap for overcommittable trackers; wired tracks the
	// non-reclaimable share of used.
	pressure    PressureModel
	commitLimit int64
	wired       int64
	wiredPeak   int64

	// Slowdown is recomputed only when wired memory moves: the engine
	// reads it on every CPU quantum and disk transfer, but it is a pure
	// function of wired. slowWired is the wired value the cache was
	// computed at (-1 = invalid).
	slowWired int64
	slowVal   float64

	trackers   []*Tracker
	reclaimers []reclaimerEntry

	oomCount uint64
}

type reclaimerEntry struct {
	name     string
	priority int // lower priority reclaims first
	fn       Reclaimer
}

// NewBudget creates a budget of total simulated bytes.
func NewBudget(total int64) *Budget {
	if total <= 0 {
		panic("mem: non-positive budget")
	}
	return &Budget{total: total, slowWired: -1}
}

// Total returns the budget's size in bytes.
func (b *Budget) Total() int64 { return b.total }

// Used returns the bytes currently reserved across all trackers.
func (b *Budget) Used() int64 { return b.used }

// Free returns the unreserved bytes.
func (b *Budget) Free() int64 { return b.total - b.used }

// OOMCount returns how many reservations have failed with ErrOutOfMemory.
func (b *Budget) OOMCount() uint64 { return b.oomCount }

// NewTracker registers and returns a named per-component tracker.
func (b *Budget) NewTracker(name string) *Tracker {
	t := &Tracker{name: name, budget: b}
	b.trackers = append(b.trackers, t)
	return t
}

// RegisterReclaimer registers fn to be invoked (in ascending priority
// order) when a reservation would exceed the budget.
func (b *Budget) RegisterReclaimer(name string, priority int, fn Reclaimer) {
	b.reclaimers = append(b.reclaimers, reclaimerEntry{name: name, priority: priority, fn: fn})
	sort.SliceStable(b.reclaimers, func(i, j int) bool {
		return b.reclaimers[i].priority < b.reclaimers[j].priority
	})
}

// reclaim asks registered reclaimers to free at least want bytes and
// returns the total freed.
func (b *Budget) reclaim(want int64) int64 {
	var freed int64
	for _, r := range b.reclaimers {
		if freed >= want {
			break
		}
		freed += r.fn(want - freed)
	}
	return freed
}

// CheckConservation audits the budget's double-entry bookkeeping: every
// byte of Used is attributed to exactly one tracker, the wired total is
// the sum over non-reclaimable trackers, and each group's usage is the
// sum over its member trackers. The fault plane's fuzz harness runs this
// after every simulated schedule — any reserve/spill/release path that
// loses or double-counts bytes surfaces here.
func (b *Budget) CheckConservation() error {
	var used, wired int64
	groups := make(map[*Group]int64)
	for _, t := range b.trackers {
		if t.used < 0 {
			return fmt.Errorf("mem: tracker %s used %d < 0", t.name, t.used)
		}
		used += t.used
		if !t.reclaimable {
			wired += t.used
		}
		if t.group != nil {
			groups[t.group] += t.used
		}
	}
	if used != b.used {
		return fmt.Errorf("mem: budget used %d != tracker sum %d", b.used, used)
	}
	if wired != b.wired {
		return fmt.Errorf("mem: budget wired %d != non-reclaimable sum %d", b.wired, wired)
	}
	for g, sum := range groups {
		if g.used != sum {
			return fmt.Errorf("mem: group %s used %d != member sum %d", g.name, g.used, sum)
		}
	}
	return nil
}

// Group is a sub-budget shared by several trackers: reservations by member
// trackers must fit under the group cap as well as the machine budget. It
// models a bounded region like the 32-bit virtual address space that
// compilation, execution grants, and caches contended for on the paper's
// testbed (while the AWE-mapped buffer pool lived outside it).
type Group struct {
	name string
	cap  int64
	used int64
	peak int64

	reclaimers []reclaimerEntry
}

// NewGroup creates a sub-budget of cap bytes.
func (b *Budget) NewGroup(name string, cap int64) *Group {
	if cap <= 0 {
		panic("mem: non-positive group cap")
	}
	return &Group{name: name, cap: cap}
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// Cap returns the group's capacity.
func (g *Group) Cap() int64 { return g.cap }

// Total returns the group's capacity; with Used and Free it lets a Group
// stand wherever a whole Budget can (e.g. as a broker domain).
func (g *Group) Total() int64 { return g.cap }

// Used returns the bytes currently reserved by member trackers.
func (g *Group) Used() int64 { return g.used }

// Peak returns the group's high-water mark.
func (g *Group) Peak() int64 { return g.peak }

// Free returns the group's remaining capacity.
func (g *Group) Free() int64 { return g.cap - g.used }

// RegisterReclaimer registers fn to free group memory when a member
// reservation would exceed the group cap.
func (g *Group) RegisterReclaimer(name string, priority int, fn Reclaimer) {
	g.reclaimers = append(g.reclaimers, reclaimerEntry{name: name, priority: priority, fn: fn})
	sort.SliceStable(g.reclaimers, func(i, j int) bool {
		return g.reclaimers[i].priority < g.reclaimers[j].priority
	})
}

func (g *Group) reclaim(want int64) int64 {
	var freed int64
	for _, r := range g.reclaimers {
		if freed >= want {
			break
		}
		freed += r.fn(want - freed)
	}
	return freed
}

// Tracker accounts for one component's share of the budget.
type Tracker struct {
	name        string
	budget      *Budget
	group       *Group // optional sub-budget
	used        int64
	peak        int64
	limit       int64 // optional per-component cap; 0 = none
	reclaimable bool  // cache memory, excluded from wired accounting
	overcommit  bool  // may reserve past physical up to the commit limit
	allocs      uint64
	fails       uint64

	// oomErr is the tracker's reusable failure value. Under the collapse
	// regime every grant retry produces an OOM error, so Reserve rewrites
	// this one value in place instead of allocating per failure. The
	// returned error is valid until the tracker's next failed
	// reservation; callers inspect or render it immediately (errors.Is /
	// classify), never retain it.
	oomErr oomError
}

// SetGroup places the tracker in a sub-budget group. Must be called
// before any reservation.
func (t *Tracker) SetGroup(g *Group) {
	if t.used != 0 {
		panic("mem: SetGroup on active tracker " + t.name)
	}
	t.group = g
}

// Group returns the tracker's sub-budget (nil when none).
func (t *Tracker) Group() *Group { return t.group }

// Name returns the component name.
func (t *Tracker) Name() string { return t.name }

// Used returns the bytes this component currently holds.
func (t *Tracker) Used() int64 { return t.used }

// Peak returns the high-water mark of Used.
func (t *Tracker) Peak() int64 { return t.peak }

// Allocs returns the number of successful reservations.
func (t *Tracker) Allocs() uint64 { return t.allocs }

// Fails returns the number of failed reservations.
func (t *Tracker) Fails() uint64 { return t.fails }

// Limit returns the component cap (0 when unset).
func (t *Tracker) Limit() int64 { return t.limit }

// SetLimit sets an optional per-component cap. Reservations that would
// push Used beyond the cap fail without consulting reclaimers. A limit of
// 0 removes the cap. Shrinking below current usage is allowed; the
// component simply cannot grow until it drops below the new cap.
func (t *Tracker) SetLimit(n int64) { t.limit = n }

// failOOM records a failed reservation and returns the tracker's
// in-place failure value (see Tracker.oomErr).
func (t *Tracker) failOOM(kind int8, group string, a, b, c int64) error {
	t.fails++
	t.budget.oomCount++
	t.oomErr = oomError{tracker: t.name, kind: kind, group: group, a: a, b: b, c: c}
	return &t.oomErr
}

// Reserve charges n bytes to the component, running budget reclaimers if
// the machine is out of memory. It returns ErrOutOfMemory (wrapped with
// component context) when the reservation cannot be satisfied. The
// returned error value is reused by the tracker's next failure, so it
// must be inspected before the next Reserve call, not retained.
func (t *Tracker) Reserve(n int64) error {
	if n < 0 {
		panic("mem: negative reservation")
	}
	if n == 0 {
		return nil
	}
	if t.limit > 0 && t.used+n > t.limit {
		return t.failOOM(oomLimit, "", t.limit, 0, 0)
	}
	if g := t.group; g != nil && g.used+n > g.cap {
		g.reclaim(g.used + n - g.cap)
		if g.used+n > g.cap {
			return t.failOOM(oomGroup, g.name, g.used, g.cap, 0)
		}
	}
	if t.budget.used+n > t.budget.total {
		// Beyond physical memory: steal from caches first (the pager
		// drops clean file pages before it swaps anything).
		need := t.budget.used + n - t.budget.total
		t.budget.reclaim(need)
		// Overcommittable trackers may then spill into swap up to the
		// commit limit; everyone else fails at physical memory.
		ceiling := t.budget.total
		if t.overcommit && t.budget.commitLimit > ceiling {
			ceiling = t.budget.commitLimit
		}
		if t.budget.used+n > ceiling {
			return t.failOOM(oomBudget, "", t.budget.used, t.budget.total, t.budget.CommitLimit())
		}
	}
	t.take(n, 1)
	return nil
}

// take books k admitted reservations of n bytes in all.
func (t *Tracker) take(n int64, k uint64) {
	b := t.budget
	b.used += n
	t.used += n
	if t.used > t.peak {
		t.peak = t.used
	}
	if !t.reclaimable {
		b.wired += n
		if b.wired > b.wiredPeak {
			b.wiredPeak = b.wired
		}
	}
	if g := t.group; g != nil {
		g.used += n
		if g.used > g.peak {
			g.peak = g.used
		}
	}
	t.allocs += k
}

// ReserveSpan makes k reservations, each of at least one byte and n bytes
// in all, provided none of them would touch the component limit, the group
// cap or physical memory — that is, could fail or run a reclaimer. Usage
// only grows across them, so the last is the one to test. Otherwise it does
// nothing and reports false, and the caller reserves one by one.
func (t *Tracker) ReserveSpan(n int64, k int) bool {
	if k < 0 || n < int64(k) {
		panic("mem: span of empty or negative reservations")
	}
	b, g := t.budget, t.group
	if (t.limit > 0 && t.used+n > t.limit) || (g != nil && g.used+n > g.cap) || b.used+n > b.total {
		return false
	}
	t.take(n, uint64(k))
	return true
}

// MustReserve is Reserve for infallible bookkeeping (e.g. fixed overhead
// reserved at startup); it panics on failure.
func (t *Tracker) MustReserve(n int64) {
	if err := t.Reserve(n); err != nil {
		panic(err)
	}
}

// Release returns n bytes to the budget. Releasing more than Used panics:
// that is always an accounting bug in the caller.
func (t *Tracker) Release(n int64) {
	if n < 0 {
		panic("mem: negative release")
	}
	if n > t.used {
		panic(fmt.Sprintf("mem: %s releasing %d with only %d held", t.name, n, t.used))
	}
	t.used -= n
	t.budget.used -= n
	if !t.reclaimable {
		t.budget.wired -= n
	}
	if t.group != nil {
		t.group.used -= n
	}
}

// ReleaseAll returns everything the component holds and reports how much
// was released.
func (t *Tracker) ReleaseAll() int64 {
	n := t.used
	t.Release(n)
	return n
}
