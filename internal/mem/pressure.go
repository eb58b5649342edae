package mem

// PressureModel describes what happens to the machine when wired memory
// — reservations that cannot be paged out for free (compilations,
// execution grants, fixed overhead), as opposed to reclaimable caches —
// crowds out the page cache the workload needs. Its fields are five of
// the calibrated knobs (scenario.CalibratedKnobs).
//
// The model is deliberately simple: the machine has physical memory
// Budget.Total and swap extending commit to CommitFrac*Total. Wired
// memory up to (1-CacheReserveFrac)*Total is free; beyond that the pager
// is stealing pages the workload is actively using, and every CPU cycle
// and disk transfer stretches by Slowdown(OvercommitRatio). Reservations
// past the commit limit still fail with ErrOutOfMemory.
type PressureModel struct {
	// Enabled turns the model on. The zero value (disabled) preserves
	// strict no-overcommit semantics: reservations beyond Total fail.
	Enabled bool
	// CommitFrac sizes the commit limit (physical + swap) as a multiple
	// of physical memory. Overcommittable trackers may reserve up to
	// CommitFrac*Total before ErrOutOfMemory. Values <= 1 mean no swap.
	CommitFrac float64
	// CacheReserveFrac is the fraction of physical memory the page cache
	// and OS working set need. Wired memory beyond
	// (1-CacheReserveFrac)*Total starts the paging penalty.
	CacheReserveFrac float64
	// SlowdownSlope converts normalized overcommit into slowdown:
	// factor = 1 + SlowdownSlope*(ratio-1) for ratio > 1.
	SlowdownSlope float64
	// MaxSlowdown caps the factor (the machine is never infinitely slow,
	// just unusable).
	MaxSlowdown float64
	// StealFrac is the fraction of the wired overshoot the pager steals
	// from the buffer pool per housekeeping tick (page-steal evictions).
	StealFrac float64
}

// DefaultPressureModel returns the default machine's thrash model:
// paging starts once wired memory claims more than 65% of RAM, and
// severity ramps steeply (slope 14) so a machine 10% past the threshold
// already runs ~2.4x slow. The default workload profile sits below the
// threshold; the §5 throughput experiments set CacheReserveFrac to 0.50
// through scenario.CalibratedKnobs to reproduce the paper's collapse
// regime.
func DefaultPressureModel() PressureModel {
	return PressureModel{
		Enabled:          true,
		CommitFrac:       1.5,
		CacheReserveFrac: 0.35,
		SlowdownSlope:    14.0,
		MaxSlowdown:      24.0,
		StealFrac:        0.5,
	}
}

// pagingThreshold returns the wired-memory level at which paging starts,
// for a machine with total physical bytes.
func (m PressureModel) pagingThreshold(total int64) int64 {
	f := 1 - m.CacheReserveFrac
	if f <= 0 || f > 1 {
		f = 1
	}
	return int64(f * float64(total))
}

// commitLimit returns the commit ceiling for a machine with total
// physical bytes.
func (m PressureModel) commitLimit(total int64) int64 {
	if !m.Enabled || m.CommitFrac <= 1 {
		return total
	}
	return int64(m.CommitFrac * float64(total))
}

// Slowdown maps an overcommit ratio (wired / paging threshold) to the
// multiplicative paging slowdown. Ratios at or below 1 cost nothing.
func (m PressureModel) Slowdown(ratio float64) float64 {
	if !m.Enabled || ratio <= 1 {
		return 1
	}
	f := 1 + float64(m.SlowdownSlope*(ratio-1))
	if m.MaxSlowdown > 1 && f > m.MaxSlowdown {
		f = m.MaxSlowdown
	}
	return f
}

// SetPressure installs the pressure model on the budget. With the model
// enabled, trackers marked AllowOvercommit may reserve past physical
// memory up to the commit limit, and the budget reports the paging state
// through OvercommitRatio and Slowdown. Must be called before any
// overcommitting reservation.
func (b *Budget) SetPressure(m PressureModel) {
	b.pressure = m
	b.commitLimit = m.commitLimit(b.total)
	b.slowWired = -1
}

// Pressure returns the installed pressure model (zero value when unset).
func (b *Budget) Pressure() PressureModel { return b.pressure }

// CommitLimit returns the commit ceiling: total physical memory unless a
// pressure model with swap is installed.
func (b *Budget) CommitLimit() int64 {
	if b.commitLimit > b.total {
		return b.commitLimit
	}
	return b.total
}

// WiredBytes returns the bytes held by non-reclaimable trackers — memory
// the pager cannot steal for free. Caches (buffer pool, plan cache) mark
// themselves reclaimable and are excluded.
func (b *Budget) WiredBytes() int64 { return b.wired }

// WiredPeak returns the high-water mark of WiredBytes.
func (b *Budget) WiredPeak() int64 { return b.wiredPeak }

// OvercommitRatio returns wired memory divided by the paging threshold
// ((1-CacheReserveFrac)*Total). Values above 1 mean the machine is
// thrashing; without a pressure model the threshold is Total itself, so
// the ratio is simply the wired fraction of physical memory.
func (b *Budget) OvercommitRatio() float64 {
	thr := b.pressure.pagingThreshold(b.total)
	if thr <= 0 {
		return 0
	}
	return float64(b.wired) / float64(thr)
}

// Slowdown returns the current paging slowdown factor (1 when the
// machine is healthy). Deterministic: it depends only on reservation
// state, never on wall-clock — which also makes it cacheable per wired
// level, since the engine reads it on every quantum.
func (b *Budget) Slowdown() float64 {
	if b.wired == b.slowWired {
		return b.slowVal
	}
	v := b.pressure.Slowdown(b.OvercommitRatio())
	b.slowWired, b.slowVal = b.wired, v
	return v
}

// WiredOverBytes returns how far wired memory currently exceeds the
// paging threshold (0 when healthy) — the amount the pager wants to
// steal back from caches.
func (b *Budget) WiredOverBytes() int64 {
	over := b.wired - b.pressure.pagingThreshold(b.total)
	if over < 0 {
		return 0
	}
	return over
}

// MarkReclaimable excludes the tracker's memory from WiredBytes: the
// component is a cache whose pages the pager can drop or steal without
// swap I/O. Must be called before any reservation.
func (t *Tracker) MarkReclaimable() {
	if t.used != 0 {
		panic("mem: MarkReclaimable on active tracker " + t.name)
	}
	t.reclaimable = true
}

// Reclaimable reports whether the tracker is excluded from wired
// accounting.
func (t *Tracker) Reclaimable() bool { return t.reclaimable }

// AllowOvercommit lets the tracker reserve beyond physical memory up to
// the budget's commit limit (the reservation is backed by swap and
// charges the paging penalty machine-wide). Without a pressure model the
// flag has no effect.
func (t *Tracker) AllowOvercommit() { t.overcommit = true }

// Overcommittable reports whether the tracker may reserve past physical
// memory.
func (t *Tracker) Overcommittable() bool { return t.overcommit }
