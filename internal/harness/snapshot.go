package harness

import (
	"sync"

	"compilegate/internal/catalog"
	"compilegate/internal/engine"
	"compilegate/internal/stats"
	"compilegate/internal/storage"
	"compilegate/internal/workload"
)

// Snapshot is the immutable state of one scenario *shape* — everything a
// run needs that does not depend on the engine config, client count,
// seed, or measurement window: the resolved catalog, the statistics
// estimator, the storage layout, and the workload's closed statement set,
// identified and parsed. A snapshot is built once per (workload,
// scale) and shared read-only by every run of that shape, including
// concurrent sweep runs: only mutable engine state (budget, pools,
// caches, metrics, schedulers) is per-run. This is what lets a claims
// table of hundreds of runs amortize all setup cost into one
// catalog-and-statistics build per shape.
type Snapshot struct {
	Workload workload.Spec
	Scale    float64

	Catalog    *catalog.Catalog
	Estimator  *stats.Estimator
	Layout     *storage.Layout
	Statements engine.StaticStatements
}

// NewSnapshot builds a fresh, uncached snapshot for the shape. Use
// SnapshotFor to share builds process-wide; this constructor exists for
// tests that need an independent copy (the sweep-invariance test proves
// shared and fresh snapshots produce byte-identical results).
func NewSnapshot(spec workload.Spec, scale float64) *Snapshot {
	cat := spec.NewCatalog(scale, workload.DefaultExtentBytes)
	return &Snapshot{
		Workload:   spec,
		Scale:      scale,
		Catalog:    cat,
		Estimator:  stats.NewEstimator(cat),
		Layout:     storage.NewLayout(cat),
		Statements: engine.PrepareStatements(spec.StaticStatements()),
	}
}

// prebuilt converts the snapshot to the engine's shared-component form.
func (s *Snapshot) prebuilt() engine.Prebuilt {
	return engine.Prebuilt{
		Estimator:  s.Estimator,
		Layout:     s.Layout,
		Statements: s.Statements,
	}
}

type snapshotKey struct {
	spec  string
	scale float64
}

var (
	snapshotMu    sync.Mutex
	snapshotCache = map[snapshotKey]*Snapshot{}
)

// SnapshotFor returns the process-wide shared snapshot for the shape,
// building it on first use. Snapshots are immutable after construction,
// so handing the same one to concurrent runs is safe and keeps results
// byte-identical to runs with private copies.
func SnapshotFor(spec workload.Spec, scale float64) *Snapshot {
	key := snapshotKey{spec: spec.String(), scale: scale}
	snapshotMu.Lock()
	snap, ok := snapshotCache[key]
	if !ok {
		snap = NewSnapshot(spec, scale)
		snapshotCache[key] = snap
	}
	snapshotMu.Unlock()
	return snap
}
