// Package plancache implements the compiled-plan cache: storage of physical
// plans keyed by the statement's fingerprint (the 64-bit hash of its text,
// sqlparser.Hash64) with LRU eviction, charged against the machine budget,
// shrinkable on broker notice.
//
// A statement of the workload's closed set arrives with its index in that
// set already resolved, and its entry hangs off that index: a slot in a
// slice, not a key in the fingerprint map. Either way it is one entry on
// the one recency list, counted, charged and evicted alike; only the probe
// differs, and a hit on the closed set hashes nothing.
//
// The paper's SALES workload deliberately defeats this cache (every query
// is uniquified), which is precisely why compilation memory dominates; the
// OLTP workloads hit it and skip compilation entirely. Both behaviours
// fall out of the fingerprint. Because SALES churns an insert and an
// eviction through the cache per statement, recency is an intrusive
// doubly-linked list over pooled entries rather than container/list.
//
// Every plan the cache lets go of — on eviction, replacement, Shrink and
// Clear — goes to the recycle function the cache was made with, for the
// optimizer to rebuild in place.
package plancache

import (
	"fmt"

	"compilegate/internal/freelist"
	"compilegate/internal/mem"
	"compilegate/internal/plan"
)

type entry struct {
	key        uint64 // the fingerprint
	static     int    // ≥ 0: held by statics[static]; else by entries[key]
	p          *plan.Plan
	bytes      int64
	prev, next *entry // recency list: front = most recent
}

// Cache is the plan cache.
type Cache struct {
	tracker *mem.Tracker
	entries map[uint64]*entry // by fingerprint: text outside the closed set
	statics []*entry          // by index in the closed set; nil = not cached
	n       int               // entries cached, in either
	front   *entry            // most recently used
	back    *entry            // least recently used
	target  int64

	free    freelist.List[entry] // recycled entries
	recycle func(*plan.Plan)     // takes every plan the cache lets go of

	hits, misses, inserts, evictions uint64
}

// New creates a cache charging plans to tracker, for a workload whose
// closed statement set has statics members (indices 0..statics-1). Every
// plan the cache lets go of is handed to recycle.
func New(tracker *mem.Tracker, statics int, recycle func(*plan.Plan)) *Cache {
	return &Cache{
		tracker: tracker,
		entries: make(map[uint64]*entry),
		statics: make([]*entry, statics),
		recycle: recycle,
	}
}

// Bytes returns the cache's current memory.
func (c *Cache) Bytes() int64 { return c.tracker.Used() }

// Len returns the number of cached plans.
func (c *Cache) Len() int { return c.n }

// Hits and Misses expose the counters.
func (c *Cache) Hits() uint64   { return c.hits }
func (c *Cache) Misses() uint64 { return c.misses }

// HitRate returns hits/(hits+misses), 0 with no traffic.
func (c *Cache) HitRate() float64 {
	t := c.hits + c.misses
	if t == 0 {
		return 0
	}
	return float64(c.hits) / float64(t)
}

// --- recency list ---

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.front
	if c.front != nil {
		c.front.prev = e
	} else {
		c.back = e
	}
	c.front = e
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.back = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveToFront(e *entry) {
	if c.front == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// lookup is the one probe of a Get or Put: the closed set by index, other
// text by fingerprint.
func (c *Cache) lookup(key uint64, static int) *entry {
	if static >= 0 {
		return c.statics[static]
	}
	return c.entries[key]
}

// release drops an entry from its slot or the map, and from the list, and
// recycles it and its plan.
func (c *Cache) release(e *entry) {
	c.unlink(e)
	if e.static >= 0 {
		c.statics[e.static] = nil
	} else {
		delete(c.entries, e.key)
	}
	c.n--
	c.tracker.Release(e.bytes)
	c.recycle(e.p)
	e.p = nil
	c.free.Put(e)
}

// Get returns the cached plan for the statement — static is its index in
// the closed set, or negative for text outside it, which goes by the
// fingerprint key — refreshing recency. The plan stays the cache's.
func (c *Cache) Get(key uint64, static int) (*plan.Plan, bool) {
	e := c.lookup(key, static)
	if e == nil {
		c.misses++
		return nil, false
	}
	c.hits++
	c.moveToFront(e)
	return e.p, true
}

// Put caches a plan for the statement (see Get) and reports whether it did;
// one it cannot find memory for, even after evicting colder plans, stays the
// caller's (compilation already succeeded; caching is best-effort).
// Re-putting a cached statement replaces the stored plan and adjusts the
// tracker charge to the new plan's size.
func (c *Cache) Put(key uint64, static int, p *plan.Plan) bool {
	if e := c.lookup(key, static); e != nil {
		// Drop the stale entry and release its charge; the fresh plan
		// goes through the normal insert path below (which may evict
		// colder plans to make room if it grew).
		c.release(e)
	}
	bytes := p.PlanBytes()
	// Respect the broker target by making room first.
	if c.target > 0 {
		for c.Bytes()+bytes > c.target && c.evictOldest() {
		}
		if c.Bytes()+bytes > c.target {
			return false
		}
	}
	for c.tracker.Reserve(bytes) != nil {
		if !c.evictOldest() {
			return false // nothing left to evict; skip caching
		}
	}
	e := c.free.Get()
	if e == nil {
		e = &entry{}
	}
	e.key, e.static, e.p, e.bytes = key, static, p, bytes
	c.pushFront(e)
	if static >= 0 {
		c.statics[static] = e
	} else {
		c.entries[key] = e
	}
	c.n++
	c.inserts++
	return true
}

// Clear drops every cached plan, releasing all tracker charge — the
// cache's state after a crash/restart (an in-memory cache does not
// survive the process).
func (c *Cache) Clear() {
	// Not routed through evictOldest: losing the cache to a crash is not
	// an eviction, so the eviction counter stays a pure LRU measurement.
	for c.back != nil {
		c.release(c.back)
	}
}

// evictOldest removes the least-recently-used plan; reports success.
func (c *Cache) evictOldest() bool {
	e := c.back
	if e == nil {
		return false
	}
	c.release(e)
	c.evictions++
	return true
}

// Shrink releases up to want bytes of plans (LRU first), returning the
// bytes freed. It serves as the cache's mem.Reclaimer and broker handler.
func (c *Cache) Shrink(want int64) int64 {
	var freed int64
	for freed < want {
		before := c.Bytes()
		if !c.evictOldest() {
			break
		}
		freed += before - c.Bytes()
	}
	return freed
}

// SetTarget installs the broker target, immediately shrinking to it.
// Zero clears the target.
func (c *Cache) SetTarget(target int64) {
	c.target = target
	if target > 0 && c.Bytes() > target {
		c.Shrink(c.Bytes() - target)
	}
}

// String summarizes the cache.
func (c *Cache) String() string {
	return fmt.Sprintf("plancache: %d plans, %s, hit-rate %.1f%%, evictions %d",
		c.Len(), mem.FormatBytes(c.Bytes()), c.HitRate()*100, c.evictions)
}
