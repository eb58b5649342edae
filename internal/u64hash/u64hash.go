// Package u64hash provides a tiny open-addressing hash map for nonzero
// uint64 keys. The memo's set-to-group index is probed on every
// associate-rule application; MapI32 replaces a Go map there, trading
// generality for a single mixed-hash probe, no per-bucket control words,
// backing arrays that Reset retains for pooled reuse, and a Reset that
// costs what was inserted rather than what was ever allocated.
//
// Keys must be nonzero (zero marks an empty slot). The table grows by
// doubling at 1/2 load, keeping probe sequences short.
package u64hash

// mix is the splitmix64 finalizer: join bitsets are low-entropy, so slot
// selection needs a full-avalanche mix.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// minSlots sizes a table's first allocation. The memo's index routinely
// reaches a thousand keys per compilation, so starting larger skips most
// of the rehash ladder during pool warm-up: every run rebuilds its pools
// from scratch, and the doubling ladder from a small table was a
// measurable share of each run's allocation volume. 2048 slots (16 KiB
// of keys) amortizes to noise across a pooled instance's lifetime.
const minSlots = 2048

// MapI32 maps nonzero uint64 keys to int32 values.
type MapI32 struct {
	keys []uint64
	vals []int32
	// used journals the slots filled since the last Reset, so Reset
	// empties exactly those instead of sweeping the whole table: a pooled
	// map that once served a large compilation stays cheap for small ones.
	used []int32
}

// Len returns the number of entries.
func (m *MapI32) Len() int { return len(m.used) }

// Reset empties the map, retaining capacity. It clears Len() slots.
func (m *MapI32) Reset() {
	for _, i := range m.used {
		m.keys[i] = 0
	}
	m.used = m.used[:0]
}

// Get returns the value for k and whether it is present.
func (m *MapI32) Get(k uint64) (int32, bool) {
	if len(m.keys) == 0 {
		return 0, false
	}
	mask := uint64(len(m.keys) - 1)
	i := mix(k) & mask
	for {
		switch m.keys[i] {
		case 0:
			return 0, false
		case k:
			return m.vals[i], true
		}
		i = (i + 1) & mask
	}
}

// Put inserts or replaces the value for k. k must be nonzero.
func (m *MapI32) Put(k uint64, v int32) {
	if len(m.used)*2 >= len(m.keys) {
		m.grow()
	}
	mask := uint64(len(m.keys) - 1)
	i := mix(k) & mask
	for {
		switch m.keys[i] {
		case 0:
			m.keys[i] = k
			m.vals[i] = v
			m.used = append(m.used, int32(i))
			return
		case k:
			m.vals[i] = v
			return
		}
		i = (i + 1) & mask
	}
}

func (m *MapI32) grow() {
	n := len(m.keys) * 2
	if n < minSlots {
		n = minSlots
	}
	oldK, oldV, oldUsed := m.keys, m.vals, m.used
	m.keys = make([]uint64, n)
	m.vals = make([]int32, n)
	m.used = make([]int32, 0, n/2)
	mask := uint64(n - 1)
	for _, j := range oldUsed {
		k := oldK[j]
		i := mix(k) & mask
		for m.keys[i] != 0 {
			i = (i + 1) & mask
		}
		m.keys[i] = k
		m.vals[i] = oldV[j]
		m.used = append(m.used, int32(i))
	}
}
