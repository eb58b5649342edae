package bufferpool

import (
	"math/rand"
	"testing"

	"compilegate/internal/mem"
	"compilegate/internal/storage"
	"compilegate/internal/vtime"
)

// modelPool is the pool as it was first written: frames in a map by extent
// key, the CLOCK ring a slice in insertion order with an index for a hand.
// It keeps no time and no tracker — budget is the byte count a lone tracker
// on its own budget refuses at — and serves as the reference the
// index-addressed frame table and the intrusive ring are checked against.
type modelPool struct {
	extent, budget, floor, target int64

	frames map[storage.ExtentKey]*modelFrame
	clock  []*modelFrame
	hand   int

	hits, misses, evictions, passthrough uint64
	stolen                               int64
}

type modelFrame struct {
	key storage.ExtentKey
	ref bool
}

func (m *modelPool) bytes() int64 { return int64(len(m.frames)) * m.extent }

func (m *modelPool) victim() *modelFrame {
	for sweep := 0; sweep < 2*len(m.frames); sweep++ {
		if m.hand >= len(m.clock) {
			m.hand = 0
		}
		f := m.clock[m.hand]
		m.hand++
		if !f.ref {
			return f
		}
		f.ref = false
	}
	return nil
}

func (m *modelPool) drop(f *modelFrame) {
	delete(m.frames, f.key)
	for i, g := range m.clock {
		if g == f {
			m.clock = append(m.clock[:i], m.clock[i+1:]...)
			if i < m.hand {
				m.hand--
			}
			break
		}
	}
	m.evictions++
}

func (m *modelPool) insert(key storage.ExtentKey) {
	f := &modelFrame{key: key, ref: true}
	m.frames[key] = f
	m.clock = append(m.clock, f)
}

func (m *modelPool) admit(key storage.ExtentKey) {
	if m.frames[key] != nil {
		return
	}
	if m.target > 0 && m.bytes()+m.extent > m.target {
		v := m.victim()
		if v == nil {
			m.passthrough++
			return
		}
		m.drop(v)
	}
	if m.bytes()+m.extent > m.budget {
		v := m.victim()
		if v == nil {
			m.passthrough++
			return
		}
		m.drop(v)
	}
	m.insert(key)
}

func (m *modelPool) readMany(keys []storage.ExtentKey) (hits int) {
	var miss []storage.ExtentKey
	for _, key := range keys {
		if f := m.frames[key]; f != nil {
			m.hits++
			f.ref = true
			hits++
		} else {
			m.misses++
			miss = append(miss, key)
		}
	}
	for _, key := range miss {
		m.admit(key)
	}
	return hits
}

func (m *modelPool) shrink(want int64) (freed int64) {
	for freed < want && m.bytes() > m.floor {
		v := m.victim()
		if v == nil {
			break
		}
		m.drop(v)
		freed += m.extent
	}
	return freed
}

func (m *modelPool) setTarget(target int64) {
	m.target = target
	if target > 0 && m.bytes() > target {
		m.shrink(m.bytes() - target)
	}
}

// TestFramesMatchMapModel drives the pool and the model through the same
// random reads, shrinks, page steals and target changes over three
// tables, and after every step compares the counters and the exact set of
// cached extents — which is equal only if every victim was the same frame.
// The extent size sets how many frames the minBytes floor holds (0 to 3);
// targets fall anywhere, below one extent included, which is what makes a
// read pass through uncached.
func TestFramesMatchMapModel(t *testing.T) {
	extents := []int64{7, 60, 0, 25}
	var universe []storage.ExtentKey
	for id, n := range extents {
		for e := int64(0); e < n; e++ {
			universe = append(universe, storage.NewExtentKey(id, e))
		}
	}
	var evictions, passthrough, hits uint64
	for seed := int64(1); seed <= 12 && !t.Failed(); seed++ {
		rng := rand.New(rand.NewSource(seed))
		extent := []int64{2 * minBytes, minBytes, minBytes / 2, minBytes / 3}[rng.Intn(4)]
		budget := int64(2+rng.Intn(26))*extent + rng.Int63n(extent)
		p := New(extent, mem.NewBudget(budget).NewTracker("bp"), extents)
		m := &modelPool{extent: extent, budget: budget, floor: minBytes,
			frames: map[storage.ExtentKey]*modelFrame{}}
		// Draw from a window of the universe a little larger than the pool,
		// so that hits, misses and evictions all stay common.
		pick := func() storage.ExtentKey { return universe[rng.Intn(40)*len(universe)/40] }

		s := vtime.NewScheduler()
		s.Go("driver", func(tk *vtime.Task) {
			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(17); {
				case op < 12:
					keys := make([]storage.ExtentKey, 1+rng.Intn(6))
					for i := range keys {
						keys[i] = pick()
					}
					before := p.Hits()
					tk.Await(func(k vtime.Step) { p.ReadManyThen(tk, keys, k) })
					if got, want := int(p.Hits()-before), m.readMany(keys); got != want {
						t.Errorf("seed %d step %d: ReadManyThen hits = %d, model %d", seed, step, got, want)
						return
					}
				case op < 14:
					want := int64(rng.Intn(5)) * extent
					if got, want := p.Shrink(want), m.shrink(want); got != want {
						t.Errorf("seed %d step %d: Shrink freed %d, model %d", seed, step, got, want)
						return
					}
				case op < 15:
					want := int64(rng.Intn(4))*extent + 1
					stolen := m.shrink(want)
					m.stolen += stolen
					if got := p.StealPages(want); got != stolen {
						t.Errorf("seed %d step %d: StealPages took %d, model %d", seed, step, got, stolen)
						return
					}
				default:
					target := int64(rng.Intn(3)) * rng.Int63n(24*extent)
					p.SetTarget(target)
					m.setTarget(target)
				}
				if p.hits != m.hits || p.misses != m.misses || p.evictions != m.evictions || p.passthrough != m.passthrough {
					t.Errorf("seed %d step %d: hits/misses/evictions/passthrough = %d/%d/%d/%d, model %d/%d/%d/%d",
						seed, step, p.hits, p.misses, p.evictions, p.passthrough, m.hits, m.misses, m.evictions, m.passthrough)
					return
				}
				if p.Frames() != len(m.frames) || p.Bytes() != m.bytes() || p.StolenBytes() != m.stolen {
					t.Errorf("seed %d step %d: frames/bytes/stolen = %d/%d/%d, model %d/%d/%d",
						seed, step, p.Frames(), p.Bytes(), p.StolenBytes(), len(m.frames), m.bytes(), m.stolen)
					return
				}
				for _, key := range universe {
					if p.Contains(key) != (m.frames[key] != nil) {
						t.Errorf("seed %d step %d: table %d extent %d cached = %v, model disagrees",
							seed, step, key.TableID(), key.Extent(), p.Contains(key))
						return
					}
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		evictions, passthrough, hits = evictions+m.evictions, passthrough+m.passthrough, hits+m.hits
	}
	if evictions == 0 || passthrough == 0 || hits == 0 {
		t.Fatalf("evictions %d, passthrough %d, hits %d: the runs are too tame to compare anything", evictions, passthrough, hits)
	}
}
