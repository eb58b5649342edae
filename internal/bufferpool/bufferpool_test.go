package bufferpool

import (
	"testing"
	"testing/quick"
	"time"

	"compilegate/internal/mem"
	"compilegate/internal/storage"
	"compilegate/internal/vtime"
)

// ext is the tests' extent size: above minBytes, so a pool of them can
// shrink to empty.
const ext = 100 << 20

// testExtents is the database the tests' pools cache: table 1 is the one
// key addresses.
var testExtents = []int64{3, 128, 40}

func key(i int64) storage.ExtentKey { return storage.NewExtentKey(1, i) }

// read is a one-extent ReadManyThen; it reports whether it was a hit.
func read(p *Pool, tk *vtime.Task, key storage.ExtentKey) bool {
	hits := p.Hits()
	tk.Await(func(k vtime.Step) { p.ReadManyThen(tk, []storage.ExtentKey{key}, k) })
	return p.Hits() == hits+1
}

func TestMissThenHit(t *testing.T) {
	b := mem.NewBudget(100 * ext)
	p := New(ext, b.NewTracker("bp"), testExtents)
	s := vtime.NewScheduler()
	s.Go("r", func(tk *vtime.Task) {
		if read(p, tk, key(1)) {
			t.Error("first read was a hit")
		}
		if !read(p, tk, key(1)) {
			t.Error("second read was a miss")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Hits() != 1 || p.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", p.Hits(), p.Misses())
	}
	if p.Bytes() != ext || p.Frames() != 1 {
		t.Fatalf("bytes=%d frames=%d", p.Bytes(), p.Frames())
	}
	// Latency: one miss (200ms) + one hit (0.2ms).
	if s.Now() != 200*time.Millisecond+200*time.Microsecond {
		t.Fatalf("elapsed = %v", s.Now())
	}
}

func TestDiskChannelContention(t *testing.T) {
	b := mem.NewBudget(100 * ext)
	p := New(ext, b.NewTracker("bp"), testExtents) // 2 channels, 200ms each
	s := vtime.NewScheduler()
	for i := 0; i < 4; i++ {
		i := i
		s.Go("r", func(tk *vtime.Task) {
			read(p, tk, key(int64(i)))
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 misses over 2 channels = 2 waves of 200ms.
	if s.Now() != 400*time.Millisecond {
		t.Fatalf("elapsed = %v, want 400ms", s.Now())
	}
}

func TestBudgetPressurePassthrough(t *testing.T) {
	b := mem.NewBudget(2*ext + ext/2) // room for 2 frames only
	p := New(ext, b.NewTracker("bp"), testExtents)
	s := vtime.NewScheduler()
	s.Go("r", func(tk *vtime.Task) {
		read(p, tk, key(1))
		read(p, tk, key(2))
		// Third unique extent: budget exhausted; pool must evict its own
		// coldest frame and keep working.
		read(p, tk, key(3))
		if p.Frames() != 2 {
			t.Errorf("frames = %d, want 2", p.Frames())
		}
		if p.Bytes() != 2*ext {
			t.Errorf("bytes = %d, want %d", p.Bytes(), 2*ext)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if p.evictions == 0 {
		t.Fatal("no evictions under budget pressure")
	}
}

func TestClockEvictsColdKeepsHot(t *testing.T) {
	b := mem.NewBudget(3 * ext) // 3 frames
	p := New(ext, b.NewTracker("bp"), testExtents)
	s := vtime.NewScheduler()
	s.Go("r", func(tk *vtime.Task) {
		read(p, tk, key(1))
		read(p, tk, key(2))
		read(p, tk, key(3))
		// Re-touch 1 and 2 so 3 is the cold one.
		read(p, tk, key(1))
		read(p, tk, key(2))
		// Clock sweep clears refs; touch 1 and 2 again mid-sweep pattern.
		read(p, tk, key(4)) // must evict someone
		if !p.Contains(key(4)) {
			t.Error("new extent not cached")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Frames() != 3 {
		t.Fatalf("frames = %d, want 3", p.Frames())
	}
}

func TestShrinkReleasesMemory(t *testing.T) {
	b := mem.NewBudget(100 * ext)
	p := New(ext, b.NewTracker("bp"), testExtents)
	s := vtime.NewScheduler()
	s.Go("r", func(tk *vtime.Task) {
		for i := int64(0); i < 10; i++ {
			read(p, tk, key(i))
		}
		if p.Bytes() != 10*ext {
			t.Fatalf("bytes = %d", p.Bytes())
		}
		freed := p.Shrink(3*ext + ext/2)
		if freed != 4*ext { // whole frames only
			t.Errorf("freed = %d, want %d", freed, 4*ext)
		}
		if p.Bytes() != 6*ext || p.Frames() != 6 {
			t.Errorf("after shrink: bytes=%d frames=%d", p.Bytes(), p.Frames())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestShrinkRespectsFloor: with 16 MiB extents the 64 MiB floor is four
// frames, and no shrink goes below it.
func TestShrinkRespectsFloor(t *testing.T) {
	const small = minBytes / 4
	b := mem.NewBudget(100 * small)
	p := New(small, b.NewTracker("bp"), testExtents)
	s := vtime.NewScheduler()
	s.Go("r", func(tk *vtime.Task) {
		for i := int64(0); i < 10; i++ {
			read(p, tk, key(i))
		}
		p.Shrink(100 * small)
		if p.Bytes() != minBytes {
			t.Errorf("shrank to %d, want the %d floor", p.Bytes(), minBytes)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTargetCapsGrowth(t *testing.T) {
	b := mem.NewBudget(100 * ext)
	p := New(ext, b.NewTracker("bp"), testExtents)
	s := vtime.NewScheduler()
	s.Go("r", func(tk *vtime.Task) {
		for i := int64(0); i < 5; i++ {
			read(p, tk, key(i))
		}
		p.SetTarget(3 * ext) // force down to 3 frames
		if p.Bytes() > 3*ext {
			t.Errorf("bytes = %d after SetTarget(3 frames)", p.Bytes())
		}
		// Growth beyond target replaces rather than grows.
		for i := int64(10); i < 15; i++ {
			read(p, tk, key(i))
		}
		if p.Bytes() > 3*ext {
			t.Errorf("pool grew past target: %d", p.Bytes())
		}
		p.SetTarget(0)
		read(p, tk, key(99))
		if p.Bytes() != 4*ext {
			t.Errorf("pool did not resume growth after clearing target: %d", p.Bytes())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadMany(t *testing.T) {
	b := mem.NewBudget(100 * ext)
	p := New(ext, b.NewTracker("bp"), testExtents)
	s := vtime.NewScheduler()
	s.Go("r", func(tk *vtime.Task) {
		keys := []storage.ExtentKey{key(1), key(2), key(3)}
		if tk.Await(func(k vtime.Step) { p.ReadManyThen(tk, keys, k) }); p.Hits() != 0 {
			t.Errorf("cold ReadManyThen hits = %d", p.Hits())
		}
		if tk.Await(func(k vtime.Step) { p.ReadManyThen(tk, keys, k) }); p.Hits() != 3 {
			t.Errorf("warm ReadManyThen hits = %d", p.Hits())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if p.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", p.HitRate())
	}
}

func TestHitRateZeroTraffic(t *testing.T) {
	b := mem.NewBudget(10 * ext)
	p := New(ext, b.NewTracker("bp"), testExtents)
	if p.HitRate() != 0 {
		t.Fatal("hit rate nonzero with no traffic")
	}
	if p.String() == "" {
		t.Fatal("empty String")
	}
}

// Property: pool bytes always equal frames*extent, never exceed the
// budget, and hits+misses equals total reads.
func TestQuickPoolInvariants(t *testing.T) {
	f := func(reads []uint8, shrinks []uint8) bool {
		budget := int64(5*ext + ext/2) // 5 frames
		b := mem.NewBudget(budget)
		p := New(ext, b.NewTracker("bp"), testExtents)
		s := vtime.NewScheduler()
		ok := true
		s.Go("r", func(tk *vtime.Task) {
			for i, r := range reads {
				read(p, tk, key(int64(r%12)))
				if len(shrinks) > 0 && i%3 == 2 {
					p.Shrink(int64(shrinks[i%len(shrinks)]) * ext / 100)
				}
				if p.Bytes() != int64(p.Frames())*ext {
					ok = false
				}
				if p.Bytes() > budget {
					ok = false
				}
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok && p.Hits()+p.Misses() == uint64(len(reads))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestClockSeamInsertVisitedFirst pins the CLOCK ring's seam semantics
// to the original slice implementation: when the hand has advanced past
// the tail (hand == len in slice terms), a frame admitted before the
// next sweep sits exactly at the hand's position and must be the next
// sweep candidate — not the ring head. Minimal divergence sequence:
// admit a, b; reference a; evict (clears a's bit, takes b, hand ends at
// the seam); admit c; the next victim must be c, not the now-cold a.
func TestClockSeamInsertVisitedFirst(t *testing.T) {
	b := mem.NewBudget(100 * ext)
	p := New(ext, b.NewTracker("bp"), testExtents)
	mk := func(i int64) *frame {
		f := p.insert(key(i))
		f.ref = false
		return f
	}
	a := mk(1)
	mk(2)
	a.ref = true
	v := p.victim()
	if v == nil || v.key != key(2) {
		t.Fatalf("first victim = %v, want frame 2 (frame 1 is referenced)", v)
	}
	if a.ref {
		t.Fatal("the sweep did not clear frame 1's reference bit")
	}
	p.drop(v)
	c := mk(3)
	if v := p.victim(); v != c {
		t.Fatalf("victim after seam insert = %v, want the just-admitted frame 3", v.key)
	}
}
