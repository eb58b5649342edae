package bufferpool

import (
	"testing"
	"testing/quick"
	"time"

	"compilegate/internal/mem"
	"compilegate/internal/storage"
	"compilegate/internal/vtime"
)

func testCfg() Config {
	return Config{
		ExtentBytes:  100,
		DiskLatency:  10 * time.Millisecond,
		DiskChannels: 2,
		HitLatency:   100 * time.Microsecond,
		MinBytes:     0,
	}
}

// testExtents is the database the tests' pools cache: table 1 is the one
// key addresses.
var testExtents = []int64{3, 128, 40}

func key(i int64) storage.ExtentKey { return storage.NewExtentKey(1, i) }

func TestMissThenHit(t *testing.T) {
	b := mem.NewBudget(10_000)
	p := New(testCfg(), b.NewTracker("bp"), testExtents)
	s := vtime.NewScheduler()
	s.Go("r", func(tk *vtime.Task) {
		if p.Read(tk, key(1)) {
			t.Error("first read was a hit")
		}
		if !p.Read(tk, key(1)) {
			t.Error("second read was a miss")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Hits() != 1 || p.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", p.Hits(), p.Misses())
	}
	if p.Bytes() != 100 || p.Frames() != 1 {
		t.Fatalf("bytes=%d frames=%d", p.Bytes(), p.Frames())
	}
	// Latency: one miss (10ms) + one hit (0.1ms).
	if s.Now() != 10*time.Millisecond+100*time.Microsecond {
		t.Fatalf("elapsed = %v", s.Now())
	}
}

func TestDiskChannelContention(t *testing.T) {
	b := mem.NewBudget(1 << 20)
	p := New(testCfg(), b.NewTracker("bp"), testExtents) // 2 channels, 10ms each
	s := vtime.NewScheduler()
	for i := 0; i < 4; i++ {
		i := i
		s.Go("r", func(tk *vtime.Task) {
			p.Read(tk, key(int64(i)))
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 misses over 2 channels = 2 waves of 10ms.
	if s.Now() != 20*time.Millisecond {
		t.Fatalf("elapsed = %v, want 20ms", s.Now())
	}
}

func TestBudgetPressurePassthrough(t *testing.T) {
	b := mem.NewBudget(250) // room for 2 frames only
	p := New(testCfg(), b.NewTracker("bp"), testExtents)
	s := vtime.NewScheduler()
	s.Go("r", func(tk *vtime.Task) {
		p.Read(tk, key(1))
		p.Read(tk, key(2))
		// Third unique extent: budget exhausted; pool must evict its own
		// coldest frame and keep working.
		p.Read(tk, key(3))
		if p.Frames() != 2 {
			t.Errorf("frames = %d, want 2", p.Frames())
		}
		if p.Bytes() != 200 {
			t.Errorf("bytes = %d, want 200", p.Bytes())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Evictions() == 0 {
		t.Fatal("no evictions under budget pressure")
	}
}

func TestClockEvictsColdKeepsHot(t *testing.T) {
	b := mem.NewBudget(300) // 3 frames
	p := New(testCfg(), b.NewTracker("bp"), testExtents)
	s := vtime.NewScheduler()
	s.Go("r", func(tk *vtime.Task) {
		p.Read(tk, key(1))
		p.Read(tk, key(2))
		p.Read(tk, key(3))
		// Re-touch 1 and 2 so 3 is the cold one.
		p.Read(tk, key(1))
		p.Read(tk, key(2))
		// Clock sweep clears refs; touch 1 and 2 again mid-sweep pattern.
		p.Read(tk, key(4)) // must evict someone
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

func TestPinnedNeverEvicted(t *testing.T) {
	b := mem.NewBudget(200) // 2 frames
	p := New(testCfg(), b.NewTracker("bp"), testExtents)
	s := vtime.NewScheduler()
	s.Go("r", func(tk *vtime.Task) {
		p.Read(tk, key(1))
		p.Pin(key(1))
		p.Read(tk, key(2))
		for i := int64(3); i < 10; i++ {
			p.Read(tk, key(i))
		}
		if !p.Contains(key(1)) {
			t.Error("pinned extent evicted")
		}
		p.Unpin(key(1))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkReleasesMemory(t *testing.T) {
	b := mem.NewBudget(10_000)
	p := New(testCfg(), b.NewTracker("bp"), testExtents)
	s := vtime.NewScheduler()
	s.Go("r", func(tk *vtime.Task) {
		for i := int64(0); i < 10; i++ {
			p.Read(tk, key(i))
		}
		if p.Bytes() != 1000 {
			t.Fatalf("bytes = %d", p.Bytes())
		}
		freed := p.Shrink(350)
		if freed != 400 { // whole frames only
			t.Errorf("freed = %d, want 400", freed)
		}
		if p.Bytes() != 600 || p.Frames() != 6 {
			t.Errorf("after shrink: bytes=%d frames=%d", p.Bytes(), p.Frames())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkRespectsFloor(t *testing.T) {
	cfg := testCfg()
	cfg.MinBytes = 500
	b := mem.NewBudget(10_000)
	p := New(cfg, b.NewTracker("bp"), testExtents)
	s := vtime.NewScheduler()
	s.Go("r", func(tk *vtime.Task) {
		for i := int64(0); i < 10; i++ {
			p.Read(tk, key(i))
		}
		p.Shrink(1_000_000)
		if p.Bytes() < 500 {
			t.Errorf("shrank below floor: %d", p.Bytes())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTargetCapsGrowth(t *testing.T) {
	b := mem.NewBudget(10_000)
	p := New(testCfg(), b.NewTracker("bp"), testExtents)
	s := vtime.NewScheduler()
	s.Go("r", func(tk *vtime.Task) {
		for i := int64(0); i < 5; i++ {
			p.Read(tk, key(i))
		}
		p.SetTarget(300) // force down to 3 frames
		if p.Bytes() > 300 {
			t.Errorf("bytes = %d after SetTarget(300)", p.Bytes())
		}
		// Growth beyond target replaces rather than grows.
		for i := int64(10); i < 15; i++ {
			p.Read(tk, key(i))
		}
		if p.Bytes() > 300 {
			t.Errorf("pool grew past target: %d", p.Bytes())
		}
		p.SetTarget(0)
		p.Read(tk, key(99))
		if p.Bytes() != 400 {
			t.Errorf("pool did not resume growth after clearing target: %d", p.Bytes())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadMany(t *testing.T) {
	b := mem.NewBudget(10_000)
	p := New(testCfg(), b.NewTracker("bp"), testExtents)
	s := vtime.NewScheduler()
	s.Go("r", func(tk *vtime.Task) {
		keys := []storage.ExtentKey{key(1), key(2), key(3)}
		if hits := p.ReadMany(tk, keys); hits != 0 {
			t.Errorf("cold ReadMany hits = %d", hits)
		}
		if hits := p.ReadMany(tk, keys); hits != 3 {
			t.Errorf("warm ReadMany hits = %d", hits)
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
	b := mem.NewBudget(1000)
	p := New(testCfg(), b.NewTracker("bp"), testExtents)
	if p.HitRate() != 0 {
		t.Fatal("hit rate nonzero with no traffic")
	}
	if p.String() == "" {
		t.Fatal("empty String")
	}
}

// Property: pool bytes always equal frames*ExtentBytes, never exceed the
// budget, and hits+misses equals total reads.
func TestQuickPoolInvariants(t *testing.T) {
	f := func(reads []uint8, shrinks []uint8) bool {
		b := mem.NewBudget(550) // 5 frames
		p := New(testCfg(), b.NewTracker("bp"), testExtents)
		s := vtime.NewScheduler()
		ok := true
		s.Go("r", func(tk *vtime.Task) {
			for i, r := range reads {
				p.Read(tk, key(int64(r%12)))
				if len(shrinks) > 0 && i%3 == 2 {
					p.Shrink(int64(shrinks[i%len(shrinks)]))
				}
				if p.Bytes() != int64(p.Frames())*100 {
					ok = false
				}
				if p.Bytes() > 550 {
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
// admit a, b; pin a; evict (skips pinned a, takes b, hand ends at the
// seam); admit c; unpin a; the next victim must be c.
func TestClockSeamInsertVisitedFirst(t *testing.T) {
	b := mem.NewBudget(10_000)
	p := New(testCfg(), b.NewTracker("bp"), testExtents)
	mk := func(i int64) *frame {
		f := p.insert(key(i))
		f.ref = false
		return f
	}
	a := mk(1)
	mk(2)
	a.pinned = 1
	v := p.victim()
	if v == nil || v.key != key(2) {
		t.Fatalf("first victim = %v, want frame 2 (frame 1 is pinned)", v)
	}
	p.drop(v)
	c := mk(3)
	a.pinned = 0
	if v := p.victim(); v != c {
		t.Fatalf("victim after seam insert = %v, want the just-admitted frame 3", v.key)
	}
}
