package vtime

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepOrdering(t *testing.T) {
	s := NewScheduler()
	var order []string
	s.Go("b", func(tk *Task) {
		tk.Sleep(2 * time.Second)
		order = append(order, "b")
	})
	s.Go("a", func(tk *Task) {
		tk.Sleep(1 * time.Second)
		order = append(order, "a")
	})
	s.Go("c", func(tk *Task) {
		tk.Sleep(3 * time.Second)
		order = append(order, "c")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", s.Now())
	}
}

func TestSleepZeroYields(t *testing.T) {
	s := NewScheduler()
	var order []string
	s.Go("x", func(tk *Task) {
		order = append(order, "x1")
		tk.Sleep(0)
		order = append(order, "x2")
	})
	s.Go("y", func(tk *Task) {
		order = append(order, "y1")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "x1" || order[1] != "y1" || order[2] != "x2" {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 0 {
		t.Fatalf("yield advanced the clock to %v", s.Now())
	}
}

func TestSleepUntil(t *testing.T) {
	s := NewScheduler()
	var at time.Duration
	s.Go("x", func(tk *Task) {
		tk.Sleep(5*time.Second - tk.Now())
		at = tk.Now()
		tk.Sleep(time.Second - tk.Now()) // already past: yields, no time travel
		if tk.Now() != 5*time.Second {
			t.Errorf("clock went backwards: %v", tk.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", at)
	}
}

func TestWaitSignal(t *testing.T) {
	s := NewScheduler()
	q := NewWaitQueue("q")
	var got time.Duration
	s.Go("waiter", func(tk *Task) {
		tk.Await(func(k Step) { q.WaitThen(tk, k) })
		got = tk.Now()
	})
	s.Go("signaler", func(tk *Task) {
		tk.Sleep(7 * time.Second)
		if !q.Signal() {
			t.Error("Signal found no waiter")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7*time.Second {
		t.Fatalf("waiter woke at %v, want 7s", got)
	}
}

func TestWaitTimeout(t *testing.T) {
	s := NewScheduler()
	q := NewWaitQueue("q")
	var signaled bool
	var woke time.Duration
	s.Go("waiter", func(tk *Task) {
		tk.Await(func(k Step) { q.WaitTimeoutThen(tk, 3*time.Second, k) })
		signaled = !tk.TimedOut()
		woke = tk.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if signaled {
		t.Fatal("WaitTimeout reported signaled, want timeout")
	}
	if woke != 3*time.Second {
		t.Fatalf("woke at %v, want 3s", woke)
	}
	if q.Len() != 0 {
		t.Fatalf("queue still holds %d waiters after timeout", q.Len())
	}
}

func TestWaitTimeoutSignaledFirst(t *testing.T) {
	s := NewScheduler()
	q := NewWaitQueue("q")
	var signaled bool
	s.Go("waiter", func(tk *Task) {
		tk.Await(func(k Step) { q.WaitTimeoutThen(tk, 10*time.Second, k) })
		signaled = !tk.TimedOut()
	})
	s.Go("signaler", func(tk *Task) {
		tk.Sleep(1 * time.Second)
		q.Signal()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !signaled {
		t.Fatal("waiter timed out despite early signal")
	}
	if s.Now() != 1*time.Second {
		t.Fatalf("run ended at %v, want 1s (timer should be cancelled)", s.Now())
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := NewScheduler()
	q := NewWaitQueue("q")
	s.Go("stuck", func(tk *Task) { tk.Await(func(k Step) { q.WaitThen(tk, k) }) })
	err := s.Run()
	de, ok := err.(*ErrDeadlock)
	if !ok {
		t.Fatalf("err = %v, want *ErrDeadlock", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestFIFOSignalOrder(t *testing.T) {
	s := NewScheduler()
	q := NewWaitQueue("q")
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		s.Go("w", func(tk *Task) {
			tk.Sleep(time.Duration(i) * time.Millisecond) // enqueue in order
			tk.Await(func(k Step) { q.WaitThen(tk, k) })
			order = append(order, i)
		})
	}
	s.Go("sig", func(tk *Task) {
		tk.Sleep(time.Second)
		for q.Signal() {
			tk.Await(func(k Step) { tk.YieldThen(k) }) // let each woken task record before the next signal
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("wake order = %v, want FIFO", order)
		}
	}
}

func TestSemaphoreBasic(t *testing.T) {
	s := NewScheduler()
	sem := NewSemaphore("s", 2)
	maxHeld, held := 0, 0
	for i := 0; i < 6; i++ {
		s.Go("t", func(tk *Task) {
			tk.Await(func(k Step) { sem.AcquireThen(tk, k) })
			held++
			if held > maxHeld {
				maxHeld = held
			}
			tk.Sleep(time.Second)
			held--
			sem.Release()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxHeld != 2 {
		t.Fatalf("max concurrent holders = %d, want 2", maxHeld)
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("6 tasks × 1s at width 2 finished at %v, want 3s", s.Now())
	}
}

func TestSemaphoreTimeout(t *testing.T) {
	s := NewScheduler()
	sem := NewSemaphore("s", 1)
	var got bool
	s.Go("holder", func(tk *Task) {
		tk.Await(func(k Step) { sem.AcquireThen(tk, k) })
		tk.Sleep(10 * time.Second)
		sem.Release()
	})
	s.Go("waiter", func(tk *Task) {
		tk.Sleep(time.Millisecond)
		tk.Await(func(k Step) { sem.AcquireTimeoutThen(tk, time.Second, k) })
		got = !tk.TimedOut()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("AcquireTimeoutThen succeeded, want timeout")
	}
	if sem.Held() != 0 {
		t.Fatalf("held = %d after all released, want 0", sem.Held())
	}
}

func TestSemaphoreHandoffNoBarge(t *testing.T) {
	s := NewScheduler()
	sem := NewSemaphore("s", 1)
	var order []string
	s.Go("holder", func(tk *Task) {
		tk.Await(func(k Step) { sem.AcquireThen(tk, k) })
		tk.Sleep(time.Second)
		sem.Release()
	})
	s.Go("first", func(tk *Task) {
		tk.Sleep(10 * time.Millisecond)
		tk.Await(func(k Step) { sem.AcquireThen(tk, k) })
		order = append(order, "first")
		sem.Release()
	})
	s.Go("barger", func(tk *Task) {
		tk.Sleep(999 * time.Millisecond)
		// Arrives just before release; must queue behind "first".
		tk.Await(func(k Step) { sem.AcquireThen(tk, k) })
		order = append(order, "barger")
		sem.Release()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" {
		t.Fatalf("order = %v, want [first barger]", order)
	}
}

func TestCPUSetSingleTask(t *testing.T) {
	s := NewScheduler()
	cpu := NewCPUSet(4, 50*time.Millisecond)
	s.Go("t", func(tk *Task) {
		tk.Await(func(k Step) { cpu.UseThen(tk, time.Second, k) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != time.Second {
		t.Fatalf("1s of CPU on idle pool took %v", s.Now())
	}
	if cpu.BusyTime() != time.Second {
		t.Fatalf("BusyTime = %v, want 1s", cpu.BusyTime())
	}
}

func TestCPUSetContention(t *testing.T) {
	// 2 CPUs, 4 tasks × 1s CPU each => 4s of work / 2 CPUs = 2s elapsed.
	s := NewScheduler()
	cpu := NewCPUSet(2, 100*time.Millisecond)
	for i := 0; i < 4; i++ {
		s.Go("t", func(tk *Task) { tk.Await(func(k Step) { cpu.UseThen(tk, time.Second, k) }) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("elapsed = %v, want 2s", s.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		s := NewScheduler()
		q := NewWaitQueue("q")
		sem := NewSemaphore("sem", 2)
		var log []string
		for i := 0; i < 8; i++ {
			i := i
			s.Go("t", func(tk *Task) {
				tk.Sleep(time.Duration(i%3) * time.Millisecond)
				tk.Await(func(k Step) { sem.AcquireThen(tk, k) })
				tk.Sleep(time.Duration(10-i) * time.Millisecond)
				sem.Release()
				if i%2 == 0 {
					q.Signal()
				} else if i < 5 {
					tk.Await(func(k Step) { q.WaitTimeoutThen(tk, 20*time.Millisecond, k) })
				}
				log = append(log, tk.Name()+string(rune('0'+i)))
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// Property: for any set of sleep durations, tasks wake in sorted order of
// duration and the final clock equals the max.
func TestQuickSleepProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 50 {
			durs = durs[:50]
		}
		s := NewScheduler()
		var woke []time.Duration
		var maxD time.Duration
		for _, u := range durs {
			d := time.Duration(u) * time.Microsecond
			if d > maxD {
				maxD = d
			}
			s.Go("t", func(tk *Task) {
				tk.Sleep(d)
				woke = append(woke, tk.Now())
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := 1; i < len(woke); i++ {
			if woke[i] < woke[i-1] {
				return false
			}
		}
		return s.Now() == maxD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a semaphore never admits more holders than its capacity, for
// random acquire/hold/release schedules.
func TestQuickSemaphoreNeverOverCap(t *testing.T) {
	f := func(capRaw uint8, holds []uint8) bool {
		capN := int(capRaw%4) + 1
		if len(holds) > 40 {
			holds = holds[:40]
		}
		s := NewScheduler()
		sem := NewSemaphore("s", capN)
		held, over := 0, false
		for _, h := range holds {
			h := h
			s.Go("t", func(tk *Task) {
				tk.Sleep(time.Duration(h%7) * time.Millisecond)
				tk.Await(func(k Step) { sem.AcquireThen(tk, k) })
				held++
				if held > capN {
					over = true
				}
				tk.Sleep(time.Duration(h) * time.Millisecond)
				held--
				sem.Release()
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return !over && sem.Held() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGoFromTask(t *testing.T) {
	s := NewScheduler()
	var childRan bool
	s.Go("parent", func(tk *Task) {
		tk.Scheduler().Go("child", func(c *Task) {
			c.Sleep(time.Second)
			childRan = true
		})
		tk.Sleep(2 * time.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child task never ran")
	}
}

func TestDeadlockErrorNamesBlockedTasks(t *testing.T) {
	s := NewScheduler()
	q := NewWaitQueue("gate")
	s.Go("alice", func(tk *Task) { tk.Await(func(k Step) { q.WaitThen(tk, k) }) })
	s.Go("bob", func(tk *Task) { tk.Await(func(k Step) { q.WaitThen(tk, k) }) })
	err := s.Run()
	var dl *ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("Run returned %v, want *ErrDeadlock", err)
	}
	msg := dl.Error()
	for _, name := range []string{"alice", "bob", "2 task(s)"} {
		if !strings.Contains(msg, name) {
			t.Fatalf("deadlock message missing %q: %s", name, msg)
		}
	}
}

func TestSemaphoreAccessorsAndTimeouts(t *testing.T) {
	s := NewScheduler()
	m := NewSemaphore("gate", 1)
	if m.Name() != "gate" || m.Cap() != 1 {
		t.Fatalf("accessors: name %q cap %d", m.Name(), m.Cap())
	}
	var holderTimedOut, waiterAcquired, thenAcquired, thenTimedOut bool
	s.Go("holder", func(tk *Task) {
		if tk.Await(func(k Step) { m.AcquireTimeoutThen(tk, time.Second, k) }); tk.TimedOut() {
			holderTimedOut = true
			return
		}
		tk.Sleep(3 * time.Second)
		m.Release()
	})
	s.Go("waiter", func(tk *Task) {
		// Queued behind holder; the slot is handed over at t=3s, inside
		// the 5 s timeout.
		tk.Await(func(k Step) { m.AcquireTimeoutThen(tk, 5*time.Second, k) })
		waiterAcquired = !tk.TimedOut()
		if waiterAcquired {
			m.Release()
		}
	})
	s.Go("observer", func(tk *Task) {
		tk.Sleep(time.Second)
		if m.Waiting() != 1 {
			t.Errorf("Waiting = %d at t=1s, want 1", m.Waiting())
		}
	})
	s.Go("hopeless", func(tk *Task) {
		// Queued behind waiter with a timeout that fires first.
		m.AcquireTimeoutThen(tk, time.Millisecond, StepFunc(func(tk *Task) {
			thenTimedOut = tk.TimedOut()
		}))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if holderTimedOut || !waiterAcquired || !thenTimedOut {
		t.Fatalf("holderTimedOut=%v waiterAcquired=%v thenTimedOut=%v",
			holderTimedOut, waiterAcquired, thenTimedOut)
	}

	// AcquireTimeoutThen on a free semaphore runs synchronously.
	s2 := NewScheduler()
	m2 := NewSemaphore("free", 1)
	s2.Go("instant", func(tk *Task) {
		m2.AcquireTimeoutThen(tk, time.Second, StepFunc(func(tk *Task) {
			thenAcquired = !tk.TimedOut()
		}))
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if !thenAcquired {
		t.Fatal("AcquireTimeoutThen on a free semaphore timed out")
	}
}

func TestSemaphoreReleasePanicsUnheld(t *testing.T) {
	m := NewSemaphore("empty", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of an unheld semaphore did not panic")
		}
	}()
	m.Release()
}

func TestCPUSetDilationAndAccessors(t *testing.T) {
	s := NewScheduler()
	c := NewCPUSet(2, 50*time.Millisecond)
	if c.N() != 2 {
		t.Fatalf("N = %d", c.N())
	}
	c.SetDilation(func() float64 { return 2 })
	s.Go("worker", func(tk *Task) {
		tk.Await(func(k Step) { c.UseThen(tk, 100*time.Millisecond, k) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 100ms of useful work at 2x dilation occupies 200ms: 100ms stall.
	if c.StallTime() != 100*time.Millisecond {
		t.Fatalf("StallTime = %v, want 100ms", c.StallTime())
	}
	if c.BusyTime() != 200*time.Millisecond {
		t.Fatalf("BusyTime = %v, want 200ms", c.BusyTime())
	}
	// UseThen with non-positive d runs the continuation synchronously.
	var ran bool
	s = NewScheduler()
	s.Go("zero", func(tk *Task) {
		c.UseThen(tk, 0, StepFunc(func(*Task) { ran = true }))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("UseThen(0) did not run its continuation")
	}
}

func TestTaskAndQueueIdentity(t *testing.T) {
	s := NewScheduler()
	q := NewWaitQueue("diag")
	if q.Name() != "diag" {
		t.Fatalf("queue name %q", q.Name())
	}
	var id uint64
	tk := s.Go("ident", func(tk *Task) { id = tk.ID() })
	if tk.Name() != "ident" {
		t.Fatalf("task name %q", tk.Name())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if id == 0 || id != tk.ID() {
		t.Fatalf("task ID %d vs %d", id, tk.ID())
	}
}
