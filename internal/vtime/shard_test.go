package vtime

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// shardJobFn is a tiny simulation: job i sleeps a duration derived from
// its index and returns the shard clock's final time.
func shardJobFn(i int, sched *Scheduler) (time.Duration, error) {
	d := time.Duration((i*7)%5+1) * time.Second
	sched.Go(fmt.Sprintf("job-%d", i), func(tk *Task) {
		tk.Sleep(d)
	})
	if err := sched.Run(); err != nil {
		return 0, err
	}
	return sched.Now(), nil
}

func TestShardsRunLedger(t *testing.T) {
	const n = 11
	sh := NewShards(3)
	defer sh.Close()
	if sh.K() != 3 {
		t.Fatalf("K = %d, want 3", sh.K())
	}
	ledger := sh.Run(n, shardJobFn)
	if len(ledger) != n {
		t.Fatalf("ledger length %d, want %d", len(ledger), n)
	}
	// The ledger is sorted by (deadline, shard, seq).
	if !sort.SliceIsSorted(ledger, func(a, b int) bool {
		la, lb := ledger[a], ledger[b]
		if la.Deadline != lb.Deadline {
			return la.Deadline < lb.Deadline
		}
		if la.Shard != lb.Shard {
			return la.Shard < lb.Shard
		}
		return la.Seq < lb.Seq
	}) {
		t.Fatalf("ledger not sorted by (deadline, shard, seq): %+v", ledger)
	}
	seen := make(map[int]bool)
	for _, c := range ledger {
		if c.Err != nil {
			t.Fatalf("job %d: %v", c.Job, c.Err)
		}
		// Placement is static: job i runs on shard i%K.
		if c.Shard != c.Job%3 {
			t.Fatalf("job %d ran on shard %d, want %d", c.Job, c.Shard, c.Job%3)
		}
		if c.Deadline != time.Duration((c.Job*7)%5+1)*time.Second {
			t.Fatalf("job %d deadline %v", c.Job, c.Deadline)
		}
		seen[c.Job] = true
	}
	if len(seen) != n {
		t.Fatalf("ledger covers %d distinct jobs, want %d", len(seen), n)
	}
}

func TestShardsDeadlineInvariantAcrossK(t *testing.T) {
	deadlines := func(k, n int) map[int]time.Duration {
		sh := NewShards(k)
		defer sh.Close()
		out := make(map[int]time.Duration, n)
		for _, c := range sh.Run(n, shardJobFn) {
			out[c.Job] = c.Deadline
		}
		return out
	}
	ref := deadlines(1, 9)
	for _, k := range []int{2, 4, 16} {
		if got := deadlines(k, 9); !reflect.DeepEqual(got, ref) {
			t.Fatalf("per-job deadlines at K=%d differ from K=1: %v vs %v", k, got, ref)
		}
	}
}

func TestShardsErrorAndPoisonedScheduler(t *testing.T) {
	sh := NewShards(1)
	defer sh.Close()
	boom := errors.New("boom")
	// Job 0 deadlocks its scheduler (a live task with nothing to wake
	// it) and returns an error, leaving the shard's scheduler non-idle.
	// Job 1 then runs on the same shard and must get a clean one.
	ledger := sh.Run(2, func(i int, sched *Scheduler) (time.Duration, error) {
		if i == 0 {
			q := NewWaitQueue("never")
			sched.Go("stuck", func(tk *Task) { tk.Await(func(k Step) { q.WaitThen(tk, k) }) })
			if err := sched.Run(); err == nil {
				return 0, errors.New("expected deadlock")
			}
			return 0, boom
		}
		return shardJobFn(i, sched)
	})
	var got [2]Completion
	for _, c := range ledger {
		got[c.Job] = c
	}
	if !errors.Is(got[0].Err, boom) {
		t.Fatalf("job 0 error = %v, want boom", got[0].Err)
	}
	if got[1].Err != nil {
		t.Fatalf("job 1 after a poisoned scheduler: %v", got[1].Err)
	}
	if want := time.Duration((1*7)%5+1) * time.Second; got[1].Deadline != want {
		t.Fatalf("job 1 deadline %v, want %v", got[1].Deadline, want)
	}
}

func TestShardsEmptyRunAndIdempotentClose(t *testing.T) {
	sh := NewShards(0) // 0 = GOMAXPROCS
	if sh.K() < 1 {
		t.Fatalf("K = %d", sh.K())
	}
	if got := sh.Run(0, shardJobFn); len(got) != 0 {
		t.Fatalf("empty run returned %d completions", len(got))
	}
	sh.Close()
	sh.Close() // must be a no-op
}

func TestIdleAndReset(t *testing.T) {
	s := NewScheduler()
	if !s.Idle() {
		t.Fatal("fresh scheduler not idle")
	}
	s.Go("sleeper", func(tk *Task) { tk.Sleep(time.Second) })
	if s.Idle() {
		t.Fatal("scheduler idle with a live task")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Idle() {
		t.Fatal("scheduler not idle after Run returned nil")
	}
	if s.Now() == 0 || s.Events() == 0 {
		t.Fatal("run left no trace to reset")
	}
	s.Reset()
	if s.Now() != 0 || s.Events() != 0 || !s.Idle() {
		t.Fatalf("Reset left now=%v events=%d idle=%v", s.Now(), s.Events(), s.Idle())
	}
	// A run on the reset scheduler behaves like one on a fresh scheduler.
	s.Go("again", func(tk *Task) { tk.Sleep(2 * time.Second) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("post-reset Now = %v", s.Now())
	}
}

func TestResetPanicsOnNonIdle(t *testing.T) {
	s := NewScheduler()
	q := NewWaitQueue("never")
	s.Go("stuck", func(tk *Task) { tk.Await(func(k Step) { q.WaitThen(tk, k) }) })
	if err := s.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset on a non-idle scheduler did not panic")
		}
	}()
	s.Reset()
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

func TestSemaphoreSetCapWakesWaiters(t *testing.T) {
	s := NewScheduler()
	m := NewSemaphore("pool", 0)
	var acquired int
	for i := 0; i < 2; i++ {
		s.Go(fmt.Sprintf("w%d", i), func(tk *Task) {
			tk.Await(func(k Step) { m.AcquireThen(tk, k) })
			acquired++
		})
	}
	s.Go("grower", func(tk *Task) {
		tk.Sleep(time.Second)
		m.SetCap(2)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if acquired != 2 || m.Held() != 2 {
		t.Fatalf("acquired=%d held=%d after SetCap growth", acquired, m.Held())
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
	s.Reset()
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
