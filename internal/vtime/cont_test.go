package vtime

import (
	"runtime"
	"testing"
	"time"
)

// TestContinuationSleepChain drives a pure continuation task (no
// goroutine) through a SleepThen chain and checks the virtual
// timestamps it observes.
func TestContinuationSleepChain(t *testing.T) {
	s := NewScheduler()
	var wakes []time.Duration
	var step func(tk *Task)
	step = func(tk *Task) {
		wakes = append(wakes, tk.Now())
		if len(wakes) < 3 {
			tk.SleepThen(2*time.Second, StepFunc(step))
		}
		// Returning without arming a resume point exits the task.
	}
	s.GoFunc("chain", step)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 2 * time.Second, 4 * time.Second}
	if len(wakes) != len(want) {
		t.Fatalf("wakes = %v, want %v", wakes, want)
	}
	for i := range want {
		if wakes[i] != want[i] {
			t.Fatalf("wake %d at %v, want %v", i, wakes[i], want[i])
		}
	}
	if s.Live() != 0 {
		t.Fatalf("live = %d after Run", s.Live())
	}
}

// TestContinuationWaitSignal checks WaitThen wake order (FIFO) with a
// mix of continuation and blocking-style waiters on one queue.
func TestContinuationWaitSignal(t *testing.T) {
	s := NewScheduler()
	q := NewWaitQueue("q")
	var order []string
	s.GoFunc("c1", func(tk *Task) {
		q.WaitThen(tk, StepFunc(func(tk *Task) { order = append(order, "c1") }))
	})
	s.Go("g1", func(tk *Task) {
		tk.Await(func(k Step) { q.WaitThen(tk, k) })
		order = append(order, "g1")
	})
	s.GoFunc("c2", func(tk *Task) {
		q.WaitThen(tk, StepFunc(func(tk *Task) { order = append(order, "c2") }))
	})
	s.GoFunc("signaler", func(tk *Task) {
		tk.SleepThen(time.Second, StepFunc(func(tk *Task) {
			for i := 0; i < 3; i++ {
				if !q.Signal() {
					t.Errorf("Signal %d woke no one, want 3 waiters", i)
				}
			}
		}))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "c1" || order[1] != "g1" || order[2] != "c2" {
		t.Fatalf("wake order = %v, want [c1 g1 c2]", order)
	}
}

// TestContinuationWaitTimeout checks both outcomes of WaitTimeoutThen
// via Task.TimedOut, and that a timed-out waiter is unlinked from the
// queue without disturbing FIFO order of the others.
func TestContinuationWaitTimeout(t *testing.T) {
	s := NewScheduler()
	q := NewWaitQueue("q")
	var events []string
	s.GoFunc("early", func(tk *Task) {
		q.WaitTimeoutThen(tk, time.Second, StepFunc(func(tk *Task) {
			if tk.TimedOut() {
				events = append(events, "early-timeout")
			} else {
				events = append(events, "early-signaled")
			}
		}))
	})
	s.GoFunc("late", func(tk *Task) {
		q.WaitTimeoutThen(tk, time.Minute, StepFunc(func(tk *Task) {
			if tk.TimedOut() {
				events = append(events, "late-timeout")
			} else {
				events = append(events, "late-signaled")
			}
		}))
	})
	s.GoFunc("signaler", func(tk *Task) {
		tk.SleepThen(10*time.Second, StepFunc(func(tk *Task) {
			q.Signal()
		}))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0] != "early-timeout" || events[1] != "late-signaled" {
		t.Fatalf("events = %v, want [early-timeout late-signaled]", events)
	}
}

// TestContinuationDeadlockReport checks that continuation tasks blocked
// forever are named in the deadlock error exactly like goroutine tasks.
func TestContinuationDeadlockReport(t *testing.T) {
	s := NewScheduler()
	q := NewWaitQueue("q")
	s.GoFunc("cont-waiter", func(tk *Task) {
		q.WaitThen(tk, StepFunc(func(tk *Task) {}))
	})
	s.Go("goro-waiter", func(tk *Task) {
		tk.Await(func(k Step) { q.WaitThen(tk, k) })
	})
	err := s.Run()
	dl, ok := err.(*ErrDeadlock)
	if !ok {
		t.Fatalf("Run = %v, want *ErrDeadlock", err)
	}
	if len(dl.Blocked) != 2 || dl.Blocked[0] != "cont-waiter" || dl.Blocked[1] != "goro-waiter" {
		t.Fatalf("blocked = %v, want sorted [cont-waiter goro-waiter]", dl.Blocked)
	}
}

// TestContinuationYieldInterleave checks YieldThen lets another task run
// at the same virtual instant.
func TestContinuationYieldInterleave(t *testing.T) {
	s := NewScheduler()
	var order []string
	s.GoFunc("a", func(tk *Task) {
		order = append(order, "a1")
		tk.YieldThen(StepFunc(func(tk *Task) {
			order = append(order, "a2")
			if tk.Now() != 0 {
				t.Errorf("yield advanced the clock to %v", tk.Now())
			}
		}))
	})
	s.GoFunc("b", func(tk *Task) {
		order = append(order, "b")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a1" || order[1] != "b" || order[2] != "a2" {
		t.Fatalf("order = %v, want [a1 b a2]", order)
	}
}

// TestAwaitSyncAndParked exercises both Await paths from a
// blocking-style task: a composite op that completes synchronously and
// one that parks.
func TestAwaitSyncAndParked(t *testing.T) {
	s := NewScheduler()
	var afterSync, afterParked time.Duration
	s.Go("task", func(tk *Task) {
		// Synchronous completion: the op calls k inline, no round trip.
		tk.Await(func(k Step) { k.Run(tk) })
		afterSync = tk.Now()
		// Parked completion: the op arms a timer.
		tk.Await(func(k Step) { tk.SleepThen(3*time.Second, k) })
		afterParked = tk.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if afterSync != 0 {
		t.Fatalf("sync Await advanced clock to %v", afterSync)
	}
	if afterParked != 3*time.Second {
		t.Fatalf("parked Await resumed at %v, want 3s", afterParked)
	}
}

// TestSemaphoreAcquireThen checks the continuation acquire paths,
// including the slot handoff from Release.
func TestSemaphoreAcquireThen(t *testing.T) {
	s := NewScheduler()
	m := NewSemaphore("m", 1)
	var got []string
	s.GoFunc("holder", func(tk *Task) {
		m.AcquireThen(tk, StepFunc(func(tk *Task) {
			got = append(got, "holder")
			tk.SleepThen(5*time.Second, StepFunc(func(tk *Task) {
				m.Release()
			}))
		}))
	})
	s.GoFunc("waiter", func(tk *Task) {
		m.AcquireTimeoutThen(tk, time.Minute, StepFunc(func(tk *Task) {
			if tk.TimedOut() {
				t.Error("waiter timed out despite Release")
				return
			}
			got = append(got, "waiter")
			if tk.Now() != 5*time.Second {
				t.Errorf("waiter acquired at %v, want 5s", tk.Now())
			}
			m.Release()
		}))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "holder" || got[1] != "waiter" {
		t.Fatalf("order = %v, want [holder waiter]", got)
	}
	if m.Held() != 0 {
		t.Fatalf("held = %d after run", m.Held())
	}
}

// TestCPUSetUseThen checks that the continuation CPU op charges the same
// virtual time as an Await of it and respects quantum contention.
func TestCPUSetUseThen(t *testing.T) {
	s := NewScheduler()
	c := NewCPUSet(1, 100*time.Millisecond)
	var contDone, goroDone time.Duration
	s.GoFunc("cont", func(tk *Task) {
		c.UseThen(tk, 250*time.Millisecond, StepFunc(func(tk *Task) {
			contDone = tk.Now()
		}))
	})
	s.Go("goro", func(tk *Task) {
		tk.Await(func(k Step) { c.UseThen(tk, 250*time.Millisecond, k) })
		goroDone = tk.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// One processor, two 250ms demands in 100ms quanta: the tasks
	// interleave quantum by quantum, finishing at 450ms and 500ms.
	if contDone != 450*time.Millisecond {
		t.Fatalf("cont finished at %v, want 450ms", contDone)
	}
	if goroDone != 500*time.Millisecond {
		t.Fatalf("goro finished at %v, want 500ms", goroDone)
	}
	if c.BusyTime() != 500*time.Millisecond {
		t.Fatalf("busy = %v, want 500ms", c.BusyTime())
	}
}

// TestEventsCounter checks the dispatch counter feeding sim-events/sec.
func TestEventsCounter(t *testing.T) {
	s := NewScheduler()
	s.GoFunc("a", func(tk *Task) {
		tk.SleepThen(time.Second, StepFunc(func(tk *Task) {}))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Events() != 2 {
		t.Fatalf("Events = %d, want 2 (spawn dispatch + timer wake)", s.Events())
	}
}

// syncOp completes an Await's operation without parking; parkOp parks it
// for a second.
func syncOp(tk *Task) func(Step) { return func(k Step) { k.Run(tk) } }
func parkOp(tk *Task) func(Step) { return func(k Step) { tk.SleepThen(time.Second, k) } }

// TestAwaitNests pins Await's re-entrancy: the operation an Await starts
// may enter a blocking section that Awaits. Each case is an outer Await
// whose operation runs inner Awaits inside a Block and then completes the
// way outer says; the clock after the outer Await tells whether every
// level that had to park did.
func TestAwaitNests(t *testing.T) {
	cases := []struct {
		name  string
		inner []bool // one nested level per entry, outermost first: does it park?
		outer bool   // does the outer operation park after the nesting returns?
		want  time.Duration
	}{
		// The defect: the inner Await's synchronous completion used to leave
		// syncDone set, and the outer Await then returned without parking.
		{"inner sync, outer parks", []bool{false}, true, time.Second},
		{"inner parks, outer sync", []bool{true}, false, time.Second},
		{"inner parks, outer parks", []bool{true}, true, 2 * time.Second},
		{"three deep: sync inside park inside sync, outer parks", []bool{false, true, false}, true, 2 * time.Second},
		{"three deep: all park", []bool{true, true, true}, true, 4 * time.Second},
		{"three deep: all sync", []bool{false, false, false}, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler()
			var after time.Duration
			op := func(parks bool, tk *Task) func(Step) {
				if parks {
					return parkOp(tk)
				}
				return syncOp(tk)
			}
			// nest(i) is level i's operation: Block on a section that Awaits
			// level i+1, then complete as level i is told to.
			var nest func(i int, tk *Task, parks bool) func(Step)
			nest = func(i int, tk *Task, parks bool) func(Step) {
				if i == len(tc.inner) {
					return op(parks, tk)
				}
				return func(k Step) {
					tk.Block(StepFunc(func(tk *Task) {
						tk.Await(nest(i+1, tk, tc.inner[i]))
					}), StepFunc(func(tk *Task) { op(parks, tk)(k) }))
				}
			}
			s.Go("task", func(tk *Task) {
				tk.Await(nest(0, tk, tc.outer))
				after = tk.Now()
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if after != tc.want {
				t.Fatalf("outer Await returned at %v, want %v", after, tc.want)
			}
		})
	}
}

// TestBlockFromStep: a continuation task runs one blocking section on a
// coroutine it holds only for the section, continues on the event loop in
// the dispatch the section returned in, and gives the coroutine back for
// the next section to reuse.
func TestBlockFromStep(t *testing.T) {
	s := NewScheduler()
	var trace []string
	section := StepFunc(func(tk *Task) {
		tk.Sleep(time.Second)
		trace = append(trace, "section@"+tk.Now().String())
	})
	s.GoFunc("cont", func(tk *Task) {
		tk.Block(section, StepFunc(func(tk *Task) {
			trace = append(trace, "step@"+tk.Now().String())
			tk.SleepThen(time.Second, StepFunc(func(tk *Task) {
				tk.Block(section, StepFunc(func(tk *Task) {
					trace = append(trace, "done@"+tk.Now().String())
				}))
			}))
		}))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"section@1s", "step@1s", "section@3s", "done@3s"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	// Spawn, section wake, think wake, section wake: the section's return
	// and the step after it share the wake's dispatch.
	if s.Events() != 4 {
		t.Errorf("Events = %d, want 4", s.Events())
	}
	if s.Coroutines() != 1 {
		t.Errorf("Coroutines = %d, want 1 (the second section reuses the first's)", s.Coroutines())
	}
	if s.CoroSwitches() != 4 {
		t.Errorf("CoroSwitches = %d, want 4 (enter and resume, twice)", s.CoroSwitches())
	}
}

// TestBlockWhileParkedInAwait: a section entered from a step of an
// Await's operation — the task's own coroutine is parked in that Await —
// runs on a second coroutine, and the Await resumes on the first.
func TestBlockWhileParkedInAwait(t *testing.T) {
	s := NewScheduler()
	var inSection, afterAwait time.Duration
	s.Go("task", func(tk *Task) {
		tk.Await(func(k Step) {
			tk.SleepThen(time.Second, StepFunc(func(tk *Task) {
				tk.Block(StepFunc(func(tk *Task) {
					tk.Sleep(time.Second)
					inSection = tk.Now()
				}), k)
			}))
		})
		afterAwait = tk.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if inSection != 2*time.Second || afterAwait != 2*time.Second {
		t.Fatalf("section finished at %v, Await returned at %v, want 2s both", inSection, afterAwait)
	}
	if s.Coroutines() != 2 {
		t.Errorf("Coroutines = %d, want 2", s.Coroutines())
	}
}

// TestBlockingAPIOutsideSection: the blocking API panics on the event
// loop, also for a task whose coroutine is parked in an Await.
func TestBlockingAPIOutsideSection(t *testing.T) {
	cases := map[string]func(s *Scheduler, blocking func(*Task)){
		"from a step": func(s *Scheduler, blocking func(*Task)) {
			s.GoFunc("cont", blocking)
		},
		"from a step of an Await's operation": func(s *Scheduler, blocking func(*Task)) {
			s.Go("task", func(tk *Task) {
				tk.Await(func(k Step) { tk.SleepThen(time.Second, StepFunc(blocking)) })
			})
		},
	}
	calls := map[string]func(*Task){
		"Sleep": func(tk *Task) { tk.Sleep(time.Second) },
		"Await": func(tk *Task) { tk.Await(syncOp(tk)) },
	}
	for where, spawn := range cases {
		for what, blocking := range calls {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s did not panic", what, where)
					}
				}()
				s := NewScheduler()
				spawn(s, blocking)
				s.Run()
			}()
		}
	}
}

// TestRunKeepsNoIdleCoroutines: a parked coroutine is a goroutine the
// collector cannot reclaim, so Run ends the idle ones before it returns.
func TestRunKeepsNoIdleCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewScheduler()
	for i := 0; i < 50; i++ {
		s.Go("sleeper", func(tk *Task) { tk.Sleep(time.Second) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Coroutines() != 50 {
		t.Fatalf("Coroutines = %d, want 50", s.Coroutines())
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before Run, %d after", before, after)
	}
}

// TestAwaitErrAllocatesNothing: the error slot is the task's own.
func TestAwaitErrAllocatesNothing(t *testing.T) {
	s := NewScheduler()
	errOp := &ErrDeadlock{}
	s.Go("task", func(tk *Task) {
		call := func() {
			err := tk.AwaitErr(func(errp *error, k Step) {
				*errp = errOp
				k.Run(tk)
			})
			if err != errOp {
				t.Errorf("AwaitErr = %v, want the operation's error", err)
			}
		}
		if n := testing.AllocsPerRun(100, call); n != 0 {
			t.Errorf("AwaitErr allocates %v times, want 0", n)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
