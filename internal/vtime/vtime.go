// Package vtime provides a deterministic virtual-time scheduler used to
// run the simulated DBMS.
//
// The scheduler is a single-goroutine event loop. All "concurrency" in
// the simulation is expressed as vtime tasks; exactly one task executes
// at any instant, so runs are fully deterministic: the same program
// produces the same interleaving and the same virtual timestamps on
// every run, regardless of GOMAXPROCS or host load.
//
// A task's resume point is an explicit continuation (a Step). Blocking
// operations — SleepThen, WaitQueue.WaitThen, Semaphore.AcquireThen —
// enqueue the continuation into the timer wheel or a wait queue and
// return; the event loop later invokes it with a plain function call.
// No goroutine parks and no channel operation happens per event.
//
// Timers live in a hierarchical timing wheel (wheel.go): arming and
// disarming are O(1) pointer splices with the links embedded in the Task,
// so the per-step codegen ramps, grant retries, and pager ticks of a
// dense run cost no allocation and no O(log n) heap maintenance. The
// wheel fires timers in exactly the (deadline, arming order) sequence
// the original binary heap used, so every digest derived from a run is
// bit-identical to the heap scheduler (pinned by the scenario
// golden-digest test and the wheel-vs-heap differential test).
//
// Code runs under a Scheduler in one of two ways, sharing one run queue and
// one timer wheel:
//
//   - A step (GoStep, and every *Then primitive's continuation) is a plain
//     call on the event-loop goroutine. A task made only of steps is a state
//     machine with no stack at all. Every task of a simulation run — engine,
//     clients, routers, fault injectors — is one.
//   - A blocking section (Task.Block; a Go task's whole body) is imperative
//     code — Sleep, Await, AwaitErr — run on a coroutine (iter.Pull) from the
//     scheduler's free list for as long as it lasts; the task then continues
//     with a step in the same dispatch. Only tests and host-side drivers use
//     sections, where straight-line code reads better. Await runs a whole
//     continuation-style operation with at most one round trip, and Awaits
//     nest: the operation an Await starts may itself enter a section.
//
// Tasks wait by sleeping or on a WaitQueue; when no task is runnable the
// scheduler advances the virtual clock to the next timer. Wall-clock time
// never matters: a five-hour benchmark window executes in however long the
// event processing takes.
package vtime

import (
	"iter"
	"sync/atomic"
	"time"
)

// Step is a task resume point: the unit of execution dispatched by the
// event loop. Implementations are usually small state-machine structs so
// re-arming a task costs no allocation; StepFunc adapts plain functions.
type Step interface {
	Run(*Task)
}

// StepFunc adapts a function to a Step.
type StepFunc func(*Task)

// Run invokes f.
func (f StepFunc) Run(t *Task) { f(t) }

// Scheduler owns the virtual clock, the run queue, and the timer wheel.
// Create one with NewScheduler, add tasks with Go or GoStep, and drive
// everything with Run.
type Scheduler struct {
	now time.Duration

	// runq is a ring buffer of runnable tasks (FIFO).
	runq  []*Task
	rhead int
	rlen  int

	wheel timerWheel

	live   int    // tasks started and not yet exited
	seq    uint64 // task-ID sequence (diagnostics only)
	events uint64 // dispatched events (sim-events/sec numerator)

	// Coroutines not inside a blocking section, linked through prev, and
	// the two diagnostic counters that say what stacks cost a run:
	// switches into a coroutine, and coroutines created.
	freeCoros *coro
	switches  uint64
	coros     uint64

	// queues holds every WaitQueue tasks of this scheduler have waited
	// on, so deadlock reports (diag.go) can name the blocked tasks; the
	// hot wait paths only pay a nil check for it.
	queues []*WaitQueue

	// Task slab: chunked arena the Tasks of a run are carved from.
	// Starting a task costs one allocation per taskChunkSize tasks
	// instead of one each, and Reset rewinds the whole slab for the next
	// run — the per-run arena freed (recycled) wholesale at run end.
	// Task records embed their timer and wait-queue links, so this one
	// slab is also the run's timer and wait-queue storage.
	tchunks [][]Task
	tcur    int
}

const taskChunkSize = 64

// NewScheduler returns a scheduler with the virtual clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now reports the current virtual time. It may be called from task
// context or, between Run invocations, from the host goroutine.
func (s *Scheduler) Now() time.Duration { return s.now }

// Live reports the number of tasks that have been started and not yet
// finished.
func (s *Scheduler) Live() int { return s.live }

// Events reports how many events (task dispatches) the scheduler has
// processed — the numerator of the sim-events/sec benchmark metric.
func (s *Scheduler) Events() uint64 { return s.events }

// CoroSwitches reports how many times the event loop switched into a
// coroutine, and Coroutines how many coroutines it created: what the
// run's blocking sections cost beyond its Events. Diagnostics, like
// Events.
func (s *Scheduler) CoroSwitches() uint64 { return s.switches }

// Coroutines: see CoroSwitches.
func (s *Scheduler) Coroutines() uint64 { return s.coros }

// Idle reports whether the scheduler holds no live tasks, no runnable
// tasks, and no armed timers — the state in which Reset is legal. A
// scheduler whose Run returned nil is idle; one abandoned after a
// deadlock is not.
func (s *Scheduler) Idle() bool {
	return s.live == 0 && s.rlen == 0 && s.wheel.count == 0
}

// Reset restores an idle scheduler to the observable state NewScheduler
// returns — clock at zero, zero task sequence, zero event count, no
// registered queues — while retaining the run queue ring, timer-wheel
// geometry, and task-slab chunks. A run on a Reset scheduler is
// bit-identical to a run on a fresh one (pinned by the scenario
// arena-reuse test), which is what lets a sweep shard reuse one
// scheduler across its whole job stream. Reset panics if the scheduler
// is not Idle: task records of an abandoned (deadlocked) run may still
// be referenced by parked coroutines and must not be recycled.
func (s *Scheduler) Reset() {
	if !s.Idle() {
		panic("vtime: Reset on a non-idle scheduler")
	}
	s.now = 0
	s.seq = 0
	s.events = 0
	s.switches = 0
	s.coros = 0
	s.queues = s.queues[:0]
	s.wheel.cur = 0
	for i := range s.tchunks {
		s.tchunks[i] = s.tchunks[i][:0]
	}
	s.tcur = 0
}

// newTask carves a pointer-stable Task slot out of the slab. Slots are
// stale when reused after Reset; the caller initializes every field.
func (s *Scheduler) newTask() *Task {
	for {
		if s.tcur == len(s.tchunks) {
			s.tchunks = append(s.tchunks, make([]Task, 0, taskChunkSize))
		}
		c := s.tchunks[s.tcur]
		if len(c) == cap(c) {
			s.tcur++
			continue
		}
		c = c[:len(c)+1]
		s.tchunks[s.tcur] = c
		return &c[len(c)-1]
	}
}

// --- run queue ---

func (s *Scheduler) pushRunq(t *Task) {
	if s.rlen == len(s.runq) {
		s.growRunq()
	}
	s.runq[(s.rhead+s.rlen)&(len(s.runq)-1)] = t
	s.rlen++
}

func (s *Scheduler) popRunq() *Task {
	t := s.runq[s.rhead]
	s.runq[s.rhead] = nil
	s.rhead = (s.rhead + 1) & (len(s.runq) - 1)
	s.rlen--
	return t
}

func (s *Scheduler) growRunq() {
	n := len(s.runq) * 2
	if n == 0 {
		n = 64
	}
	nb := make([]*Task, n)
	for i := 0; i < s.rlen; i++ {
		nb[i] = s.runq[(s.rhead+i)&(len(s.runq)-1)]
	}
	s.runq = nb
	s.rhead = 0
}

// Go creates a task named name whose body fn is one blocking section: fn
// may use the imperative API (Sleep, Await, AwaitErr). The name is used
// only for diagnostics (deadlock reports). Go may be called from the
// host goroutine before Run, or from a running task.
func (s *Scheduler) Go(name string, fn func(*Task)) *Task {
	return s.GoStep(name, goBody(fn))
}

// goBody is a Go task's only step: run the body as a blocking section
// and, when it returns, arm nothing — the task exits.
type goBody func(*Task)

func (fn goBody) Run(t *Task) { t.Block(StepFunc(fn), exitStep{}) }

type exitStep struct{}

func (exitStep) Run(*Task) {}

// GoStep starts a continuation task: k runs when the task is first
// scheduled, and the task exits when a step returns without arming a new
// resume point (SleepThen, YieldThen, WaitThen, ...). A continuation task
// has no stack; it may call the blocking API only inside a Block section.
func (s *Scheduler) GoStep(name string, k Step) *Task {
	s.seq++
	t := s.newTask()
	*t = Task{s: s, name: name, id: s.seq, wlevel: -1}
	s.live++
	t.k = k
	s.pushRunq(t)
	return t
}

// GoFunc is GoStep for a plain function initial step.
func (s *Scheduler) GoFunc(name string, f func(*Task)) *Task {
	return s.GoStep(name, StepFunc(f))
}

var running atomic.Int32

// Running reports how many schedulers of this process are inside Run — the
// host cores simulations use right now. It depends on host timing: nothing
// simulated may read it (the optimizer's kernel helper stands down by it).
func Running() int { return int(running.Load()) }

// Run executes tasks until every task has exited. It returns an
// *ErrDeadlock if tasks remain blocked with no pending timer. Run must
// be called from the host goroutine (not from a task).
func (s *Scheduler) Run() error {
	running.Add(1)
	defer running.Add(-1)
	for {
		if s.rlen == 0 {
			if s.wheel.count == 0 {
				s.dropCoros()
				if s.live == 0 {
					return nil
				}
				return s.deadlock()
			}
			s.fireDue()
		}
		t := s.popRunq()
		s.events++
		k := t.k
		t.k = nil
		// De-virtualized dispatch: the overwhelmingly common resume
		// points — CPU-quantum ops, plain functions — take a direct
		// (inlinable) call instead of an interface call. Everything else
		// (the engine's composite compile/exec/grant ops, which amortize
		// many events per arm) dispatches virtually.
		switch kk := k.(type) {
		case *cpuUseOp:
			kk.Run(t)
		case StepFunc:
			kk(t)
		default:
			k.Run(t)
		}
		if t.k == nil {
			// The step returned without arming a new resume point: the
			// task is done.
			s.live--
		}
	}
}

// fireDue advances the virtual clock to the earliest pending deadline
// and makes every timer due at that exact instant runnable, in arming
// order — the same (deadline, sequence) order the old binary heap
// dispatched. The candidates all live in one level-0 bucket (a bucket
// spans a single tick), so a short list scan finds the sub-tick minimum
// and collects its cohort.
func (s *Scheduler) fireDue() {
	w := &s.wheel
	b := w.findMinBucket()
	min := b.head.wakeAt
	for t := b.head.wnext; t != nil; t = t.wnext {
		if t.wakeAt < min {
			min = t.wakeAt
		}
	}
	s.now = min
	w.cur = uint64(min) >> tickShift
	for t := b.head; t != nil; {
		next := t.wnext
		if t.wakeAt == min {
			w.remove(t)
			if t.queue != nil {
				// Waiting with timeout: the timeout fired first.
				t.queue.removeWaiter(t)
				t.queue = nil
				t.timedOut = true
			}
			s.pushRunq(t)
		}
		t = next
	}
}

// Task is a cooperative thread of execution under a Scheduler. All Task
// methods must be called from the task's own context.
//
// Field order is deliberate: the state the event loop touches on every
// dispatch, sleep, and wake — the resume point, scheduler, deadline,
// wait-queue membership, and flags — packs into the first cache line;
// the wheel links follow immediately (touched on arm/disarm), and the
// cold diagnostics trail at the end.
type Task struct {
	// k is the pending resume point, invoked when the task is next
	// dispatched from the run queue.
	k Step
	s *Scheduler

	// Embedded timer: a task has at most one pending timer, so the wheel
	// entry lives inline (no allocation per sleep). wlevel is -1 when
	// the task is not armed.
	wakeAt time.Duration

	// Wait-queue membership (intrusive FIFO list).
	queue        *WaitQueue
	qprev, qnext *Task

	wlevel, wslot int8
	onCoro        bool // currently executing inside co
	syncDone      bool // the innermost Await's operation completed without parking
	timedOut      bool

	// co is the coroutine of the task's innermost open blocking section,
	// nil outside one.
	co *coro

	// Wheel bucket links (intrusive doubly-linked FIFO).
	wprev, wnext *Task

	// err is AwaitErr's result slot.
	err error

	// Diagnostics only.
	id   uint64
	name string
}

// Name returns the diagnostic name the task was created with.
func (t *Task) Name() string { return t.name }

// ID returns the task's unique creation sequence number.
func (t *Task) ID() uint64 { return t.id }

// Now reports the current virtual time.
func (t *Task) Now() time.Duration { return t.s.now }

// Scheduler returns the scheduler this task belongs to.
func (t *Task) Scheduler() *Scheduler { return t.s }

// TimedOut reports whether the task's last timed wait ended by timeout
// rather than by a signal. Continuation steps resumed from
// WaitTimeoutThen / AcquireTimeoutThen consult it.
func (t *Task) TimedOut() bool { return t.timedOut }

// --- blocking sections ---

// coro is one pooled coroutine: idle on the scheduler's free list, or
// running (or parked inside) the blocking section body of task t.
type coro struct {
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool

	t    *Task
	body Step // the section; nil once it has returned
	k    Step // what t continues with after the section
	// prev is the coroutine t was parked on when this section began (a
	// section entered from a step of an Await's operation), or the next
	// free coroutine while this one is idle.
	prev *coro
}

// getCoro returns an idle coroutine, creating one when the free list is
// empty. A new coroutine is primed up to its first yield, where it waits
// for a section.
func (s *Scheduler) getCoro() *coro {
	if co := s.freeCoros; co != nil {
		s.freeCoros = co.prev
		return co
	}
	co := &coro{}
	co.resume, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		for yield(struct{}{}) {
			co.body.Run(co.t)
			co.body = nil
		}
	})
	co.resume()
	s.coros++
	return co
}

// dropCoros ends the idle coroutines. A parked coroutine is a goroutine
// the garbage collector cannot reclaim, so a scheduler keeps none past
// the end of Run; the next Run creates what it needs.
func (s *Scheduler) dropCoros() {
	for co := s.freeCoros; co != nil; co = co.prev {
		co.stop()
	}
	s.freeCoros = nil
}

// Block runs body — blocking-style code: Sleep, Await, AwaitErr — as one
// blocking section of the task, then continues with k. Called from a
// step, it takes a coroutine for exactly as long as body runs, and k runs
// on the event loop in the dispatch in which body returned. Called from
// inside a blocking section, it is body.Run(t) followed by k.Run(t).
func (t *Task) Block(body, k Step) {
	if t.onCoro {
		body.Run(t)
		k.Run(t)
		return
	}
	co := t.s.getCoro()
	co.t, co.body, co.k, co.prev = t, body, k, t.co
	t.co = co
	t.switchIn()
}

// switchIn runs the task's innermost blocking section until it parks or
// returns; a section that returned gives its coroutine back and the task
// continues with the section's k.
func (t *Task) switchIn() {
	s, co := t.s, t.co
	s.switches++
	t.onCoro = true
	co.resume()
	t.onCoro = false
	if co.body != nil {
		return
	}
	k := co.k
	t.co = co.prev
	co.t, co.k, co.prev = nil, nil, s.freeCoros
	s.freeCoros = co
	k.Run(t)
}

// coroResumeStep switches control back into the task's blocking section.
// As the final continuation of an Await chain it also marks synchronous
// completion when the chain never parked.
type coroResumeStep struct{}

func (coroResumeStep) Run(t *Task) {
	if t.onCoro {
		// The Await chain completed while still executing inside the
		// coroutine: no switch needed.
		t.syncDone = true
		return
	}
	t.switchIn()
}

var coroResume Step = coroResumeStep{}

// park suspends the blocking section until the task's pending
// continuation (which must be coroResume, or a chain ending in it) runs.
func (t *Task) park() {
	if !t.onCoro {
		panic("vtime: blocking wait outside a blocking section of task " + t.name)
	}
	// yield reports false only after the coroutine is stopped, which the
	// scheduler does to idle coroutines alone: those of forever-blocked
	// tasks are abandoned in place when Run returns ErrDeadlock, exactly as
	// the channel-based scheduler abandoned its parked goroutines. The
	// guard keeps that invariant loud instead of silently running task
	// code after a teardown.
	if !t.co.yield(struct{}{}) {
		panic("vtime: task " + t.name + " resumed after scheduler teardown")
	}
}

// Await runs a continuation-style composite operation from a blocking
// section with at most one coroutine round trip: start must arrange —
// via the *Then primitives — for the provided Step to eventually run;
// that Step resumes this call. If the operation completes without ever
// parking, Await returns without touching the scheduler. The operation
// may itself Block and Await: syncDone is true only between an
// operation's synchronous completion and its own Await's return, so an
// inner Await that completed synchronously does not excuse the outer one
// from parking.
func (t *Task) Await(start func(k Step)) {
	if !t.onCoro {
		panic("vtime: Await outside a blocking section of task " + t.name)
	}
	start(coroResume)
	if t.syncDone {
		t.syncDone = false
		return
	}
	t.park()
}

// AwaitErr is Await for an operation that reports an error through a
// pointer. The slot it hands start is the task's own, so the call
// allocates nothing; the operation must store through it only as it
// completes (a nested AwaitErr uses the same slot in between).
func (t *Task) AwaitErr(start func(errp *error, k Step)) error {
	t.Await(func(k Step) { start(&t.err, k) })
	err := t.err
	t.err = nil
	return err
}

// --- continuation primitives ---

// YieldThen reschedules the task at the back of the run queue with
// resume point k, letting other runnable tasks execute at the same
// virtual instant.
func (t *Task) YieldThen(k Step) {
	t.k = k
	t.s.pushRunq(t)
}

// SleepThen blocks the task for d of virtual time, then runs k.
// Non-positive d yields.
func (t *Task) SleepThen(d time.Duration, k Step) {
	if d <= 0 {
		t.YieldThen(k)
		return
	}
	t.k = k
	t.s.addTimer(t, t.s.now+d)
}

// Sleep blocks the task's blocking section for d of virtual time.
// Non-positive d yields.
func (t *Task) Sleep(d time.Duration) {
	t.SleepThen(d, coroResume)
	t.park()
}

// --- timers ---

// addTimer arms t's embedded timer for the absolute instant at. Ties at
// the same instant fire in arming order (the wheel's bucket FIFO), which
// is exactly the (deadline, sequence) order of the old timer heap.
func (s *Scheduler) addTimer(t *Task, at time.Duration) {
	t.wakeAt = at
	s.wheel.add(t)
}

func (s *Scheduler) cancelTimer(t *Task) {
	if t.wlevel >= 0 {
		s.wheel.remove(t)
	}
}

// WaitQueue is a FIFO condition queue. Tasks wait on it with WaitThen or
// WaitTimeoutThen; other tasks wake them with Signal or Broadcast. Membership is an
// intrusive doubly-linked list, so timeout removal is O(1) while wake
// order stays strictly FIFO. A WaitQueue must only be used by tasks of a
// single scheduler.
type WaitQueue struct {
	name       string
	sched      *Scheduler // set on first wait, for deadlock reports
	head, tail *Task
	n          int
}

// NewWaitQueue returns an empty wait queue; name is used in diagnostics.
func NewWaitQueue(name string) *WaitQueue { return &WaitQueue{name: name} }

// Name returns the queue's diagnostic name.
func (q *WaitQueue) Name() string { return q.name }

// Len reports the number of tasks currently waiting.
func (q *WaitQueue) Len() int { return q.n }

func (q *WaitQueue) pushWaiter(t *Task) {
	if q.sched == nil {
		t.s.registerQueue(q)
	}
	t.qprev = q.tail
	t.qnext = nil
	if q.tail != nil {
		q.tail.qnext = t
	} else {
		q.head = t
	}
	q.tail = t
	q.n++
}

func (q *WaitQueue) removeWaiter(t *Task) {
	if t.qprev != nil {
		t.qprev.qnext = t.qnext
	} else {
		q.head = t.qnext
	}
	if t.qnext != nil {
		t.qnext.qprev = t.qprev
	} else {
		q.tail = t.qprev
	}
	t.qprev, t.qnext = nil, nil
	q.n--
}

// WaitThen blocks t until another task calls Signal or Broadcast, then
// runs k.
func (q *WaitQueue) WaitThen(t *Task, k Step) {
	t.k = k
	t.queue = q
	q.pushWaiter(t)
}

// WaitTimeoutThen blocks t until signaled or until d of virtual time has
// elapsed, then runs k; k distinguishes the outcomes via t.TimedOut().
// Non-positive d runs k synchronously with the timeout outcome.
func (q *WaitQueue) WaitTimeoutThen(t *Task, d time.Duration, k Step) {
	if d <= 0 {
		t.timedOut = true
		k.Run(t)
		return
	}
	t.timedOut = false
	t.k = k
	t.queue = q
	q.pushWaiter(t)
	t.s.addTimer(t, t.s.now+d)
}

// Signal wakes the longest-waiting task, if any, and reports whether a
// task was woken. It must be called from a running task.
func (q *WaitQueue) Signal() bool {
	t := q.head
	if t == nil {
		return false
	}
	q.removeWaiter(t)
	t.queue = nil
	t.s.cancelTimer(t)
	t.s.pushRunq(t)
	return true
}

// Broadcast wakes every waiting task and returns how many were woken.
func (q *WaitQueue) Broadcast() int {
	n := 0
	for q.Signal() {
		n++
	}
	return n
}
