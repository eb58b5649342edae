package vtime

import (
	"time"

	"compilegate/internal/freelist"
)

// Semaphore is a FIFO counting semaphore over virtual time. Release hands
// the slot directly to the longest waiter (no barging), which keeps
// admission strictly fair — the property the paper's gateways rely on.
type Semaphore struct {
	name string
	cap  int
	held int
	q    *WaitQueue
}

// NewSemaphore returns a semaphore with capacity cap.
func NewSemaphore(name string, cap int) *Semaphore {
	if cap < 0 {
		panic("vtime: negative semaphore capacity")
	}
	return &Semaphore{name: name, cap: cap, q: NewWaitQueue(name)}
}

// Name returns the semaphore's diagnostic name.
func (m *Semaphore) Name() string { return m.name }

// Cap returns the semaphore's capacity.
func (m *Semaphore) Cap() int { return m.cap }

// Held returns the number of currently held slots.
func (m *Semaphore) Held() int { return m.held }

// Waiting returns the number of tasks queued for a slot.
func (m *Semaphore) Waiting() int { return m.q.Len() }

// SetCap changes the capacity. Growing wakes as many waiters as new slots
// allow. Shrinking never revokes held slots; the semaphore drains down to
// the new capacity as holders release.
func (m *Semaphore) SetCap(newCap int) {
	if newCap < 0 {
		panic("vtime: negative semaphore capacity")
	}
	m.cap = newCap
	for m.held < m.cap && m.q.Len() > 0 {
		m.held++
		m.q.Signal()
	}
}

// TryAcquire acquires a slot without blocking and reports success.
// It fails if the semaphore is full or other tasks are already queued.
func (m *Semaphore) TryAcquire() bool {
	if m.held < m.cap && m.q.Len() == 0 {
		m.held++
		return true
	}
	return false
}

// AcquireThen acquires a slot, running k once it is held. The slot may
// be taken synchronously (k runs inline) or handed over by a Release.
func (m *Semaphore) AcquireThen(t *Task, k Step) {
	if m.TryAcquire() {
		k.Run(t)
		return
	}
	m.q.WaitThen(t, k)
}

// AcquireTimeoutThen acquires a slot or gives up after d, then runs k;
// k reads t.TimedOut() to distinguish the outcomes (false = acquired).
func (m *Semaphore) AcquireTimeoutThen(t *Task, d time.Duration, k Step) {
	if m.TryAcquire() {
		t.timedOut = false
		k.Run(t)
		return
	}
	m.q.WaitTimeoutThen(t, d, k)
}

// Release returns a slot. If tasks are waiting and capacity allows, the
// slot is handed to the longest waiter without decrementing held.
func (m *Semaphore) Release() {
	if m.held <= 0 {
		panic("vtime: Release of unheld semaphore " + m.name)
	}
	if m.held <= m.cap && m.q.Signal() {
		return // slot transferred to the woken waiter
	}
	m.held--
}

// CPUSet models a pool of processors with FCFS quantum scheduling: a task
// consuming CPU repeatedly claims a processor for one quantum. This
// approximates processor sharing closely enough for throughput modelling
// while keeping event counts low.
type CPUSet struct {
	sem      *Semaphore
	quantum  time.Duration
	busy     time.Duration // aggregate CPU time consumed
	dilation func() float64
	stall    time.Duration // extra occupancy charged by dilation

	ops freelist.List[cpuUseOp] // recycled continuation ops (single scheduler)
}

// NewCPUSet creates a CPU pool with n processors and the given scheduling
// quantum (e.g. 50ms).
func NewCPUSet(n int, quantum time.Duration) *CPUSet {
	if quantum <= 0 {
		panic("vtime: non-positive CPU quantum")
	}
	return &CPUSet{sem: NewSemaphore("cpu", n), quantum: quantum}
}

// N returns the number of processors.
func (c *CPUSet) N() int { return c.sem.Cap() }

// BusyTime returns the aggregate CPU time consumed so far across all
// processors.
func (c *CPUSet) BusyTime() time.Duration { return c.busy }

// SetDilation installs a time-dilation hook: every quantum of useful work
// occupies the processor for quantum*fn() of virtual time. The engine
// wires this to the memory budget's paging slowdown so a thrashing
// machine stretches every CPU-bound operation — the stall cycles a real
// processor spends waiting on hard page faults. fn is re-read each
// quantum, so the penalty tracks pressure as it develops. nil restores
// undilated execution.
func (c *CPUSet) SetDilation(fn func() float64) { c.dilation = fn }

// StallTime returns the aggregate extra occupancy charged by dilation.
func (c *CPUSet) StallTime() time.Duration { return c.stall }

// cpuUseOp is the continuation state machine behind UseThen: claim a
// processor, run one quantum, release, repeat.
type cpuUseOp struct {
	c      *CPUSet
	remain time.Duration
	q      time.Duration
	occupy time.Duration
	k      Step
	state  int8
}

const (
	cpuClaim int8 = iota
	cpuRun
	cpuDone
)

func (op *cpuUseOp) Run(t *Task) {
	c := op.c
	for {
		switch op.state {
		case cpuClaim:
			q := c.quantum
			if op.remain < q {
				q = op.remain
			}
			occupy := q
			if c.dilation != nil {
				if f := c.dilation(); f > 1 {
					occupy = time.Duration(float64(q) * f)
				}
			}
			op.q, op.occupy = q, occupy
			op.state = cpuRun
			if !c.sem.TryAcquire() {
				// FIFO wait; the slot is transferred by Release.
				c.sem.q.WaitThen(t, op)
				return
			}
		case cpuRun:
			op.state = cpuDone
			t.SleepThen(op.occupy, op)
			return
		case cpuDone:
			c.sem.Release()
			c.busy += op.occupy
			c.stall += op.occupy - op.q
			op.remain -= op.q
			if op.remain <= 0 {
				k := op.k
				op.k = nil
				c.ops.Put(op)
				k.Run(t)
				return
			}
			op.state = cpuClaim
		}
	}
}

// UseThen consumes d of CPU time on behalf of t, competing with other
// tasks for the processors, then runs k. The whole operation executes as
// continuation steps on the event loop.
func (c *CPUSet) UseThen(t *Task, d time.Duration, k Step) {
	if d <= 0 {
		k.Run(t)
		return
	}
	op := c.ops.Get()
	if op == nil {
		op = &cpuUseOp{c: c}
	}
	op.remain, op.k, op.state = d, k, cpuClaim
	op.Run(t)
}
