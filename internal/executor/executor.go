// Package executor runs physical plans in virtual time: scans pull
// extents through the buffer pool, joins and aggregates burn CPU on the
// shared processor pool, and each query holds an execution memory grant
// (its hash-table workspace) for the duration of the run — the same
// reserve-up-front discipline SQL Server uses for query execution memory.
package executor

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"compilegate/internal/bufferpool"
	"compilegate/internal/catalog"
	"compilegate/internal/errclass"
	"compilegate/internal/freelist"
	"compilegate/internal/mem"
	"compilegate/internal/plan"
	"compilegate/internal/storage"
	"compilegate/internal/vtime"
)

// ErrGrantTimeout is returned when a query cannot obtain its execution
// memory grant within the configured timeout.
type ErrGrantTimeout struct {
	Bytes int64
	Wait  time.Duration
}

func (e *ErrGrantTimeout) Error() string {
	return fmt.Sprintf("executor: timed out after %v waiting for %s execution grant",
		e.Wait, mem.FormatBytes(e.Bytes))
}

// Is classifies a grant timeout as an expired resource wait (the work
// was admitted; the memory never arrived), not shed work.
func (e *ErrGrantTimeout) Is(target error) bool { return target == errclass.Timeout }

// The executor's fixed tuning.
const (
	// grantTimeout bounds the wait for execution memory.
	grantTimeout = 10 * time.Minute
	// costUnitCPU converts one cost-model unit (plan.CPURowCost etc.) into
	// virtual CPU time.
	costUnitCPU = time.Second
	// readBatch is how many extents are requested per buffer-pool call.
	readBatch = 32
	// refaultExtentTime is the nominal disk time per refaulted workspace
	// extent when the machine is thrashing — one disk round-trip: an
	// overcommitted machine pages parts of each query's granted workspace
	// out and back in, costing (slowdown-1) * grant-extents of extra
	// transfers. The transfers ride the same dilated disk channels as every
	// other I/O, so the effective cost is superlinear in the slowdown —
	// deliberately: refault traffic on a thrashing machine is itself slowed
	// by the thrash. It stays off until SetPressure installs a slowdown
	// source.
	refaultExtentTime = 200 * time.Millisecond
)

// scanPattern shapes scan locality.
var scanPattern = storage.DefaultPattern()

// GrantManager queues execution memory grants against a tracker, FIFO
// with timeout — the RESOURCE_SEMAPHORE analogue.
type GrantManager struct {
	tracker *mem.Tracker
	queue   *vtime.WaitQueue

	timeouts uint64

	ops freelist.List[grantOp] // recycled continuation ops (single scheduler)
}

// NewGrantManager creates a grant manager. tracker should carry a limit
// (SetLimit) bounding total concurrent execution memory.
func NewGrantManager(tracker *mem.Tracker) *GrantManager {
	return &GrantManager{
		tracker: tracker,
		queue:   vtime.NewWaitQueue("exec-grants"),
	}
}

// Tracker returns the underlying tracker.
func (gm *GrantManager) Tracker() *mem.Tracker { return gm.tracker }

// Timeouts returns the number of grant waits that timed out.
func (gm *GrantManager) Timeouts() uint64 { return gm.timeouts }

// Waiting returns the number of queued requests.
func (gm *GrantManager) Waiting() int { return gm.queue.Len() }

// grantOp is the continuation state machine behind AcquireThen: wait FIFO
// with timeout, retrying the reservation on every wake.
type grantOp struct {
	gm              *GrantManager
	want            int64
	start, deadline time.Duration
	errp            *error
	k               vtime.Step
	state           int8
}

const (
	gwWait int8 = iota // queue (or time out) for another retry
	gwWoke             // signaled or timed out: retry the reservation
)

func (op *grantOp) Run(t *vtime.Task) {
	gm := op.gm
	for {
		switch op.state {
		case gwWait:
			remain := op.deadline - t.Now()
			if remain <= 0 {
				op.fail(t)
				return
			}
			op.state = gwWoke
			gm.queue.WaitTimeoutThen(t, remain, op)
			return
		case gwWoke:
			if t.TimedOut() {
				op.fail(t)
				return
			}
			if err := gm.tracker.Reserve(op.want); err == nil {
				// Let the next waiter retry too: memory may remain.
				gm.queue.Signal()
				op.finish(t, nil)
				return
			}
			op.state = gwWait
		}
	}
}

func (op *grantOp) fail(t *vtime.Task) {
	gm := op.gm
	gm.timeouts++
	op.finish(t, &ErrGrantTimeout{Bytes: op.want, Wait: t.Now() - op.start})
}

func (op *grantOp) finish(t *vtime.Task, err error) {
	*op.errp = err
	k := op.k
	op.k, op.errp = nil, nil
	op.gm.ops.Put(op)
	k.Run(t)
}

// AcquireThen reserves want bytes of execution memory for task t as
// continuation steps, queueing FIFO behind earlier requests when memory is
// unavailable, then runs k with the outcome stored through errp: nil when
// all want bytes are held, an *ErrGrantTimeout when none are.
func (gm *GrantManager) AcquireThen(t *vtime.Task, want int64, errp *error, k vtime.Step) {
	*errp = nil
	if want <= 0 {
		k.Run(t)
		return
	}
	start := t.Now()
	// FIFO: newcomers queue behind existing waiters even if their (small)
	// request would fit, preventing starvation of big grants.
	if gm.queue.Len() == 0 {
		if err := gm.tracker.Reserve(want); err == nil {
			k.Run(t)
			return
		}
	}
	op := gm.ops.Get()
	if op == nil {
		op = &grantOp{gm: gm}
	}
	op.want, op.start, op.deadline = want, start, start+grantTimeout
	op.errp, op.k, op.state = errp, k, gwWait
	op.Run(t)
}

// Release returns a grant and wakes the longest waiter to retry.
func (gm *GrantManager) Release(bytes int64) {
	if bytes <= 0 {
		return
	}
	gm.tracker.Release(bytes)
	gm.queue.Signal()
}

// Kick wakes the longest waiter to retry its reservation. The engine's
// housekeeping calls this when memory is released outside the grant path
// (e.g. a compilation finished), so queued grants notice promptly.
func (gm *GrantManager) Kick() {
	gm.queue.Signal()
}

// Executor runs plans.
type Executor struct {
	pool   *bufferpool.Pool
	layout *storage.Layout
	cpu    *vtime.CPUSet
	grants *GrantManager

	// pressure reports the machine's current paging slowdown (nil or
	// func returning <= 1 when healthy); drives workspace refaults.
	pressure func() float64

	executed, replayed uint64
	pageStallTotal     time.Duration

	execs freelist.List[execOp] // recycled continuation ops (single scheduler)
}

// New creates an executor.
func New(pool *bufferpool.Pool, layout *storage.Layout, cpu *vtime.CPUSet, grants *GrantManager) *Executor {
	return &Executor{pool: pool, layout: layout, cpu: cpu, grants: grants}
}

// SetPressure installs the paging-slowdown source (the engine wires the
// memory budget's Slowdown). A factor above 1 makes executions refault
// part of their granted workspace; see refaultExtentTime.
func (e *Executor) SetPressure(fn func() float64) { e.pressure = fn }

// Executed returns the number of completed executions.
func (e *Executor) Executed() uint64 { return e.executed }

// Replayed returns the number of executions that were handed recorded scan
// lists and so drew nothing.
func (e *Executor) Replayed() uint64 { return e.replayed }

// PageStallTotal returns aggregate workspace-refault disk time charged
// across all executions.
func (e *Executor) PageStallTotal() time.Duration { return e.pageStallTotal }

// Grants exposes the grant manager.
func (e *Executor) Grants() *GrantManager { return e.grants }

// table returns the catalog entry scan node n reads: the one the optimizer
// resolved, or for a hand-built plan the one its name resolves to.
func (e *Executor) table(n *plan.Node) *catalog.Table {
	if n.Tab != nil {
		return n.Tab
	}
	return e.layout.Table(n.Table)
}

// Prepared is a plan's scan lists kept between executions: the extent list
// of every scan node, in execution order, exactly as the plan's seed draws
// them. The seed is a function of the statement fingerprint, so on one
// executor a plan's lists are a constant: the first execution handed an
// empty Prepared that visits every scan records them, and every later one
// replays them with no PRNG at all. The zero value is empty. It belongs to
// a statement of the closed set on one server, whose text compiles to the
// same plan every time, and is never dropped; once recorded it is never
// written again.
type Prepared struct {
	keys []storage.ExtentKey // every scan's list, concatenated
	ends []int               // ends[i]: where scan i's list ends in keys
}

// Scans returns how many scan lists are recorded: the plan's scan count,
// or 0 while nothing is (every plan has at least one scan).
func (pr *Prepared) Scans() int { return len(pr.ends) }

// step is what an execution needs of one plan node, copied from the plan
// when the execution starts: a scan's table (nil for any other node) and
// the fraction of its extents touched, and the node's CPU in cost units.
type step struct {
	tab         *catalog.Table
	frac, units float64
}

// execOp is the continuation state machine behind ExecuteThen: acquire
// the grant, run the plan's nodes (children first — build before probe,
// matching hash-join scheduling; the tree is flattened into exactly the
// old recursion's visit order), pay refault I/O, release. It runs from its
// copy of the plan's nodes, so it never reads the plan after ExecuteThen.
// Its scan-key and step scratch buffers and its locality source are
// retained across uses.
type execOp struct {
	e    *Executor
	seed int64
	prep *Prepared
	errp *error // receives the outcome before k runs
	k    vtime.Step
	err  error

	// rng is reseeded from seed at the first scan that draws; an
	// execution that replays (or never reaches a scan) never pays the
	// seeding.
	rng    *rand.Rand
	seeded bool
	// replay is fixed when the execution starts: prep was recorded by
	// then. Otherwise, with a prep, scans draw straight into recKeys,
	// which becomes prep's list if this execution is the first to finish
	// its scans. keys, the scratch buffer of one-shot executions, never
	// holds a list that outlives the execution.
	replay  bool
	si      int // next scan's index into prep.ends when replaying
	recKeys []storage.ExtentKey
	recEnds []int

	granted int64
	steps   []step
	ni      int
	keys    []storage.ExtentKey
	scan    []storage.ExtentKey // the current scan's extents
	bi      int                 // the next read batch's start in scan
	state   int8
}

const (
	exGranted int8 = iota // grant outcome known
	exNode                // run the next node
	exBatch               // issue the next read batch of the current scan
	exNodeCPU             // current node's CPU charge finished
	exRefault             // pay workspace refault I/O under thrash
	exFinish              // account and release
)

func (op *execOp) Run(t *vtime.Task) {
	e := op.e
	for {
		switch op.state {
		case exGranted:
			if op.err != nil {
				// No grant was taken; nothing to release.
				op.finish(t)
				return
			}
			op.ni = 0
			op.state = exNode
			if !op.replay {
				op.sizeScratch()
			}
		case exNode:
			if op.ni >= len(op.steps) {
				op.install()
				op.state = exRefault
				continue
			}
			if s := &op.steps[op.ni]; s.tab != nil {
				op.scan = op.scanExtents(s)
				op.bi = 0
				op.state = exBatch
			} else if op.useCPU(t, s.units) {
				return
			}
		case exBatch:
			if op.bi >= len(op.scan) {
				if op.useCPU(t, op.steps[op.ni].units) {
					return
				}
				continue
			}
			// The pool reads the batch's keys before the call returns, so the
			// next batch's start can move first; Run resumes at exBatch.
			i := op.bi
			op.bi = min(i+readBatch, len(op.scan))
			e.pool.ReadManyThen(t, op.scan[i:op.bi], op)
			return
		case exNodeCPU:
			op.ni++
			op.state = exNode
		case exRefault:
			op.state = exFinish
			// On a thrashing machine part of the granted workspace was
			// paged out mid-run and must fault back in: (slowdown-1) extra
			// transfers per workspace extent, against the same disk
			// channels.
			if e.pressure != nil && op.granted > 0 {
				if f := e.pressure(); f > 1 {
					extents := (op.granted + e.pool.ExtentBytes() - 1) / e.pool.ExtentBytes()
					stall := time.Duration((f - 1) * float64(extents) * float64(refaultExtentTime))
					e.pageStallTotal += stall
					e.pool.DiskDelayThen(t, stall, op)
					return
				}
			}
		case exFinish:
			e.executed++
			e.grants.Release(op.granted)
			op.finish(t)
			return
		}
	}
}

// useCPU charges the node's CPU units; it reports whether the op parked
// (true = return from Run, resume at exNodeCPU).
func (op *execOp) useCPU(t *vtime.Task, units float64) bool {
	d := time.Duration(units * float64(costUnitCPU))
	if d <= 0 {
		op.ni++
		op.state = exNode
		return false
	}
	op.state = exNodeCPU
	op.e.cpu.UseThen(t, d, op)
	return true
}

// scanExtents returns the extents scan s touches: replayed from the
// recorded lists, or drawn from the seeded source — into the recording
// when the execution has an empty Prepared, else into the op's scratch
// buffer.
func (op *execOp) scanExtents(s *step) []storage.ExtentKey {
	if op.replay {
		lo := 0
		if op.si > 0 {
			lo = op.prep.ends[op.si-1]
		}
		hi := op.prep.ends[op.si]
		op.si++
		return op.prep.keys[lo:hi:hi]
	}
	if !op.seeded {
		// Reseeding in place reproduces exactly the stream a new source
		// would.
		if op.rng == nil {
			op.rng = vtime.NewRand(op.seed)
		} else {
			op.rng.Seed(op.seed)
		}
		op.seeded = true
	}
	e := op.e
	if op.prep == nil {
		op.keys = e.layout.ScanInto(op.keys[:0], s.tab, s.frac, scanPattern, op.rng)
		return op.keys
	}
	lo := len(op.recKeys)
	op.recKeys = e.layout.ScanInto(op.recKeys, s.tab, s.frac, scanPattern, op.rng)
	op.recEnds = append(op.recEnds, len(op.recKeys))
	return op.recKeys[lo:]
}

// sizeScratch sizes what the execution draws into, so that drawing never
// grows it: a recording at the size the plan's scans fill, or the one-shot
// buffer at the longest of them.
func (op *execOp) sizeScratch() {
	scans, keys, longest := 0, 0, 0
	for i := range op.steps {
		if s := &op.steps[i]; s.tab != nil {
			n := op.e.layout.ScanLenOf(s.tab, s.frac)
			scans, keys, longest = scans+1, keys+n, max(longest, n)
		}
	}
	if op.prep != nil {
		op.recKeys, op.recEnds = make([]storage.ExtentKey, 0, keys), make([]int, 0, scans)
	} else if cap(op.keys) < longest {
		op.keys = make([]storage.ExtentKey, 0, longest)
	}
}

// install hands a finished recording to the Prepared, once every scan node
// has been visited. A concurrent recording of the same plan that finished
// first wins; the lists are equal either way.
func (op *execOp) install() {
	if op.recEnds != nil && op.prep.Scans() == 0 {
		op.prep.keys, op.prep.ends = op.recKeys, op.recEnds
	}
	op.recKeys, op.recEnds = nil, nil
}

// shape is what appendSteps learns of a plan as it copies it: its scan
// count, and its largest hash-join and aggregate builds, whose sum is the
// grant (Plan.MemoryGrant).
type shape struct {
	scans     int
	join, agg int64
}

// appendSteps copies the plan tree into steps in execution order: right
// subtree (build side), left subtree (probe side), then the node itself.
// Each product of the CPU units is rounded on its own (DESIGN.md,
// "Determinism"), so that no platform fuses it into the sum.
func (e *Executor) appendSteps(steps []step, n *plan.Node, sh *shape) []step {
	if n == nil {
		return steps
	}
	steps = e.appendSteps(steps, n.Right, sh)
	steps = e.appendSteps(steps, n.Left, sh)
	var s step
	switch n.Op {
	case plan.OpSeqScan, plan.OpIndexScan:
		sh.scans++
		s.tab, s.frac = e.table(n), n.ScanFraction
		visited := float64(s.tab.Rows)
		if n.Op == plan.OpIndexScan {
			visited *= n.ScanFraction
		}
		s.units = visited * plan.CPURowCost
	case plan.OpHashJoin:
		sh.join = max(sh.join, n.BuildBytes)
		build := n.Right.OutCard
		probe := n.Left.OutCard
		s.units = float64(build*plan.BuildRowCost) + float64(probe*plan.CPURowCost) + float64(n.OutCard*plan.CPURowCost)
	case plan.OpHashAgg:
		sh.agg = max(sh.agg, n.BuildBytes)
		s.units = n.NodeCost // the optimizer's agg cost is pure CPU
	}
	return append(steps, s)
}

// finish delivers the outcome, recycles the op and continues with k.
func (op *execOp) finish(t *vtime.Task) {
	*op.errp = op.err
	k := op.k
	op.prep, op.errp, op.k, op.err, op.scan = nil, nil, nil, nil, nil
	op.e.execs.Put(op)
	k.Run(t)
}

// ExecuteThen runs plan p on behalf of task t as continuation steps, then
// stores the outcome through errp and runs k. seed drives scan locality
// (derive it from the statement for deterministic-but-varied access
// patterns). prep is nil for an execution that draws its lists; for a
// closed-set statement it is the statement's Prepared, which the first
// complete execution fills and later ones replay instead of drawing — with
// the same seed on every execution of the plan, the two are
// indistinguishable in virtual time. The execution copies what it needs of
// p before ExecuteThen returns, and reads p no more. A steady-state call
// allocates nothing.
func (e *Executor) ExecuteThen(t *vtime.Task, p *plan.Plan, seed int64, prep *Prepared, errp *error, k vtime.Step) {
	op := e.execs.Get()
	if op == nil {
		op = &execOp{e: e}
	}
	var sh shape
	op.steps = e.appendSteps(slices.Grow(op.steps[:0], p.Nodes()), p.Root, &sh)
	op.seed, op.prep, op.errp, op.k = seed, prep, errp, k
	op.seeded, op.si = false, 0
	op.replay = prep != nil && prep.Scans() > 0
	if op.replay {
		if prep.Scans() != sh.scans {
			panic(fmt.Sprintf("executor: replaying %d recorded scan lists on a plan of %d scans", prep.Scans(), sh.scans))
		}
		e.replayed++
	}
	op.granted = sh.join + sh.agg
	op.state = exGranted
	e.grants.AcquireThen(t, op.granted, &op.err, op)
}
