// Package executor runs physical plans in virtual time: scans pull
// extents through the buffer pool, joins and aggregates burn CPU on the
// shared processor pool, and each query holds an execution memory grant
// (its hash-table workspace) for the duration of the run — the same
// reserve-up-front discipline SQL Server uses for query execution memory.
package executor

import (
	"fmt"
	"math/rand"
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

	granted, timeouts uint64
	waitTotal         time.Duration

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

// Granted returns the number of grants issued.
func (gm *GrantManager) Granted() uint64 { return gm.granted }

// Timeouts returns the number of grant waits that timed out.
func (gm *GrantManager) Timeouts() uint64 { return gm.timeouts }

// Waiting returns the number of queued requests.
func (gm *GrantManager) Waiting() int { return gm.queue.Len() }

// TotalWait returns aggregate time spent queued for grants.
func (gm *GrantManager) TotalWait() time.Duration { return gm.waitTotal }

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
				gm.granted++
				gm.waitTotal += t.Now() - op.start
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
	gm.waitTotal += t.Now() - op.start
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
			gm.granted++
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

// Acquire is AcquireThen for blocking-style callers.
func (gm *GrantManager) Acquire(t *vtime.Task, bytes int64) error {
	var err error
	t.Await(func(k vtime.Step) { gm.AcquireThen(t, bytes, &err, k) })
	return err
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

// Stats reports one execution.
type Stats struct {
	ExtentsRead int
	Hits        int
	CPUTime     time.Duration
	GrantBytes  int64
	// PageStallTime is the nominal (pre-dilation) disk time charged for
	// refaulting the workspace on an overcommitted machine; the virtual
	// time actually spent is this stretched by the slowdown in effect.
	PageStallTime time.Duration
	Elapsed       time.Duration
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

// Prepared is what the executor keeps with a cached plan between
// executions: the extent list of every scan node, in execution order,
// exactly as the plan's seed draws them. The seed is a function of the
// statement fingerprint, so on one executor a plan's lists are a constant:
// the first execution handed an empty Prepared that visits every scan
// records them, and every later one replays them with no PRNG at all.
// The zero value is empty. It belongs to whatever holds the plan (the
// plan-cache entry) and is dropped with it; once recorded it is never
// written again.
type Prepared struct {
	keys []storage.ExtentKey // every scan's list, concatenated
	ends []int               // ends[i]: where scan i's list ends in keys
}

// Scans returns how many scan lists are recorded: the plan's scan count,
// or 0 while nothing is (every plan has at least one scan).
func (pr *Prepared) Scans() int { return len(pr.ends) }

// execOp is the continuation state machine behind ExecuteThen: acquire
// the grant, run the plan's nodes (children first — build before probe,
// matching hash-join scheduling; the tree is flattened into exactly the
// old recursion's visit order), pay refault I/O, release.
// Its scan-key and node scratch buffers and its locality source are
// retained across uses.
type execOp struct {
	e    *Executor
	p    *plan.Plan
	seed int64
	prep *Prepared
	// stp (may be nil) and errp receive the outcome before k runs.
	stp  *Stats
	errp *error
	k    vtime.Step

	st  Stats
	err error

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

	startAt   time.Duration
	granted   int64
	nodes     []*plan.Node
	ni        int
	keys      []storage.ExtentKey
	scan      []storage.ExtentKey // the current scan's extents
	bi, bj    int
	batchHits int
	state     int8
}

const (
	exGranted   int8 = iota // grant outcome known
	exNode                  // run the next node
	exBatch                 // issue the next read batch of the current scan
	exBatchDone             // account a finished read batch
	exNodeCPU               // current node's CPU charge finished
	exRefault               // pay workspace refault I/O under thrash
	exFinish                // account and release
)

func (op *execOp) Run(t *vtime.Task) {
	e := op.e
	st := &op.st
	for {
		switch op.state {
		case exGranted:
			if op.err != nil {
				// No grant was taken; nothing to release.
				op.finish(t)
				return
			}
			st.GrantBytes = op.granted
			op.nodes = appendPostorder(op.nodes[:0], op.p.Root)
			op.ni = 0
			op.state = exNode
			if op.prep != nil && !op.replay {
				op.sizeRecording()
			}
		case exNode:
			if op.ni >= len(op.nodes) {
				op.install()
				op.state = exRefault
				continue
			}
			n := op.nodes[op.ni]
			switch n.Op {
			case plan.OpSeqScan, plan.OpIndexScan:
				op.scan = op.scanExtents(n)
				op.bi = 0
				op.state = exBatch
			case plan.OpHashJoin:
				build := n.Right.OutCard
				probe := n.Left.OutCard
				units := float64(build*plan.BuildRowCost) + float64(probe*plan.CPURowCost) + float64(n.OutCard*plan.CPURowCost)
				if op.useCPU(t, units) {
					return
				}
			case plan.OpHashAgg:
				// The optimizer's agg cost is pure CPU.
				if op.useCPU(t, n.NodeCost) {
					return
				}
			default:
				op.ni++
			}
		case exBatch:
			if op.bi >= len(op.scan) {
				st.ExtentsRead += len(op.scan)
				n := op.nodes[op.ni]
				visited := float64(e.table(n).Rows)
				if n.Op == plan.OpIndexScan {
					visited *= n.ScanFraction
				}
				if op.useCPU(t, visited*plan.CPURowCost) {
					return
				}
				continue
			}
			j := op.bi + readBatch
			if j > len(op.scan) {
				j = len(op.scan)
			}
			op.bj = j
			op.state = exBatchDone
			e.pool.ReadManyThen(t, op.scan[op.bi:j], &op.batchHits, op)
			return
		case exBatchDone:
			st.Hits += op.batchHits
			op.bi = op.bj
			op.state = exBatch
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
					st.PageStallTime = stall
					e.pageStallTotal += stall
					e.pool.DiskDelayThen(t, stall, op)
					return
				}
			}
		case exFinish:
			e.executed++
			st.Elapsed = t.Now() - op.startAt
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
	op.st.CPUTime += d
	op.state = exNodeCPU
	op.e.cpu.UseThen(t, d, op)
	return true
}

// scanExtents returns the extents scan node n touches: replayed from
// the plan's recorded lists, or drawn from the seeded source — into the
// recording when the plan is cached and not yet recorded, else into the
// op's scratch buffer.
func (op *execOp) scanExtents(n *plan.Node) []storage.ExtentKey {
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
		op.keys = e.layout.ScanInto(op.keys[:0], e.table(n), n.ScanFraction, scanPattern, op.rng)
		return op.keys
	}
	lo := len(op.recKeys)
	op.recKeys = e.layout.ScanInto(op.recKeys, e.table(n), n.ScanFraction, scanPattern, op.rng)
	op.recEnds = append(op.recEnds, len(op.recKeys))
	return op.recKeys[lo:]
}

// sizeRecording allocates the recording at the size the plan's scans will
// fill, so that drawing into it never grows it.
func (op *execOp) sizeRecording() {
	scans, keys := 0, 0
	for _, n := range op.nodes {
		if n.Op == plan.OpSeqScan || n.Op == plan.OpIndexScan {
			scans++
			keys += op.e.layout.ScanLenOf(op.e.table(n), n.ScanFraction)
		}
	}
	op.recKeys, op.recEnds = make([]storage.ExtentKey, 0, keys), make([]int, 0, scans)
}

// install hands a finished recording to the plan, once every scan node
// has been visited. A concurrent recording of the same plan that finished
// first wins; the lists are equal either way.
func (op *execOp) install() {
	if op.recEnds != nil && op.prep.Scans() == 0 {
		op.prep.keys, op.prep.ends = op.recKeys, op.recEnds
	}
	op.recKeys, op.recEnds = nil, nil
}

// appendPostorder flattens the plan tree into the execution order the
// recursive walk used: right subtree (build side), left subtree (probe
// side), then the node itself.
func appendPostorder(nodes []*plan.Node, n *plan.Node) []*plan.Node {
	if n == nil {
		return nodes
	}
	nodes = appendPostorder(nodes, n.Right)
	nodes = appendPostorder(nodes, n.Left)
	return append(nodes, n)
}

// finish delivers the outcome, recycles the op and continues with k.
func (op *execOp) finish(t *vtime.Task) {
	if op.stp != nil {
		*op.stp = op.st
	}
	*op.errp = op.err
	k := op.k
	op.p, op.prep, op.stp, op.errp, op.k, op.err, op.scan = nil, nil, nil, nil, nil, nil, nil
	op.e.execs.Put(op)
	k.Run(t)
}

// ExecuteThen runs plan p on behalf of task t as continuation steps, then
// stores the outcome through st (nil to discard the statistics) and errp
// and runs k. seed drives scan locality (derive it from the statement for
// deterministic-but-varied access patterns). prep is nil for a plan
// executed once; for a cached plan it is the Prepared kept with the plan,
// which the first complete execution fills and later ones replay instead
// of drawing — with the same seed on every execution of the plan, the two
// are indistinguishable in virtual time. A steady-state call allocates
// nothing.
func (e *Executor) ExecuteThen(t *vtime.Task, p *plan.Plan, seed int64, prep *Prepared, st *Stats, errp *error, k vtime.Step) {
	op := e.execs.Get()
	if op == nil {
		op = &execOp{e: e}
	}
	op.p, op.seed, op.prep, op.stp, op.errp, op.k = p, seed, prep, st, errp, k
	op.st = Stats{}
	op.seeded, op.si = false, 0
	op.replay = prep != nil && prep.Scans() > 0
	if op.replay {
		e.replayed++
	}
	op.startAt = t.Now()
	op.granted = p.MemoryGrant()
	op.state = exGranted
	e.grants.AcquireThen(t, op.granted, &op.err, op)
}

// Execute is ExecuteThen for blocking-style callers.
func (e *Executor) Execute(t *vtime.Task, p *plan.Plan, seed int64, prep *Prepared) (st Stats, err error) {
	t.Await(func(k vtime.Step) { e.ExecuteThen(t, p, seed, prep, &st, &err, k) })
	return st, err
}
