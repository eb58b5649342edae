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

// GrantManager queues execution memory grants against a tracker, FIFO
// with timeout — the RESOURCE_SEMAPHORE analogue.
type GrantManager struct {
	tracker *mem.Tracker
	queue   *vtime.WaitQueue
	timeout time.Duration

	granted, timeouts uint64
	reductions        uint64
	waitTotal         time.Duration

	ops freelist.List[grantOp] // recycled continuation ops (single scheduler)
}

// NewGrantManager creates a grant manager. tracker should carry a limit
// (SetLimit) bounding total concurrent execution memory.
func NewGrantManager(tracker *mem.Tracker, timeout time.Duration) *GrantManager {
	return &GrantManager{
		tracker: tracker,
		queue:   vtime.NewWaitQueue("exec-grants"),
		timeout: timeout,
	}
}

// Tracker returns the underlying tracker.
func (gm *GrantManager) Tracker() *mem.Tracker { return gm.tracker }

// Granted returns the number of grants issued.
func (gm *GrantManager) Granted() uint64 { return gm.granted }

// Timeouts returns the number of grant waits that timed out.
func (gm *GrantManager) Timeouts() uint64 { return gm.timeouts }

// Reductions returns how many times a queued grant lowered its ask.
func (gm *GrantManager) Reductions() uint64 { return gm.reductions }

// Waiting returns the number of queued requests.
func (gm *GrantManager) Waiting() int { return gm.queue.Len() }

// TotalWait returns aggregate time spent queued for grants.
func (gm *GrantManager) TotalWait() time.Duration { return gm.waitTotal }

// Acquire reserves bytes of execution memory for task t, queueing FIFO
// behind earlier requests when memory is unavailable.
func (gm *GrantManager) Acquire(t *vtime.Task, bytes int64) error {
	_, err := gm.AcquireReduced(t, bytes, 1.0)
	return err
}

// grantOp is the continuation state machine behind AcquireReduced: wait
// FIFO with timeout, halving the ask past the halfway point, retrying
// the reservation on every wake.
type grantOp struct {
	gm               *GrantManager
	want, ask, floor int64
	start            time.Duration
	deadline, half   time.Duration
	granted          *int64
	errp             *error
	k                vtime.Step
	state            int8
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
			// Past the halfway point, halve the ask (not below the floor).
			if t.Now() >= op.half && op.ask > op.floor {
				op.ask /= 2
				if op.ask < op.floor {
					op.ask = op.floor
				}
				gm.reductions++
			}
			if err := gm.tracker.Reserve(op.ask); err == nil {
				gm.granted++
				gm.waitTotal += t.Now() - op.start
				// Let the next waiter retry too: memory may remain.
				gm.queue.Signal()
				op.finish(t, op.ask, nil)
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
	op.finish(t, 0, &ErrGrantTimeout{Bytes: op.want, Wait: t.Now() - op.start})
}

func (op *grantOp) finish(t *vtime.Task, granted int64, err error) {
	*op.granted = granted
	*op.errp = err
	k := op.k
	op.k, op.granted, op.errp = nil, nil, nil
	op.gm.ops.Put(op)
	k.Run(t)
}

// AcquireReducedThen reserves execution memory as continuation steps,
// then runs k with the outcome stored through granted and errp. See
// AcquireReduced for the reduction semantics.
func (gm *GrantManager) AcquireReducedThen(t *vtime.Task, want int64, minFrac float64, granted *int64, errp *error, k vtime.Step) {
	*errp = nil
	if want <= 0 {
		*granted = 0
		k.Run(t)
		return
	}
	if minFrac <= 0 || minFrac > 1 {
		minFrac = 1
	}
	floor := int64(float64(want) * minFrac)
	if floor < 1 {
		floor = 1
	}
	start := t.Now()
	// FIFO: newcomers queue behind existing waiters even if their (small)
	// request would fit, preventing starvation of big grants.
	if gm.queue.Len() == 0 {
		if err := gm.tracker.Reserve(want); err == nil {
			gm.granted++
			*granted = want
			k.Run(t)
			return
		}
	}
	op := gm.ops.Get()
	if op == nil {
		op = &grantOp{gm: gm}
	}
	op.want, op.ask, op.floor = want, want, floor
	op.start, op.deadline, op.half = start, start+gm.timeout, start+gm.timeout/2
	op.granted, op.errp, op.k, op.state = granted, errp, k, gwWait
	op.Run(t)
}

// AcquireReduced reserves execution memory, accepting a reduced grant
// under pressure: the request asks for want bytes but, once half the
// timeout has elapsed, settles for progressively less — never below
// want*minFrac. It returns the bytes actually granted. This models the
// engine's grant-reduction path (§3: execution "can potentially respond
// to memory pressure"); the executor pays for the shortfall by spilling.
func (gm *GrantManager) AcquireReduced(t *vtime.Task, want int64, minFrac float64) (int64, error) {
	var granted int64
	var err error
	t.Await(func(k vtime.Step) {
		gm.AcquireReducedThen(t, want, minFrac, &granted, &err, k)
	})
	return granted, err
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

// Config tunes the executor.
type Config struct {
	// CostUnitCPU converts one CPU cost-model unit into virtual CPU time.
	// The cost model's CPURow etc. are expressed in these units.
	CostUnitCPU time.Duration
	// GrantTimeout bounds the wait for execution memory.
	GrantTimeout time.Duration
	// ReadBatch is how many extents are requested per buffer-pool call.
	ReadBatch int
	// Pattern shapes scan locality.
	Pattern storage.Pattern
	// MinGrantFrac enables grant reduction under pressure: a queued query
	// accepts as little as this fraction of its requested grant and
	// spills the shortfall to disk. 0 (or 1) disables reduction.
	MinGrantFrac float64
	// SpillPenaltyPerByte is the extra virtual time per shortfall byte
	// (write + later read of spilled partitions), charged against the
	// disk channels.
	SpillExtentTime time.Duration
	// RefaultExtentTime is the nominal disk time per refaulted workspace
	// extent when the machine is thrashing: an overcommitted machine
	// pages parts of each query's granted workspace out and back in,
	// costing (slowdown-1) * grant-extents of extra transfers. The
	// transfers ride the same dilated disk channels as every other I/O,
	// so the effective cost is superlinear in the slowdown — deliberately:
	// refault traffic on a thrashing machine is itself slowed by the
	// thrash. 0 disables the penalty (it also stays off until SetPressure
	// installs a slowdown source).
	RefaultExtentTime time.Duration
}

// DefaultConfig returns the calibrated executor tuning.
func DefaultConfig() Config {
	return Config{
		CostUnitCPU:  time.Second,
		GrantTimeout: 10 * time.Minute,
		ReadBatch:    32,
		Pattern:      storage.DefaultPattern(),
		// Grant reduction (reduced grants + hash spill) is an extension
		// the paper only hints at (§3); it is opt-in so the benchmark
		// baseline fails under memory starvation the way the paper's
		// engine did. Set MinGrantFrac < 1 to enable it.
		MinGrantFrac:    1.0,
		SpillExtentTime: 200 * time.Millisecond, // write + re-read per spilled extent
		// One paged-out-and-back workspace extent costs one disk
		// round-trip, same as a spill extent.
		RefaultExtentTime: 200 * time.Millisecond,
	}
}

// Stats reports one execution.
type Stats struct {
	ExtentsRead int
	Hits        int
	CPUTime     time.Duration
	GrantBytes  int64 // bytes actually granted
	SpillBytes  int64 // shortfall spilled to disk (reduced grant)
	// PageStallTime is the nominal (pre-dilation) disk time charged for
	// refaulting the workspace on an overcommitted machine; the virtual
	// time actually spent is this stretched by the slowdown in effect.
	PageStallTime time.Duration
	Elapsed       time.Duration
}

// Executor runs plans.
type Executor struct {
	cfg    Config
	pool   *bufferpool.Pool
	layout *storage.Layout
	cpu    *vtime.CPUSet
	grants *GrantManager
	cost   plan.CostModel

	// pressure reports the machine's current paging slowdown (nil or
	// func returning <= 1 when healthy); drives workspace refaults.
	pressure func() float64

	executed, replayed uint64
	pageStallTotal     time.Duration

	execs freelist.List[execOp] // recycled continuation ops (single scheduler)
}

// New creates an executor.
func New(cfg Config, pool *bufferpool.Pool, layout *storage.Layout, cpu *vtime.CPUSet, grants *GrantManager, cost plan.CostModel) *Executor {
	if cfg.ReadBatch <= 0 {
		cfg.ReadBatch = 32
	}
	return &Executor{cfg: cfg, pool: pool, layout: layout, cpu: cpu, grants: grants, cost: cost}
}

// SetPressure installs the paging-slowdown source (the engine wires the
// memory budget's Slowdown). A factor above 1 makes executions refault
// part of their granted workspace; see Config.RefaultExtentTime.
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
// old recursion's visit order), pay spill and refault I/O, release.
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
	want      int64
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
	exSpill                 // pay spill I/O for a reduced grant
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
			st.SpillBytes = op.want - op.granted
			op.nodes = appendPostorder(op.nodes[:0], op.p.Root)
			op.ni = 0
			op.state = exNode
			if op.prep != nil && !op.replay {
				op.sizeRecording()
			}
		case exNode:
			if op.ni >= len(op.nodes) {
				op.install()
				op.state = exSpill
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
				units := build*e.cost.BuildRow + probe*e.cost.CPURow + n.OutCard*e.cost.CPURow
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
				if op.useCPU(t, visited*e.cost.CPURow) {
					return
				}
				continue
			}
			j := op.bi + e.cfg.ReadBatch
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
		case exSpill:
			op.state = exRefault
			// A reduced grant spills hash partitions: pay write + re-read
			// time on the disk channels, proportional to the shortfall.
			if st.SpillBytes > 0 && e.cfg.SpillExtentTime > 0 {
				extents := (st.SpillBytes + e.pool.ExtentBytes() - 1) / e.pool.ExtentBytes()
				e.pool.DiskDelayThen(t, time.Duration(extents)*e.cfg.SpillExtentTime, op)
				return
			}
		case exRefault:
			op.state = exFinish
			// On a thrashing machine part of the granted workspace was
			// paged out mid-run and must fault back in: (slowdown-1) extra
			// transfers per workspace extent, against the same disk
			// channels.
			if e.pressure != nil && op.granted > 0 && e.cfg.RefaultExtentTime > 0 {
				if f := e.pressure(); f > 1 {
					extents := (op.granted + e.pool.ExtentBytes() - 1) / e.pool.ExtentBytes()
					stall := time.Duration((f - 1) * float64(extents) * float64(e.cfg.RefaultExtentTime))
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
	d := time.Duration(units * float64(op.e.cfg.CostUnitCPU))
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
		op.keys = e.layout.ScanInto(op.keys[:0], e.table(n), n.ScanFraction, e.cfg.Pattern, op.rng)
		return op.keys
	}
	lo := len(op.recKeys)
	op.recKeys = e.layout.ScanInto(op.recKeys, e.table(n), n.ScanFraction, e.cfg.Pattern, op.rng)
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
	op.want = p.MemoryGrant()
	minFrac := e.cfg.MinGrantFrac
	if minFrac <= 0 {
		minFrac = 1
	}
	op.state = exGranted
	e.grants.AcquireReducedThen(t, op.want, minFrac, &op.granted, &op.err, op)
}

// Execute is ExecuteThen for blocking-style callers.
func (e *Executor) Execute(t *vtime.Task, p *plan.Plan, seed int64, prep *Prepared) (st Stats, err error) {
	t.Await(func(k vtime.Step) { e.ExecuteThen(t, p, seed, prep, &st, &err, k) })
	return st, err
}
