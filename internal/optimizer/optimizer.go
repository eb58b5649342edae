// Package optimizer implements a Cascades-style query optimizer over the
// memo: join-order exploration via commutativity/associativity rules,
// dynamic optimization effort proportional to estimated plan cost, and
// cost-based plan extraction.
//
// The optimizer is deliberately faithful to the properties the paper
// depends on:
//
//   - memory grows with the number of alternatives considered (every memo
//     structure is charged to the engine, which meets a Charge demand with
//     the governor's Compilation.AllocThen — where gateway waits happen —
//     and answers ChargeSpan with AllocSpan, which takes a work batch's
//     worth of structures at once when none of them would wait there);
//   - optimization time is a function of estimated query cost (dynamic
//     optimization), so expensive 15-20-join queries compile for tens of
//     virtual seconds while OLTP queries finish instantly;
//   - a complete plan (the initial left-deep tree) exists almost
//     immediately, so the best-effort path (§4.1) can always return
//     something once the broker predicts exhaustion.
//
// Exploration is a pure function of the statement; the engine's answers only
// decide where it is cut. So it is split in two. The kernel (run.advance)
// grows the memo and appends what it did to a tape; the player
// (Exploration.Resume) walks the tape, counts tasks, decides to stop, and is
// the only code that asks the engine anything: it returns a demand (a charge,
// a work batch, a codegen) and is resumed with the answer, so no compilation
// needs a stack of its own. A compilation that is cut leaves its exploration
// behind, and a resubmission of the statement plays the same tape again
// instead of re-exploring. Between two work batches the player may pass
// structures uncharged and settle the span in one ChargeSpan call; when the
// engine refuses — some structure in it would block, reclaim or fail — it
// goes back to the span's start and demands their charges one by one, so what
// the engine sees is the same either way. Such a player does not look at the
// structures of a whole work batch at all: the kernel marks where every batch
// ends, and the player moves from mark to mark. The kernel has a second
// caller, a helper goroutine that runs it ahead of the players on a core the
// simulations leave idle, and solves extraction's DP where a compilation that
// is not cut will stop (helper.go).
//
// Exploration is also purely structural. The memo holds sets and
// neighbourhoods; what a set of tables is estimated to produce is read only
// when a plan is costed, so cardinalities are computed there (run.fillCards),
// once per group of the memo prefix being costed, four sets at a time.
package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"compilegate/internal/catalog"
	"compilegate/internal/memo"
	"compilegate/internal/plan"
	"compilegate/internal/stats"
)

// Hooks meet one compilation's demands for Optimize, the synchronous driver
// of Begin and Resume. An engine whose answers wait meets them itself.
type Hooks struct {
	// Charge charges n simulated bytes of compilation memory — one memo
	// structure: Config.Memo's bytes for an expression or for a group; an
	// error (OOM / gateway timeout) aborts the compilation. Without a
	// ChargeSpan hook it is called for every structure; with one, for the
	// structures of the spans that hook refused.
	Charge func(n int64) error
	// Work reports n units of optimizer work so the engine can consume
	// virtual CPU time. May be nil.
	Work func(tasks int)
	// BestEffort, polled after every work batch, asks whether to stop
	// exploring and return the best complete plan so far. May be nil. It
	// must answer at once.
	BestEffort func() bool
	// ChargeSpan, when set beside Charge, lets a compilation settle its memo
	// growth once per span — the structures it passed since the last demand
	// or call — instead of once per structure. It charges exprs expressions
	// and groups groups (Config.Memo's bytes each) and reports true iff a
	// Charge call for each of them, in any order, would have returned nil at
	// once: without waiting and without anything but the sum of their
	// charges changing on the engine's side. Otherwise it must change
	// nothing and report false; the compilation then demands those charges
	// one by one, in the tape's order, as if it had never asked.
	ChargeSpan func(exprs, groups int) bool
	// Codegen, when set, is the compilation's last phase before its plan is
	// built: it is called once, after the last Work, with the bytes of the
	// memo prefix explored, by a compilation that neither failed a charge
	// nor was cut by best effort. An error fails the compilation as a failed
	// charge does, and no plan is extracted.
	Codegen func(memoBytes int64) error
}

// Config tunes the optimizer.
type Config struct {
	Memo memo.Config
	// MinTasks/MaxTasks clamp the exploration budget.
	MinTasks, MaxTasks int
	// EffortPerCost converts the initial plan's estimated cost into the
	// task budget: budget = MinTasks + cost*EffortPerCost. This is the
	// "dynamic optimization" knob: more expensive queries get
	// proportionally more optimization (and therefore memory).
	EffortPerCost float64
	// WorkBatch is how many tasks pass between Work/BestEffort callbacks.
	WorkBatch int
}

// DefaultConfig returns the calibrated tuning.
func DefaultConfig() Config {
	return Config{
		Memo:          memo.DefaultConfig(),
		MinTasks:      32,
		MaxTasks:      6_000,
		EffortPerCost: 1.5,
		WorkBatch:     64,
	}
}

// Optimizer holds immutable state shared across optimizations. Per-
// statement state (runs and memos) comes from process-wide pools: an
// exploration holds its run and memo until it is released, and recycled
// instances keep their grown arenas, so a sweep's later runs compile
// without re-paying the first run's arena warm-up.
type Optimizer struct {
	est  *stats.Estimator
	cat  *catalog.Catalog
	cfg  Config
	work struct {
		compilations, extractions, groups, exprs, opens, steps, settled, refused atomic.Uint64
	}
}

// Work counts compilations played, failed ones included, those that
// extracted a plan, and the memo prefixes (groups, expressions) they
// extracted from; explorations opened; the steps the compilations took,
// walked or jumped (not those the helper ran ahead); and the spans ChargeSpan
// settled and refused — pure functions of the statements and the hooks'
// answers.
type Work struct {
	Compilations, Extractions, ExtractedGroups, ExtractedExprs uint64
	Opens, StepsPlayed, SpansSettled, SpansRefused             uint64
}

// Work returns the counts since the optimizer was made.
func (o *Optimizer) Work() Work {
	w := &o.work
	return Work{w.compilations.Load(), w.extractions.Load(), w.groups.Load(), w.exprs.Load(),
		w.opens.Load(), w.steps.Load(), w.settled.Load(), w.refused.Load()}
}

// Add adds v's counts to w's.
func (w *Work) Add(v Work) {
	w.Compilations += v.Compilations
	w.Extractions += v.Extractions
	w.ExtractedGroups += v.ExtractedGroups
	w.ExtractedExprs += v.ExtractedExprs
	w.Opens += v.Opens
	w.StepsPlayed += v.StepsPlayed
	w.SpansSettled += v.SpansSettled
	w.SpansRefused += v.SpansRefused
}

// runPool and memoPool recycle per-statement state across every
// optimizer in the process. Optimizers on different sweep workers drain
// and fill them concurrently, so they must be synchronized pools; a
// pooled instance carries only capacity (arenas, map slots) —
// getRun and memo.Reset restore observable state bit-identically, so
// reuse never affects results.
var (
	runPool = sync.Pool{New: func() any {
		// 64 factors hold any query of up to 32 tables joined as a tree (the
		// widest SALES statement has 41); a larger one grows the table.
		return &run{tableOf: make(map[string]*catalog.Table), factors: make([]factor, 0, 64)}
	}}
	memoPool = sync.Pool{New: func() any { return memo.New() }}
)

// dpTables is the extraction DP's state. It belongs to a compilation, not
// to the exploration — a retained run must not hold a table sized for the
// largest memo it ever solved — so it is pooled apart from runs.
type dpTables struct {
	dp    []costed
	order []memo.GroupID // groups by ascending table count
}

var dpPool = sync.Pool{New: func() any { return new(dpTables) }}

// New creates an optimizer over the estimator's catalog.
func New(est *stats.Estimator, cfg Config) *Optimizer {
	if cfg.WorkBatch <= 0 {
		cfg.WorkBatch = 64
	}
	return &Optimizer{est: est, cat: est.Catalog(), cfg: cfg}
}

// A tape segment is what the kernel did up to and including one step, in
// the only order it can happen in: some expressions added to existing
// groups, then possibly a new group with its first expression, then the
// step. The first two are memory (the player charges Config.Memo's bytes
// for each structure), a step is where a compilation counts a task and may
// be stopped. buildInitial's segments have no step, and neither has the
// one that spills a full expression count.
const (
	segExprs uint16 = 1<<13 - 1 // mask: expressions added to existing groups
	segGroup uint16 = 1 << 13   // then a group was created, and its first expression
	segStep  uint16 = 1 << 14   // then a step: a new inner expression of the associate rule, or the end of one expression's rules
)

// batchMark is where the tape stood when the kernel took a step that made
// its step count a multiple of WorkBatch: the tape position right after that
// step's segment, and the memo's size. A step segment is taped after the
// structures it carries and before the next add, so at that instant the
// memo's counts are the tape's cumulative counts — the mark is the cursor of
// a player that has walked there. It also names final and a solved prefix.
type batchMark struct {
	pos, groups, exprs int32
}

// here is the kernel's position as a mark.
func (r *run) here() batchMark {
	return batchMark{int32(len(r.tape)), int32(r.m.Groups()), int32(r.m.Exprs())}
}

// run is one statement's exploration: the resolved query, its memo, the
// tape of the memo's growth and the kernel's position. It holds nothing
// of any one compilation — that is the player's — so it can outlive the
// compilation that started it. It is pooled: every field is either reset
// by getRun or overwritten by resolve. Leaf cardinalities, selectivities,
// and adjacency are dense arrays indexed by table ID (the bit position in
// the join bitsets) instead of maps. Nothing here is hashed per group:
// what exploration needs of a group (set, neighbourhood) is stored in the
// group, and what costing needs (cardinality) in cards.
//
// A run has two callers, its player and the kernel helper (helper.go). Every
// field below the atomics belongs to whoever holds mu — the pool resets and
// releases under it too, so a request that outlived its run finds a target of
// zero — except marks[:nmarks], which never change and are read without it.
type run struct {
	mu     sync.Mutex
	nmarks atomic.Int32 // marks published
	target atomic.Int32 // marks a player asked the helper for; 0 in the pool
	wanted atomic.Bool  // a player waits for mu
	queued atomic.Bool  // the helper's queue holds the run

	o *Optimizer
	q *plan.Query
	m *memo.Memo

	terms    []*plan.TableTerm         // query terms by table ID position
	tabs     []*catalog.Table          // resolved tables, parallel to terms
	tableOf  map[string]*catalog.Table // name -> table, for join validation
	leafCard [64]float64               // filtered cardinality by table ID
	leafSel  [64]float64               // combined filter selectivity by table ID
	adjacent [64]uint64                // neighbor bitset by table ID
	// factors are the terms of every cardinality product, in the order they
	// are multiplied: the query's leaves by ascending table ID, then its join
	// edges in insertion order.
	factors []factor
	// cards[g] is group g's cardinality, for the memo prefix solve has
	// costed so far. It stays with the run, so a later compilation on the
	// exploration computes only the groups past it.
	cards []float64

	// The record. tape[:k] describes how the memo grew to the prefix it
	// names; marks[i], for i < nmarks, is where step (i+1)*WorkBatch left it
	// (getRun sizes the slice once, so publishing a mark writes an element and
	// never the header); root and every compilation's budget are fixed by
	// open. final is where step budget left the tape, or its end if the search
	// space ended first: where every compilation not cut stops (pos 0: not yet).
	tape   []uint16
	marks  []batchMark
	root   memo.GroupID
	budget int
	final  batchMark

	// The kernel's position: the round-robin cursor over groups, and the
	// steps taped.
	g          memo.GroupID
	progressed bool
	steps      int

	// The extraction DP's tables, borrowed from dpPool between solve and
	// unsolve, the prefix they hold a finished DP of (zero: none), and
	// buildInitial scratch.
	t         *dpTables
	solved    batchMark
	leaves    []memo.GroupID // leaf group per term
	remaining []bool         // buildInitial: term not yet joined
	aggCols   []struct{ Table, Column string }
	// Plan-node arena for the current extraction; ownership transfers to
	// the plan, so it is not pooled.
	arena     []plan.Node
	arenaNext int
}

// getRun returns a pooled, reset run with a pooled memo attached.
func (o *Optimizer) getRun(q *plan.Query) *run {
	r := runPool.Get().(*run)
	m := memoPool.Get().(*memo.Memo)
	m.Reset()
	r.mu.Lock()
	r.o, r.q, r.m = o, q, m
	r.terms = r.terms[:0]
	r.tabs = r.tabs[:0]
	clear(r.tableOf)
	r.leafCard = [64]float64{}
	r.leafSel = [64]float64{}
	r.adjacent = [64]uint64{}
	r.factors = r.factors[:0]
	r.cards = r.cards[:0]
	r.tape = r.tape[:0]
	// A compilation takes at most MaxTasks steps, so it jumps to no mark past
	// this many; the kernel records no others.
	if n := o.cfg.MaxTasks / o.cfg.WorkBatch; len(r.marks) < n {
		r.marks = make([]batchMark, n)
	}
	r.nmarks.Store(0)
	r.g, r.progressed, r.steps, r.final = 0, false, 0, batchMark{}
	r.mu.Unlock()
	return r
}

// putRun recycles a run and its memo. Plans extracted from it hold no
// references into either.
func (o *Optimizer) putRun(r *run) {
	r.take()
	r.target.Store(0)
	r.unsolve()
	memoPool.Put(r.m)
	r.o, r.q, r.m = nil, nil, nil
	r.mu.Unlock()
	runPool.Put(r)
}

// open starts q's exploration: bind it, build the initial left-deep plan
// and cost it. Errors are query errors (validation).
func (o *Optimizer) open(q *plan.Query) (*run, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	r := o.getRun(q)
	if err := r.resolve(); err != nil {
		o.putRun(r)
		return nil, err
	}
	if err := r.buildInitial(); err != nil {
		o.putRun(r)
		return nil, err
	}
	// The cost is computed without materializing the throwaway initial
	// plan's nodes (same arithmetic, no allocation).
	r.budget = o.effortBudget(r.costInitial())
	o.work.opens.Add(1)
	return r, nil
}

// Exploration is the recorded exploration of one statement. Any number of
// compilations may be played on it, one at a time: each starts from the
// beginning of the tape, makes its demands in the order and with the
// answers honoured exactly as a compilation on a fresh exploration would,
// and explores live only past what earlier ones recorded. The compilation
// under way lives in it. The zero value is released.
type Exploration struct {
	o *Optimizer
	q *plan.Query
	r *run // nil until the first compilation
	p player
}

// Explore returns q's exploration, not yet started: the first Begin
// validates and binds q. q must stay unmodified until Release.
func (o *Optimizer) Explore(q *plan.Query) Exploration {
	return Exploration{o: o, q: q}
}

// Release returns the exploration's state to the pools.
func (x *Exploration) Release() {
	if x.r != nil {
		x.o.putRun(x.r)
	}
	*x = Exploration{}
}

// Optimize compiles q to a physical plan on an exploration of its own.
// Errors are either query errors (validation), mem.ErrOutOfMemory, or
// *gateway.ErrTimeout propagated from the Charge hook.
func (o *Optimizer) Optimize(q *plan.Query, hooks Hooks) (*plan.Plan, error) {
	x := o.Explore(q)
	defer x.Release()
	return x.Optimize(hooks)
}

// Optimize plays one compilation, meeting each demand with the hook of its
// name (a Work demand with no Work hook, at once).
func (x *Exploration) Optimize(h Hooks) (*plan.Plan, error) {
	if err := x.Begin(Asks{h.Charge != nil, h.Codegen != nil, h.ChargeSpan, h.BestEffort}); err != nil {
		return nil, err
	}
	d := x.Resume(nil)
	for ; d.Kind != Done; d = x.Resume(d.Err) {
		switch d.Kind {
		case ChargeDemand:
			d.Err = h.Charge(d.N)
		case CodegenDemand:
			d.Err = h.Codegen(d.N)
		default:
			if h.Work != nil {
				h.Work(int(d.N))
			}
		}
	}
	return d.Plan, d.Err
}

// Asks is what a compilation asks of its engine besides work: Charge and
// Codegen demands, and as callbacks the Hooks answers that never wait.
type Asks struct {
	Charges, Codegen bool
	ChargeSpan       func(exprs, groups int) bool
	BestEffort       func() bool
}

// Demand is what a compilation needs before it can go on — met as the hook
// of its name — or, Done, its plan or the error that failed it.
type Demand struct {
	Kind DemandKind
	N    int64 // a Charge's or a Codegen's bytes, a Work's tasks
	Plan *plan.Plan
	Err  error
}

// DemandKind names a demand.
type DemandKind uint8

const (
	Done DemandKind = iota
	ChargeDemand
	WorkDemand
	CodegenDemand
	goOn // not a demand: play goes on
)

// cursor is a compilation's position: on the tape — which is also a memo
// prefix, the groups and expressions it has passed — and in its task count.
type cursor struct {
	pos           int // tape cursor
	groups, exprs int // memo prefix shown so far
	tasks         int // steps taken
	worked        int // of them, reported by a Work demand
}

func (c *cursor) at() batchMark { return batchMark{int32(c.pos), int32(c.groups), int32(c.exprs)} }

// The phases of a compilation between two demands.
const (
	playing    uint8 = iota // walking the tape; a Charge may be out
	working                 // a work batch's Work is out
	ending                  // exploration stopped; its last Work may be out
	generating              // the Codegen is out
)

// player is one compilation's share of the state: what it asks, its budget,
// its cursor and its phase. Deferring, it passes structures uncharged and
// settles the span since mark in one ChargeSpan call at the next boundary. A
// refused span puts the cursor back on mark and is played again with a
// Charge demand per structure, up to the next work-batch boundary. A deferred
// span that is a whole work batch is not walked at all (see jump).
type player struct {
	asks   Asks
	r      *run
	held   bool // the player holds r.mu
	limit  int  // marks the kernel helper may be asked for: 0 without a spare core
	inline int  // kernel steps the player took itself (HelperCounts)
	cursor
	mark       cursor // deferring: where the unsettled span began
	deferring  bool
	budget     int  // tasks it may take
	batch      int  // tasks between Work demands
	next       int  // the task count that ends the batch or the budget, whichever is first
	bestEffort bool // best-effort fired
	phase      uint8
	seg        uint16 // the segment read last, until it is passed (no segment is 0)
	owed       int    // of its structures' Charge demands, those still to make
	err        error  // ending: the failed charge that stopped exploration
}

// Begin starts a compilation on x. The first one binds the statement: an
// error there is a query error, and no compilation begins.
func (x *Exploration) Begin(a Asks) error {
	o := x.o
	if x.r == nil {
		r, err := o.open(x.q)
		if err != nil {
			return err
		}
		x.r = r
	}
	o.work.compilations.Add(1)
	x.p = player{asks: a, r: x.r, budget: x.r.budget, batch: o.cfg.WorkBatch}
	p := &x.p
	p.startSpan()
	if p.deferring && spareCore() {
		p.limit = p.budget / p.batch // the last mark the budget lets it jump to
		x.r.request(0, p.limit)
	}
	return nil
}

// Resume plays the compilation to its next demand, given the answer to the
// last (nil after Begin and Work). It passes over the tape from the start,
// demanding a charge for every group and expression — one by one, or a span
// at a time when ChargeSpan allows — and taking every step; it runs the
// kernel only for tape that is not there yet, and passes a settleable span
// that is a whole work batch in one move to the kernel's mark (see jump). It
// stops at a failed charge, at the first step that exhausts the budget or
// has best-effort answer true, or at the end of the search space: always a
// prefix of the statement's one tape. One that neither failed nor was cut
// then demands its Codegen, if asked to; unless that fails, it extracts the
// plan at its cursor, so no kernel or helper that ran ahead, and no longer
// earlier attempt's tape, changes anything. Resume lets the run go before it
// returns or calls back: the engine cannot hold up the helper or a Release.
func (x *Exploration) Resume(err error) Demand {
	p := &x.p
	defer p.drop() // a panic must not leave the run held: Release takes it
	switch p.phase {
	case working:
		p.phase, p.worked = playing, p.tasks
		p.bestEffort = p.asks.BestEffort != nil && p.asks.BestEffort()
		p.startSpan()
		if p.bestEffort || p.tasks >= p.budget {
			return p.stop(nil)
		}
	case ending:
		return p.stop(nil)
	case generating:
		return p.finish(err)
	default:
		if err != nil {
			return p.stop(err)
		}
	}
	r, memo := p.r, &p.r.o.cfg.Memo
	for {
		if p.owed > 0 {
			n := memo.BytesPerExpr
			if p.owed == 2 && p.seg&segGroup != 0 {
				n = memo.BytesPerGroup // a new group, then its first expression
			}
			p.owed--
			return Demand{Kind: ChargeDemand, N: n}
		}
		if seg := p.seg; seg != 0 {
			p.seg = 0
			group := int(seg>>13) & 1 // segGroup's bit
			p.exprs += int(seg&segExprs) + group
			p.groups += group
			p.tasks += int(seg >> 14) // segStep's bit
		} else if !p.deferring || p.pos != p.mark.pos || !p.jump() { // a jump takes the batch's last step
			p.hold()
			if p.pos == len(r.tape) {
				if p.inline++; !r.advance() {
					p.drop()
					if p.settle() {
						return p.stop(nil) // the end of the search space
					}
					continue // the last span was refused: play it again from mark
				}
			}
			p.seg = r.tape[p.pos]
			p.pos++
			if p.asks.Charges && !p.deferring {
				p.owed = int(p.seg&segExprs) + int(p.seg>>13&1)*2 // a group costs two
			}
			continue
		}
		if p.tasks >= p.next {
			if d := p.boundary(); d.Kind != goOn {
				return d
			}
		}
	}
}

// boundary is the step that ends a work batch, the budget, or both. It lets
// the run go, asks the helper for the batches ahead, and settles the span: a
// refusal undoes the step with the rest of the span, and play goes on from
// mark. It returns the demand to make (a batch's Work, after which Resume
// polls BestEffort and starts a new span), or goOn.
func (p *player) boundary() Demand {
	if p.bestEffort {
		panic("optimizer: a compilation went on after its best-effort stop")
	}
	p.drop()
	p.r.request(p.tasks/p.batch, p.limit)
	if !p.settle() {
		return Demand{Kind: goOn}
	}
	if n := p.tasks - p.worked; n >= p.batch {
		p.phase = working
		return Demand{Kind: WorkDemand, N: int64(n)}
	}
	p.startSpan()
	if p.tasks < p.budget {
		return Demand{Kind: goOn}
	}
	return p.stop(nil)
}

// startSpan marks the cursor as the start of a span, deferred when the
// compilation asks for charges and settles spans.
func (p *player) startSpan() {
	p.mark, p.deferring = p.cursor, p.asks.ChargeSpan != nil && p.asks.Charges
	p.next = min(p.worked+p.batch, p.budget)
}

// settle charges the deferred span, if there is one, and reports true; or
// it rewinds to the span's start, stops deferring and reports false. The
// cursor is a value and the tape and memo only grow, so the rewind is an
// assignment: what the kernel explored past mark stays, as it does after
// any compilation that stops short of the tape's end.
func (p *player) settle() bool {
	if !p.deferring {
		return true
	}
	exprs, groups := p.exprs-p.mark.exprs, p.groups-p.mark.groups
	if exprs == 0 {
		return true
	}
	if p.asks.ChargeSpan(exprs, groups) {
		p.r.o.work.settled.Add(1)
		return true
	}
	p.r.o.work.refused.Add(1)
	p.cursor, p.deferring = p.mark, false
	return false
}

// stop ends exploration, failed by err or not. It demands the Work done
// since the last, if any; then (called again) the Codegen of a compilation
// that asks for one and neither failed nor was cut; then it finishes.
func (p *player) stop(err error) Demand {
	o := p.r.o
	if p.phase != ending {
		p.drop()
		counts.inlineSteps.Add(uint64(p.inline))
		o.work.steps.Add(uint64(p.tasks))
		if p.tasks > p.budget {
			panic("optimizer: a compilation took more tasks than its budget")
		}
		p.phase, p.err, p.owed = ending, err, 0
		if n := p.tasks - p.worked; n > 0 {
			return Demand{Kind: WorkDemand, N: int64(n)}
		}
	}
	if p.err != nil || p.bestEffort || !p.asks.Codegen {
		return p.finish(p.err)
	}
	p.phase = generating
	return Demand{Kind: CodegenDemand, N: o.cfg.Memo.Bytes(p.groups, p.exprs)}
}

// finish ends the compilation: with err, or with the plan extracted at its
// cursor.
func (p *player) finish(err error) Demand {
	r, o := p.r, p.r.o
	p.hold()
	r.target.Store(0) // the helper has nothing left to do for this compilation
	if err != nil {
		r.unsolve() // a retained exploration holds no DP tables
		return Demand{Err: err}
	}
	if !p.bestEffort && p.at() != r.final {
		panic("optimizer: a compilation that was not cut stopped short of the statement's final cursor")
	}
	out := r.extract(p.at())
	out.BestEffort = p.bestEffort
	out.ExprsExplored = p.exprs
	out.CompileBytes = o.cfg.Memo.Bytes(p.groups, p.exprs)
	o.work.extractions.Add(1)
	o.work.groups.Add(uint64(p.groups))
	o.work.exprs.Add(uint64(p.exprs))
	return Demand{Plan: out}
}

// hold takes the run for the player, to read its tape or memo or to advance
// it; drop lets it go.
func (p *player) hold() {
	if !p.held {
		p.r.take()
		p.held = true
	}
}

func (p *player) drop() {
	if p.held {
		p.r.mu.Unlock()
		p.held = false
	}
}

// jumps is false only in the differential tests that play a compilation
// with and without batch-to-batch moves (export_test.go).
var jumps = true

// jump moves a player that stands at the start of a deferred span over the
// whole work batch ahead of it, and reports whether it did. The player has
// taken every step of the tape so far exactly once, so worked/batch batches
// lie behind it and the kernel's next mark is its cursor after the batch's
// last step — whose boundary the caller runs next. A published mark is read
// without holding the run; to one that is not the player advances the run
// itself. It stays put when the batch would cross the budget (the walk finds
// the step that exhausts it) or when the search space ends before the batch
// does (no mark: the walk finds the end).
func (p *player) jump() bool {
	if p.worked+p.batch > p.budget || !jumps {
		return false
	}
	r, k := p.r, p.worked/p.batch
	if int(r.nmarks.Load()) <= k {
		p.hold()
		for int(r.nmarks.Load()) <= k {
			if p.inline++; !r.advance() {
				return false
			}
		}
	}
	m := r.marks[k]
	p.pos, p.groups, p.exprs = int(m.pos), int(m.groups), int(m.exprs)
	p.tasks = p.worked + p.batch
	return true
}

func (o *Optimizer) effortBudget(cost float64) int {
	b := o.cfg.MinTasks + int(cost*o.cfg.EffortPerCost)
	if b > o.cfg.MaxTasks {
		b = o.cfg.MaxTasks
	}
	return b
}

// resolve binds query tables against the catalog and precomputes the join
// graph structures.
func (r *run) resolve() error {
	var tables uint64
	for i := range r.q.Tables {
		term := &r.q.Tables[i]
		t := r.o.cat.Table(term.Name)
		if t == nil {
			return fmt.Errorf("optimizer: unknown table %s", term.Name)
		}
		r.tableOf[term.Name] = t
		sel := r.o.est.CombinedSelectivity(term.Preds)
		card := float64(t.Rows) * sel
		if card < 1 {
			card = 1
		}
		r.leafCard[t.ID] = card
		r.leafSel[t.ID] = sel
		tables |= 1 << uint(t.ID)
		r.terms = append(r.terms, term)
		r.tabs = append(r.tabs, t)
	}
	for s := tables; s != 0; s &= s - 1 {
		id := bits.TrailingZeros64(s)
		r.factors = append(r.factors, factor{mask: 1 << uint(id), by: [2]float64{1, r.leafCard[id]}})
	}
	for _, j := range r.q.Joins {
		a, b := r.tableOf[j.A], r.tableOf[j.B]
		if a == nil || b == nil {
			return fmt.Errorf("optimizer: join references unknown table %s-%s", j.A, j.B)
		}
		if r.adjacent[a.ID]&(1<<uint(b.ID)) != 0 {
			continue // repeated edge: one selectivity factor per table pair
		}
		r.adjacent[a.ID] |= 1 << uint(b.ID)
		r.adjacent[b.ID] |= 1 << uint(a.ID)
		r.factors = append(r.factors, factor{
			mask: 1<<uint(a.ID) | 1<<uint(b.ID),
			by:   [2]float64{1, r.o.est.JoinSelectivity(j.A, j.B)},
		})
	}
	return nil
}

// factor is one term of the cardinality product: a leaf's filtered
// cardinality (mask: its table's bit) or a join edge's selectivity (mask:
// both endpoint bits). It applies to the sets that cover mask.
type factor struct {
	mask uint64
	by   [2]float64 // what to multiply by: 1 when it does not apply, else its value
}

// applies is 1 when set covers mask and 0 otherwise. The compiler turns it
// into a flag-to-register move: there is no branch to mispredict. (The &1
// tells it the result indexes a [2]float64 without a bounds check.)
func applies(set, mask uint64) int {
	b := 0
	if set&mask == mask {
		b = 1
	}
	return b & 1
}

// cards4 estimates the cardinality of joining exactly the tables in each of
// four sets: the product of their filtered leaf cardinalities (ascending
// table ID, so the float rounding matches run to run) and of the
// selectivities of all join edges internal to the set, at least 1. It is a
// pure function of the resolved query. Each product is one chain of
// dependent multiplications, so a single one leaves the multiplier idle for
// most of its latency; four independent chains advance together instead.
// Every chain visits every factor in the same order and multiplies by 1
// where the factor does not apply — x*1 is x for every float, so a lane's
// result is bit for bit the product of the factors that do apply, taken in
// that order.
func (r *run) cards4(sets [4]uint64) [4]float64 {
	s0, s1, s2, s3 := sets[0], sets[1], sets[2], sets[3]
	c0, c1, c2, c3 := 1.0, 1.0, 1.0, 1.0
	for i := range r.factors {
		f := &r.factors[i]
		c0 *= f.by[applies(s0, f.mask)]
		c1 *= f.by[applies(s1, f.mask)]
		c2 *= f.by[applies(s2, f.mask)]
		c3 *= f.by[applies(s3, f.mask)]
	}
	out := [4]float64{c0, c1, c2, c3}
	for i, c := range out {
		if c < 1 { // not max(c, 1): a NaN product stays the NaN it is
			out[i] = 1
		}
	}
	return out
}

// fillCards extends cards to the memo's first n groups and reports true, or,
// when it yields to a player that waits for the run, stops at a whole number
// of solveChunk groups past where it began and reports false.
func (r *run) fillCards(n int, yield bool) bool {
	from := len(r.cards)
	if from >= n {
		return true
	}
	r.cards = slices.Grow(r.cards, n-from)[:n]
	for g := from; g < n; g += 4 {
		if yield && g > from && (g-from)%solveChunk == 0 && r.wanted.Load() {
			r.cards = r.cards[:g]
			return false
		}
		var sets [4]uint64
		for i := 0; i < 4 && g+i < n; i++ {
			sets[i] = r.m.Group(memo.GroupID(g + i)).Set
		}
		c := r.cards4(sets)
		copy(r.cards[g:], c[:])
	}
	return true
}

// buildInitial creates leaf groups and a connectivity-respecting left-deep
// join tree in greedy smallest-cardinality-first order, taping every
// structure and leaving the root group in r.root. This is the "first
// complete plan" dynamic optimization starts from.
func (r *run) buildInitial() error {
	m := r.m
	r.leaves = r.leaves[:0]
	for i := range r.terms {
		t := r.tabs[i]
		r.leaves = append(r.leaves, m.AddLeaf(t.ID, r.adjacent[t.ID]))
		r.tape = append(r.tape, segGroup)
	}
	if len(r.terms) == 1 {
		r.root = r.leaves[0]
		return nil
	}

	// Pick the smallest filtered leaf as the seed, then greedily join the
	// connected table that minimizes intermediate cardinality.
	r.remaining = r.remaining[:0]
	for range r.terms {
		r.remaining = append(r.remaining, true)
	}
	curIdx := 0
	for i := range r.terms {
		if r.leafCard[r.tabs[i].ID] < r.leafCard[r.tabs[curIdx].ID] {
			curIdx = i
		}
	}
	cur := r.leaves[curIdx]
	r.remaining[curIdx] = false
	for left := len(r.terms) - 1; left > 0; left-- {
		curSet, curNbr := m.Group(cur).Set, m.Group(cur).Nbr
		bestIdx := -1
		bestCard := math.Inf(1)
		for i := 0; i < len(r.terms); {
			// The next four connected candidates, estimated together.
			var cand [4]int
			var sets [4]uint64
			k := 0
			for ; i < len(r.terms) && k < 4; i++ {
				bit := uint64(1) << uint(r.tabs[i].ID)
				if r.remaining[i] && curNbr&bit != 0 {
					cand[k], sets[k] = i, curSet|bit
					k++
				}
			}
			if k == 0 {
				break
			}
			cards := r.cards4(sets)
			for j := 0; j < k; j++ {
				if cards[j] < bestCard {
					bestIdx, bestCard = cand[j], cards[j]
				}
			}
		}
		if bestIdx < 0 {
			// Validate() guarantees connectivity, so this is unreachable
			// unless the query lied; fail loudly.
			return fmt.Errorf("optimizer: disconnected join graph at %s", r.terms[curIdx].Name)
		}
		// Each join covers one table more than the last: its group is new.
		cur, _ = m.AddJoin(cur, r.leaves[bestIdx])
		r.tape = append(r.tape, segGroup)
		r.remaining[bestIdx] = false
	}
	r.root = cur
	return nil
}

// advance is the kernel: it applies the rules to the next unexplored
// expression and tapes what that did, or reports false, taping nothing,
// when every expression has had its rules applied — then the tape's end is
// final, unless the budget's step came first. Rule application goes
// round-robin across groups (the group count grows while it iterates); a
// pass that finds nothing unexplored ends the search.
func (r *run) advance() bool {
	m := r.m
	for {
		for ; int(r.g) < m.Groups(); r.g++ {
			if e := m.PopUnexplored(r.g); e != memo.NoExpr {
				r.progressed = true
				r.applyRules(r.g, e)
				return true
			}
		}
		if !r.progressed {
			if r.final.pos == 0 {
				r.final = r.here()
			}
			return false
		}
		r.g, r.progressed = 0, false
	}
}

// applyRules derives new alternatives from one expression: join
// commutativity and left-associativity (with commutativity these generate
// the connected bushy space). The memo's arenas may move on every add, so
// expressions and groups are re-read by ID rather than held by pointer.
func (r *run) applyRules(g memo.GroupID, id memo.ExprID) {
	m := r.m
	e := m.Expr(id)
	if e.Kind != memo.KindJoin {
		r.tapeStep(segStep)
		return
	}
	l, rt := e.L, e.R
	commute, assoc := !e.CommuteApplied, !e.AssocApplied
	e.CommuteApplied, e.AssocApplied = true, true
	var added uint16 // expressions added to existing groups since the last step

	// Commute: L ⋈ R  =>  R ⋈ L. The alternative lands in g itself, so
	// no set lookup is needed. The twin is born commuted: commuting it
	// back could only re-derive e.
	if commute {
		if twin := m.AddJoinInto(g, rt, l); twin != memo.NoExpr {
			m.Expr(twin).CommuteApplied = true
			added = 1
		}
	}
	if !assoc {
		r.tapeStep(added | segStep)
		return
	}

	// Associate: (A ⋈ B) ⋈ R  =>  A ⋈ (B ⋈ R), for every join shape of L.
	rtSet := m.Group(rt).Set
	for le := m.Group(l).FirstExpr(); le != memo.NoExpr; le = m.Expr(le).Next() {
		x := m.Expr(le)
		if x.Kind != memo.KindJoin {
			continue
		}
		a, b := x.L, x.R
		bg := m.Group(b)
		if bg.Nbr&rtSet == 0 {
			continue // would introduce a cross product
		}
		inner, ok := m.GroupBySet(bg.Set | rtSet)
		step := segStep
		if ok {
			if m.AddJoinInto(inner, b, rt) != memo.NoExpr {
				added = r.count(added)
			} else {
				step = 0
			}
		} else {
			inner, _ = m.AddJoin(b, rt)
			step |= segGroup
		}
		if step != 0 {
			r.tapeStep(added | step)
			added = 0
		}
		if m.AddJoinInto(g, a, inner) != memo.NoExpr {
			added = r.count(added)
		}
	}
	r.tapeStep(added | segStep)
}

// tapeStep tapes a segment that ends in a step, and marks the tape where the
// step is the last of a work batch, and where it is the budget's.
func (r *run) tapeStep(seg uint16) {
	r.tape = append(r.tape, seg)
	r.steps++
	if r.steps%r.o.cfg.WorkBatch == 0 {
		if n := int(r.nmarks.Load()); n < len(r.marks) {
			r.marks[n] = r.here()
			r.nmarks.Store(int32(n + 1))
		}
	}
	if r.steps == r.budget {
		r.final = r.here()
	}
}

// count adds one to a segment's expression count, spilling a full count
// to the tape as a stepless segment first.
func (r *run) count(added uint16) uint16 {
	if added == segExprs {
		r.tape = append(r.tape, added)
		return 1
	}
	return added + 1
}

// costed is the DP table entry for plan extraction: a group's cheapest
// expression.
type costed struct {
	cost float64
	expr memo.ExprID
	// Leaf access path choice:
	op   plan.Op
	frac float64 // fraction of extents read
}

// solve fills the DP table with every group's cheapest expression,
// bottom-up: a join's children cover strictly fewer tables than its
// group, so visiting groups by ascending table count (a counting sort on
// the popcount of their sets) finds both children's entries final. Each
// group keeps the first of its cheapest expressions in insertion order.
// It reads the memo prefix at, and is what computes its groups'
// cardinalities. With yield (the helper's) it gives up, reporting false, at
// a look at wanted every solveChunk groups that finds a player waiting.
func (r *run) solve(at batchMark, yield bool) bool {
	m := r.m
	n, nExprs := int(at.groups), int(at.exprs)
	r.solved = batchMark{}
	if !r.fillCards(n, yield) {
		return false
	}
	cards := r.cards
	if r.t == nil {
		r.t = dpPool.Get().(*dpTables)
	}
	t := r.t
	if cap(t.dp) < n { // with room: with a helper, tables are held by several runs, and each grows apart
		t.dp = make([]costed, n, 2*n)
		t.order = make([]memo.GroupID, n, 2*n)
	}
	t.dp, t.order = t.dp[:n], t.order[:n]
	var start [66]int32 // start[c]: first slot of the groups covering c tables
	for g := 0; g < n; g++ {
		start[bits.OnesCount64(m.Group(memo.GroupID(g)).Set)+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	for g := 0; g < n; g++ {
		c := bits.OnesCount64(m.Group(memo.GroupID(g)).Set)
		t.order[start[c]] = memo.GroupID(g)
		start[c]++
	}

	for i, id := range t.order {
		if yield && i > 0 && i%solveChunk == 0 && r.wanted.Load() {
			return false
		}
		g := m.Group(id)
		if m.Expr(g.FirstExpr()).Kind == memo.KindLeaf {
			t.dp[id] = r.bestScan(bits.TrailingZeros64(g.Set), g.FirstExpr())
			continue
		}
		out := costed{cost: math.Inf(1), expr: memo.NoExpr}
		for eid := g.FirstExpr(); eid != memo.NoExpr && int(eid) < nExprs; {
			e := m.Expr(eid)
			// Hash join, right side builds.
			c := t.dp[e.L].cost + t.dp[e.R].cost + float64(cards[e.R]*plan.BuildRowCost) + float64(cards[e.L]*plan.CPURowCost) + float64(cards[id]*plan.CPURowCost)
			if c < out.cost {
				out = costed{cost: c, expr: eid}
			}
			eid = e.Next()
		}
		t.dp[id] = out
	}
	r.solved = at
	return true
}

// unsolve returns the DP's tables, if the run holds them, to their pool.
func (r *run) unsolve() {
	if r.t != nil {
		dpPool.Put(r.t)
		r.t = nil
	}
	r.solved = batchMark{}
}

// bestScan picks the access path of the leaf group over table tid, whose
// one expression is e.
func (r *run) bestScan(tid int, e memo.ExprID) costed {
	t := r.o.cat.Tables()[tid]
	extents := float64(r.o.cat.Extents(t))
	sel := r.leafSel[tid]
	// Sequential scan.
	out := costed{cost: float64(extents*plan.SeqExtentCost) + float64(float64(t.Rows)*plan.CPURowCost), expr: e, op: plan.OpSeqScan, frac: 1}
	// Index scan when a filtered column has a leading index and the filter
	// is selective enough to beat sequential I/O.
	if term := r.q.Table(t.Name); term != nil {
		for _, p := range term.Preds {
			if !t.HasIndexOn(p.Column) {
				continue
			}
			idx := float64(extents*sel*plan.RandExtentCost) + float64(float64(t.Rows)*sel*plan.CPURowCost)
			if idx < out.cost {
				out = costed{cost: idx, expr: e, op: plan.OpIndexScan, frac: sel}
			}
		}
	}
	return out
}

// extract computes the cheapest implementation of every group in the memo
// prefix at, unless the helper solved exactly that prefix, and materializes
// the physical plan reachable from the root (with the query's aggregate on
// top when present). The DP table is a pooled slice indexed by group ID
// rather than a map, and the plan's nodes come from a single exactly-sized
// arena owned by the plan — one allocation per extraction instead of one per
// node.
func (r *run) extract(at batchMark) *plan.Plan {
	root := r.root
	if r.solved == at {
		counts.solveHits.Add(1)
	} else {
		r.solve(at, false)
	}
	count := r.countNodes(root)
	if len(r.q.GroupBy) > 0 {
		count++
	}
	arena := make([]plan.Node, count)
	r.arena, r.arenaNext = arena, 0
	node := r.buildNode(root)
	// Aggregation on top.
	if len(r.q.GroupBy) > 0 {
		groups := r.groupByDistinct(node.OutCard)
		aggs := r.q.Aggregates
		if aggs < 1 {
			aggs = 1
		}
		aggCost := float64(node.OutCard*plan.AggRowCost*float64(aggs)) + float64(groups*plan.BuildRowCost)
		agg := r.newNode()
		*agg = plan.Node{
			Op:          plan.OpHashAgg,
			Left:        node,
			OutCard:     groups,
			NodeCost:    aggCost,
			SubtreeCost: node.SubtreeCost + aggCost,
			BuildBytes:  int64(groups) * plan.HashRowBytes * 2,
		}
		node = agg
	}
	r.arena = nil // the plan owns the arena now
	r.unsolve()
	return &plan.Plan{Root: node}
}

// countNodes sizes the plan-node arena: the number of nodes buildNode
// will materialize for the chosen expression tree.
func (r *run) countNodes(g memo.GroupID) int {
	e := r.m.Expr(r.t.dp[g].expr)
	if e.Kind == memo.KindLeaf {
		return 1
	}
	return 1 + r.countNodes(e.L) + r.countNodes(e.R)
}

// newNode hands out the next arena slot.
func (r *run) newNode() *plan.Node {
	n := &r.arena[r.arenaNext]
	r.arenaNext++
	return n
}

// groupByDistinct estimates the aggregate's output groups, reusing the
// run's column scratch.
func (r *run) groupByDistinct(card float64) float64 {
	r.aggCols = r.aggCols[:0]
	for _, c := range r.q.GroupBy {
		r.aggCols = append(r.aggCols, struct{ Table, Column string }{c.Table, c.Column})
	}
	return r.o.est.DistinctAfterGroupBy(card, r.aggCols)
}

// costInitial is extract().Cost() of the memo buildInitial left, without
// materializing plan nodes: the same DP over the same groups with the same
// operand order, so the effort budget it feeds is bit-identical to the
// materializing version.
func (r *run) costInitial() float64 {
	root := r.root
	r.solve(r.here(), false)
	cost := r.subtreeCost(root)
	r.unsolve()
	if len(r.q.GroupBy) > 0 {
		card := r.cards[root]
		groups := r.groupByDistinct(card)
		aggs := r.q.Aggregates
		if aggs < 1 {
			aggs = 1
		}
		aggCost := float64(card*plan.AggRowCost*float64(aggs)) + float64(groups*plan.BuildRowCost)
		cost = cost + aggCost
	}
	return cost
}

// subtreeCost mirrors buildNode's SubtreeCost arithmetic (operand order
// included — float addition is not associative) without allocating the
// nodes.
func (r *run) subtreeCost(id memo.GroupID) float64 {
	c := &r.t.dp[id]
	e := r.m.Expr(c.expr)
	if e.Kind == memo.KindLeaf {
		return c.cost
	}
	lc := r.subtreeCost(e.L)
	rc := r.subtreeCost(e.R)
	own := float64(r.cards[e.R]*plan.BuildRowCost) + float64(r.cards[e.L]*plan.CPURowCost) + float64(r.cards[id]*plan.CPURowCost)
	return lc + rc + own
}

// buildNode materializes the chosen expression tree for g out of the
// extraction arena.
func (r *run) buildNode(id memo.GroupID) *plan.Node {
	c := &r.t.dp[id]
	e := r.m.Expr(c.expr)
	if e.Kind == memo.KindLeaf {
		n := r.newNode()
		tab := r.o.cat.Tables()[bits.TrailingZeros64(r.m.Group(id).Set)]
		*n = plan.Node{
			Op:           c.op,
			Table:        tab.Name,
			Tab:          tab,
			ScanFraction: c.frac,
			OutCard:      r.cards[id],
			NodeCost:     c.cost,
			SubtreeCost:  c.cost,
		}
		return n
	}
	ln := r.buildNode(e.L)
	rn := r.buildNode(e.R)
	own := float64(r.cards[e.R]*plan.BuildRowCost) + float64(r.cards[e.L]*plan.CPURowCost) + float64(r.cards[id]*plan.CPURowCost)
	n := r.newNode()
	*n = plan.Node{
		Op:          plan.OpHashJoin,
		Left:        ln,
		Right:       rn,
		OutCard:     r.cards[id],
		NodeCost:    own,
		SubtreeCost: ln.SubtreeCost + rn.SubtreeCost + own,
		BuildBytes:  int64(r.cards[e.R]) * plan.HashRowBytes,
	}
	return n
}
