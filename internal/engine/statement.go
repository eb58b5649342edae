package engine

import (
	"slices"
	"time"

	"compilegate/internal/core"
	"compilegate/internal/executor"
	"compilegate/internal/optimizer"
	"compilegate/internal/plan"
	"compilegate/internal/sqlparser"
	"compilegate/internal/vtime"
)

// The statement lifecycle. A submission passes through five phases:
//
//	identify  text → fingerprint and locality seed: the snapshot's static
//	          map, the per-run memo, or — for text seen for the first
//	          time — the parse
//	probe     one plan-cache lookup (it counts, and it reorders the LRU)
//	compile   only on a miss: the governed optimizer, on a coroutine
//	execute   grant → plan nodes → spill/refault I/O
//	record    completion or error, into the metrics and to the caller
//
// SubmitThen walks them as continuation steps on the event loop; compile
// is the one phase that needs a stack (the optimizer's player calls the
// blocking Charge and Work hooks from inside its recursion), so it runs
// as a blocking section and a statement whose plan is cached never
// touches a coroutine.

// queryMemoCap bounds the statement-text memo, which keeps the identity
// of text the snapshot does not know, so repeated workload SQL skips
// re-parsing and re-hashing when the plan cache holds its plan. The SALES
// workload uniquifies every query, so without a cap an 8-hour run would
// retain every statement ever submitted. Eviction is wholesale: the memo
// is a pure cache, so clearing it only costs re-derivation.
const queryMemoCap = 8192

// parse returns sql parsed into a recycled query shell; the parse Resets
// the shell, so stale contents (even from a failed parse) are harmless.
func (s *Server) parse(sql string) (*plan.Query, error) {
	q := s.queries.Get()
	if q == nil {
		q = new(plan.Query)
	}
	if err := sqlparser.ParseInto(q, sql); err != nil {
		s.queries.Put(q)
		return nil, err
	}
	return q, nil
}

// attempt is what a submission holds while it compiles: the parsed
// statement and its exploration. The paper's failed compilations "likely
// need to be resubmitted", and a resubmission is the same text, so a
// compilation that fails leaves its attempt in the server's retained table
// and the next submission of that text takes it out and compiles on the
// recorded exploration: no parse, no binding, and no re-exploring what the
// failed compilation already explored — while every charge, work batch and
// best-effort poll is made as if it had. An attempt has one owner at a
// time: taking it removes it from the table, so two tasks compiling one
// text never share one.
type attempt struct {
	sql  string
	seed int64 // the statement's locality seed: a cheap first compare
	q    *plan.Query
	x    optimizer.Exploration
}

// retainedCap bounds the retained table. A client resubmits a failed
// statement within its backoff or not at all, so the entries that will be
// taken are the failures of the last few seconds; the rest are leftovers
// of abandoned statements, which the oldest-first displacement clears. On
// the 40-client collapse shape 8 slots serve all but one resubmission in
// 27 thousand (4 lose 2%), and each slot keeps a run's arenas out of the
// pools, so more is only memory (DESIGN.md, "Recorded exploration").
const retainedCap = 8

// takeRetained removes and returns the attempt a failed submission of sql
// left, or nil.
func (s *Server) takeRetained(sql string, seed int64) *attempt {
	for i, a := range s.retained {
		if a.seed == seed && a.sql == sql {
			s.retained = slices.Delete(s.retained, i, i+1)
			return a
		}
	}
	return nil
}

// newAttempt starts an attempt over the freshly parsed q, which it owns
// from here on.
func (s *Server) newAttempt(sql string, seed int64, q *plan.Query) *attempt {
	a := s.attempts.Get()
	if a == nil {
		a = new(attempt)
	}
	a.sql, a.seed, a.q, a.x = sql, seed, q, s.opt.Explore(q)
	return a
}

// releaseAttempt returns an attempt's exploration and query to the pools.
func (s *Server) releaseAttempt(a *attempt) {
	a.x.Release()
	s.queries.Put(a.q)
	a.sql, a.q = "", nil
	s.attempts.Put(a)
}

// finishAttempt ends a compilation's hold on its attempt. A failure under
// the epoch the submission started in retains it, displacing the oldest
// entry of a full table; success releases it, and so does a crash — the
// process that explored is gone.
func (s *Server) finishAttempt(a *attempt, failed bool, epoch uint64) {
	if !failed || s.crashEpoch != epoch {
		s.releaseAttempt(a)
		return
	}
	if len(s.retained) == retainedCap {
		s.releaseAttempt(s.retained[0])
		s.retained = slices.Delete(s.retained, 0, 1)
	}
	s.retained = append(s.retained, a)
}

// statement is one submission's state across the phases; it is also the
// step both asynchronous phases resume (see Run).
type statement struct {
	s     *Server
	id    StmtID
	epoch uint64 // the crash epoch the submission started under
	// a is held from the probe's miss until Run has seen the compilation's
	// outcome; non-nil is how Run knows which phase it resumes.
	a         *attempt
	p         *plan.Plan
	err       error // the outcome of the phase that just ended
	execStart time.Duration
	errp      *error
	k         vtime.Step
}

// Submit is SubmitThen for blocking-style callers.
func (s *Server) Submit(t *vtime.Task, sql string) error {
	return t.AwaitErr(func(errp *error, k vtime.Step) { s.SubmitThen(t, sql, errp, k) })
}

// SubmitThen runs one query end to end on behalf of t, then stores its
// error (nil for a completion; already recorded in the metrics either
// way) through errp and runs k.
func (s *Server) SubmitThen(t *vtime.Task, sql string, errp *error, k vtime.Step) {
	st := s.stmts.Get()
	if st == nil {
		st = &statement{s: s}
	}
	st.errp, st.k, st.epoch = errp, k, s.crashEpoch
	if s.down {
		// Crashed: the connection is refused outright. Recorded like any
		// other failure so the error series shows the outage.
		st.record(t, ErrCrashed)
		return
	}

	// Identify.
	var q *plan.Query
	if id, ok := s.static[sql]; ok {
		// Snapshot-shared identity: the statement's fingerprint and seed
		// were derived once for the workload shape; nothing to memoize.
		st.id = id
	} else if id, ok := s.queryMemo[sql]; ok {
		st.id = id
	} else {
		var err error
		if q, err = s.parse(sql); err != nil {
			st.record(t, err)
			return
		}
		// Execution locality is seeded from the full fingerprint so
		// repeated statements overlap on hot regions while distinct
		// queries get independent locality (length + first byte collide
		// far too often). Only successfully parsed text enters the memo,
		// so malformed SQL keeps its parse-first error behaviour.
		fp := sqlparser.Fingerprint(sql)
		st.id = StmtID{Fingerprint: fp, Seed: int64(sqlparser.Hash64(fp)), Static: -1}
		if len(s.queryMemo) >= queryMemoCap {
			clear(s.queryMemo)
		}
		s.queryMemo[sql] = st.id
	}

	// Probe. A hit executes a prepared plan: prep carries the plan's
	// scan-extent lists from one execution to the next (see execute for the
	// statements that keep their own).
	if p, prep, cached := s.cache.Get(st.id.Fingerprint, st.id.Static); cached {
		if q != nil {
			s.queries.Put(q)
		}
		st.execute(t, p, prep)
		return
	}

	// Compile, on the exploration a failed submission of this text left or
	// on a new one over the parsed statement.
	if st.a = s.takeRetained(sql, st.id.Seed); st.a == nil {
		if q == nil {
			var err error
			if q, err = s.parse(sql); err != nil {
				st.record(t, err)
				return
			}
		}
		st.a, q = s.newAttempt(sql, st.id.Seed, q), nil
	}
	if q != nil {
		s.queries.Put(q)
	}
	t.Block((*compiling)(st), st)
}

// compiling is a statement as the body of its blocking section.
type compiling statement

func (st *compiling) Run(t *vtime.Task) {
	st.p, st.err = st.s.compile(t, st.a)
}

// execute runs p with prep — the plan-cache entry's Prepared on a hit, nil
// for a freshly compiled plan, most of which are never seen again — unless
// the statement is one of the snapshot's: its text compiles to the same plan
// every time, so the plan's scan lists are the statement's, recorded once
// per server and replayed by every execution after, cached or recompiled. A
// best-effort cut may order the scans differently and goes by prep.
func (st *statement) execute(t *vtime.Task, p *plan.Plan, prep *executor.Prepared) {
	if i := st.id.Static; i >= 0 && !p.BestEffort && staticPrepared {
		prep = &st.s.staticPrep[i]
	}
	st.execStart = t.Now()
	st.s.exec.ExecuteThen(t, p, st.id.Seed, prep, nil, &st.err, st)
}

// Run is the continuation tail of both asynchronous phases, and the one
// place crash semantics live: virtual time passed since SubmitThen, and if
// the crash epoch moved with it the engine crashed under this statement.
// The process that compiled or executed is gone and so is the client's
// connection, so whatever the phase concluded the statement fails with
// ErrCrashed and nothing of it may reach the (new) plan cache or the
// retained table. The exception is a compilation that failed on its own:
// it keeps its error (its charge hook already reports ErrCrashed when the
// crash is what stopped it).
func (st *statement) Run(t *vtime.Task) {
	s := st.s
	err, crashed := st.err, s.crashEpoch != st.epoch
	if a := st.a; a != nil {
		st.a = nil
		if err == nil && crashed {
			err = ErrCrashed
		}
		s.finishAttempt(a, err != nil, st.epoch)
		if err == nil {
			s.cache.Put(st.id.Fingerprint, st.id.Static, st.p, t.Now())
			st.execute(t, st.p, nil)
			return
		}
	} else {
		if crashed {
			err = ErrCrashed
		}
		if err == nil {
			s.execHist.Observe(t.Now() - st.execStart)
		}
	}
	st.record(t, err)
}

// record is the last phase, and the only place a statement's outcome
// reaches the metrics: err's class names the error series it joins.
func (st *statement) record(t *vtime.Task, err error) {
	s := st.s
	if err != nil {
		s.rec.RecordError(t.Now(), classify(err))
	} else {
		s.rec.RecordCompletion(t.Now())
	}
	*st.errp = err
	k := st.k
	st.p, st.err, st.errp, st.k = nil, nil, nil, nil
	s.stmts.Put(st)
	k.Run(t)
}

// compileWorkOp is the continuation op behind one optimizer Work batch:
// burn the batch's CPU on the processor pool, then pay the non-CPU wait
// (metadata fetches, latching). Both phases run as event-loop steps, so
// a compilation's many work batches each cost a single coroutine round
// trip instead of one per CPU quantum.
type compileWorkOp struct {
	s     *Server
	cpu   time.Duration
	tasks int
	k     vtime.Step
	state int8
}

func (op *compileWorkOp) Run(t *vtime.Task) {
	s := op.s
	switch op.state {
	case 0:
		op.state = 1
		s.cpu.UseThen(t, op.cpu, op)
	case 1:
		if s.cfg.CompileTaskWait > 0 {
			// Metadata fetches and latching stretch with the paging
			// slowdown too: a thrashing machine faults on catalog
			// pages like everything else. The slowdown is read after
			// the CPU phase, when the wait actually starts.
			wait := time.Duration(op.tasks) * s.cfg.CompileTaskWait
			if f := s.budget.Slowdown(); f > 1 {
				wait = time.Duration(float64(wait) * f)
			}
			op.state = 2
			t.SleepThen(wait, op)
			return
		}
		op.finish(t)
	case 2:
		op.finish(t)
	}
}

func (op *compileWorkOp) finish(t *vtime.Task) {
	k := op.k
	op.k = nil
	op.s.workOps.Put(op)
	k.Run(t)
}

// compileWork charges one optimizer work batch on behalf of t.
func (s *Server) compileWork(t *vtime.Task, tasks int) {
	t.Await(func(k vtime.Step) {
		op := s.workOps.Get()
		if op == nil {
			op = &compileWorkOp{s: s}
		}
		op.cpu = time.Duration(tasks) * s.cfg.CompileTaskCPU
		op.tasks, op.k, op.state = tasks, k, 0
		op.Run(t)
	})
}

// stageRamp wires total additional bytes onto the compilation in
// StepBytes increments, charging StepTasks of optimizer work per step.
// Every increment passes through Compilation.Alloc, so the gateway
// ladder can block (or time out) the compiling task mid-ramp and the
// broker's trend detector sees the footprint actually climb between
// ticks. A failed step has already rolled the whole compilation back.
func (s *Server) stageRamp(t *vtime.Task, comp *core.Compilation, epoch uint64, total int64) error {
	st := s.cfg.CompileStages
	step := st.StepBytes
	if step <= 0 {
		step = total
	}
	for reserved := int64(0); reserved < total; {
		if s.crashEpoch != epoch {
			comp.Abort()
			return ErrCrashed
		}
		n := step
		if rest := total - reserved; n > rest {
			n = rest
		}
		if err := comp.Alloc(n); err != nil {
			return err
		}
		reserved += n
		if st.StepTasks > 0 {
			s.compileWork(t, st.StepTasks)
		}
	}
	return nil
}

// compileCtx carries one compilation's optimizer hook state. It is
// pooled, and the hook func values are bound to the ctx once when
// it is first created — starting a compilation rewrites the per-call
// fields in place instead of allocating fresh closures (the former
// single largest allocation source in a sweep).
type compileCtx struct {
	s    *Server
	t    *vtime.Task
	comp *core.Compilation
	// epoch is the crash epoch the compilation started under; a charge
	// after the engine crashed aborts the compilation with ErrCrashed.
	epoch uint64
	// exprExtra and groupExtra are the costing scratch that accretes with
	// one memo expression and one memo group: CompileStages.CostingScale
	// times the structure's bytes when the compilation is staged, else 0
	// (plain memo charges).
	exprExtra, groupExtra int64
	costingHeld           int64
	hooks                 optimizer.Hooks
}

// charge forwards the growth of the memo by one structure of n bytes to the
// compilation. When staged, the footprint the gateways see grows scale+1
// times as fast as the memo — exploration's memory is memo plus costing
// scratch.
func (c *compileCtx) charge(n int64) error {
	if c.s.crashEpoch != c.epoch {
		// The engine crashed under this compilation; stop growing
		// immediately (the caller aborts, releasing memory and gates).
		return ErrCrashed
	}
	extra := c.exprExtra
	if n != c.s.cfg.Optimizer.Memo.BytesPerExpr {
		extra = c.groupExtra
	}
	if err := c.comp.Alloc(n + extra); err != nil {
		return err
	}
	c.costingHeld += extra
	return nil
}

// chargeSpan is charge for every structure of a span at once, when the
// governor can take them so (see optimizer.Hooks.ChargeSpan). A crash
// refuses the span, so that its first charge reports it.
func (c *compileCtx) chargeSpan(exprs, groups int) bool {
	if c.s.crashEpoch != c.epoch {
		return false
	}
	extra := int64(exprs)*c.exprExtra + int64(groups)*c.groupExtra
	if !c.comp.AllocSpan(c.s.cfg.Optimizer.Memo.Bytes(groups, exprs)+extra, exprs+groups) {
		return false
	}
	c.costingHeld += extra
	return true
}

func (c *compileCtx) work(tasks int) { c.s.compileWork(c.t, tasks) }

func (c *compileCtx) bestEffort() bool { return c.comp.ShouldYieldBestEffort() }

func (s *Server) getCompileCtx(t *vtime.Task, comp *core.Compilation, scale float64) *compileCtx {
	c := s.compCtxs.Get()
	memo := s.cfg.Optimizer.Memo
	if c == nil {
		c = &compileCtx{s: s}
		c.hooks = optimizer.Hooks{Charge: c.charge, Work: c.work, BestEffort: c.bestEffort}
		// A span is so many reservations of at least a byte each; a memo
		// configured with a free structure is charged one by one.
		if spanCharging && memo.BytesPerExpr > 0 && memo.BytesPerGroup > 0 {
			c.hooks.ChargeSpan = c.chargeSpan
		}
	}
	c.t, c.comp, c.costingHeld, c.epoch = t, comp, 0, s.crashEpoch
	c.exprExtra, c.groupExtra = int64(scale*float64(memo.BytesPerExpr)), int64(scale*float64(memo.BytesPerGroup))
	return c
}

// spanCharging and staticPrepared are false only in the differential tests
// that run a whole simulation both ways (export_test.go).
var (
	spanCharging   = true
	staticPrepared = true
)

// compile optimizes a's statement under the governor, walking the staged
// memory phases: bind (fixed footprint) → join enumeration with costing
// scratch accreting alongside every memo charge → codegen (a ramp sized
// from the memo). Costing scratch is freed once codegen has consumed it;
// everything else is released when the compilation closes. It is
// blocking-style code: t must be inside a blocking section.
func (s *Server) compile(t *vtime.Task, a *attempt) (*plan.Plan, error) {
	comp := s.gov.Begin(t, "compile")
	start := t.Now()
	st := s.cfg.CompileStages
	staged := !st.Disabled && len(a.q.Tables) > 1
	if staged && st.BindBytes > 0 {
		if err := comp.Alloc(st.BindBytes); err != nil {
			return nil, err
		}
	}
	scale := 0.0
	if staged && st.CostingScale > 0 {
		scale = st.CostingScale
	}
	ctx := s.getCompileCtx(t, comp, scale)
	ctxEpoch := ctx.epoch
	p, err := a.x.Optimize(ctx.hooks)
	costingHeld := ctx.costingHeld
	// Optimize no longer holds the hooks once it returns, so the ctx can be
	// recycled before error handling.
	s.compCtxs.Put(ctx)
	if err != nil {
		// Alloc failures already rolled the compilation back; other
		// errors (validation) abort explicitly. Both are idempotent.
		comp.Abort()
		return nil, err
	}
	if staged && !p.BestEffort {
		if err := s.stageRamp(t, comp, ctxEpoch, int64(st.CodegenScale*float64(p.CompileBytes))); err != nil {
			return nil, err
		}
		// Costing scratch is dead once the physical plan exists; the
		// release mid-flight is what gives the broker a falling trend
		// to track.
		comp.Free(costingHeld)
	}
	// A best-effort plan skips the codegen ramp entirely: the §4.1
	// valve yielded the held plan precisely because the broker predicts
	// exhaustion, so the compilation must not grow further — otherwise
	// the ramp could fail with the very out-of-memory error the valve
	// exists to avoid.
	peak := comp.Peak()
	comp.Finish()
	s.compileHist.Observe(t.Now() - start)
	p.CompileBytes = peak
	s.compileMemSum += peak
	s.compileMemN++
	if peak > s.compileMemMax {
		s.compileMemMax = peak
	}
	return p, nil
}
