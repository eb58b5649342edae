package engine

import (
	"slices"
	"time"

	"compilegate/internal/core"
	"compilegate/internal/executor"
	"compilegate/internal/freelist"
	"compilegate/internal/optimizer"
	"compilegate/internal/plan"
	"compilegate/internal/sqlparser"
	"compilegate/internal/vtime"
)

// The statement lifecycle. A submission passes through five phases:
//
//	identify  text → fingerprint and locality seed: the snapshot's closed
//	          set by text, or one hash of any other text
//	probe     one plan-cache lookup (it counts, and it reorders the LRU)
//	compile   only on a miss: the governed optimizer, on a coroutine —
//	          explore → codegen ramp → extract, no plan if the ramp fails
//	execute   grant → plan nodes → refault I/O
//	record    completion or error, into the metrics and to the caller
//
// SubmitThen walks them as continuation steps on the event loop; compile
// is the one phase that needs a stack (the optimizer's player calls the
// blocking Charge, Work and Codegen hooks from inside its recursion), so it runs
// as a blocking section and a statement whose plan is cached never
// touches a coroutine.

// identify derives the identity of text outside the closed set. Execution
// locality is seeded from the full fingerprint so repeated statements
// overlap on hot regions while distinct queries get independent locality
// (length + first byte collide far too often).
func identify(sql string) StmtID {
	fp := sqlparser.Hash64(sql)
	return StmtID{Fingerprint: fp, Seed: int64(sqlparser.FingerprintHash(fp)), Static: -1}
}

// statements is everything a server knows about statement text that is not
// simulated (the plan cache is the only simulated cache, keyed by the
// identity derived here). A statement of the closed set has a record for the
// life of the server: its identity and parse (the snapshot's, shared
// read-only) and, by its dense index, the scan lists of the plan its text
// compiles to — a pure function of the statement, so they outlive the
// plan-cache entry, the recompilation and the crash. Any other text has a
// record only while something simulated points at it: the compilation in
// flight (its attempt), the resubmission a failed one waits for (the retained
// attempt), or its plan-cache entry, keyed by the hash. Text is looked up in
// the closed set and among the few retained attempts only, so nothing here
// grows with the statements seen and nothing needs evicting.
type statements struct {
	static     StaticStatements
	staticPrep []executor.Prepared
	// retained holds the attempts of failed compilations, oldest first, for
	// their resubmission to pick up; never more than retainedCap.
	retained []*attempt
	attempts freelist.List[attempt]
}

// attempt is one compilation's record, and all a submission holds while it
// compiles: the statement (text, identity, parse — the closed set's shared
// one, or the record's own), its exploration, the governor session with the
// gateway ticket inside it, and the optimizer hook state. The paper's
// failed compilations "likely need to be resubmitted", and a resubmission
// is the same text, so a compilation that fails leaves its attempt in the
// retained table and the next submission of that text takes it out and
// compiles on the recorded exploration: no hash, parse or binding, nothing
// explored twice — while every charge, work batch and best-effort poll is
// made as if it had been. Taking it removes it from the table, so two tasks
// compiling one text never share one. It is pooled, and returns to the pool
// only after its compilation has closed.
type attempt struct {
	s   *Server
	sql string
	id  StmtID
	q   *plan.Query
	own plan.Query // what q points at for text outside the closed set
	x   optimizer.Exploration

	t    *vtime.Task
	comp core.Compilation
	// epoch is the crash epoch the compilation started under; a charge
	// after the engine crashed aborts the compilation with ErrCrashed.
	epoch uint64
	// exprExtra and groupExtra are the costing scratch that accretes with
	// one memo expression and one memo group: CompileStages.CostingScale
	// times the structure's bytes when the compilation is staged, else 0
	// (plain memo charges).
	exprExtra, groupExtra int64
	costingHeld           int64
	// hooks are bound to the attempt once, when it is first created:
	// starting a compilation rewrites the fields above in place instead of
	// allocating fresh closures. Codegen is passed on only when the
	// compilation is staged.
	hooks optimizer.Hooks
}

// retainedCap bounds the retained table. A client resubmits a failed
// statement within its backoff or not at all, so the entries that will be
// taken are the failures of the last few seconds; the rest are leftovers
// of abandoned statements, which the oldest-first displacement clears. On
// the 40-client collapse shape 8 slots serve all but one resubmission in
// 27 thousand (4 lose 2%), and each slot keeps a run's arenas out of the
// pools, so more is only memory (DESIGN.md, "Statement lifecycle").
const retainedCap = 8

// leftBy returns the index in the retained table of the attempt a failed
// submission of sql left, or -1. A resubmission hands in the very string
// that failed, so the compare that matches is a pointer compare, and the
// ones that do not mostly differ in length.
func (s *Server) leftBy(sql string) int {
	for i, a := range s.retained {
		if a.sql == sql {
			return i
		}
	}
	return -1
}

// newAttempt starts an attempt at the statement: over the closed set's
// parse, or over its own parse of any other text — whose error is the
// statement's.
func (s *Server) newAttempt(sql string, id StmtID) (*attempt, error) {
	a := s.attempts.Get()
	if a == nil {
		a = &attempt{s: s}
		a.hooks = optimizer.Hooks{Charge: a.charge, Work: a.work, BestEffort: a.bestEffort, Codegen: a.codegen}
		// A span is so many reservations of at least a byte each; a memo
		// configured with a free structure is charged one by one.
		if memo := s.cfg.Optimizer.Memo; spanCharging && memo.BytesPerExpr > 0 && memo.BytesPerGroup > 0 {
			a.hooks.ChargeSpan = a.chargeSpan
		}
	}
	if a.q = id.Query; a.q == nil {
		if err := sqlparser.ParseInto(&a.own, sql); err != nil {
			s.attempts.Put(a)
			return nil, err
		}
		a.q = &a.own
	}
	a.sql, a.id, a.x = sql, id, s.opt.Explore(a.q)
	return a, nil
}

// releaseAttempt returns an attempt and its exploration to the pools.
func (s *Server) releaseAttempt(a *attempt) {
	a.x.Release()
	a.sql, a.q, a.t = "", nil, nil
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
	s.retained = append(s.retained, a)
	if len(s.retained) > retainedLimit {
		s.releaseAttempt(s.retained[0])
		s.retained = slices.Delete(s.retained, 0, 1)
	}
}

// dropRetained releases every retained attempt: the process that explored
// them is gone.
func (s *Server) dropRetained() {
	for _, a := range s.retained {
		s.releaseAttempt(a)
	}
	s.retained = slices.Delete(s.retained, 0, len(s.retained))
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

	// Identify. The closed set's identities were derived once per workload
	// shape, and a failed compilation's attempt kept its own; any other text
	// costs one hash of its bytes (1.7 µs of a SALES statement), no parse.
	left := s.leftBy(sql)
	id, ok := s.static[sql]
	if !ok {
		if left >= 0 {
			id = s.retained[left].id
		} else {
			id = identify(sql)
		}
	}
	st.id = id

	// Probe. A hit executes a prepared plan: prep carries the plan's
	// scan-extent lists from one execution to the next (see execute for the
	// statements that keep their own).
	if p, prep, cached := s.cache.Get(id.Fingerprint, id.Static); cached {
		st.execute(t, p, prep)
		return
	}

	// Compile, on the attempt a failed submission of this text left or on a
	// new one.
	if left >= 0 {
		st.a = s.retained[left]
		s.retained = slices.Delete(s.retained, left, left+1)
	} else {
		var err error
		if st.a, err = s.newAttempt(sql, id); err != nil {
			st.record(t, err)
			return
		}
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
		op.cpu = time.Duration(tasks) * compileTaskCPU
		op.tasks, op.k, op.state = tasks, k, 0
		op.Run(t)
	})
}

// stageRamp wires total additional bytes onto the compilation in
// StepBytes increments, charging stepTasks of optimizer work per step.
// Every increment passes through Compilation.Alloc, so the gateway
// ladder can block (or time out) the compiling task mid-ramp and the
// broker's trend detector sees the footprint actually climb between
// ticks. A failed step has already rolled the whole compilation back.
func (s *Server) stageRamp(t *vtime.Task, a *attempt, total int64) error {
	step := s.cfg.CompileStages.StepBytes
	if step <= 0 {
		step = total
	}
	for reserved := int64(0); reserved < total; {
		if s.crashEpoch != a.epoch {
			a.comp.Abort()
			return ErrCrashed
		}
		n := step
		if rest := total - reserved; n > rest {
			n = rest
		}
		if err := a.comp.Alloc(n); err != nil {
			return err
		}
		reserved += n
		s.compileWork(t, stepTasks)
	}
	return nil
}

// charge forwards the growth of the memo by one structure of n bytes to the
// compilation. When staged, the footprint the gateways see grows scale+1
// times as fast as the memo — exploration's memory is memo plus costing
// scratch.
func (a *attempt) charge(n int64) error {
	if a.s.crashEpoch != a.epoch {
		// The engine crashed under this compilation; stop growing
		// immediately (the caller aborts, releasing memory and gates).
		return ErrCrashed
	}
	extra := a.exprExtra
	if n != a.s.cfg.Optimizer.Memo.BytesPerExpr {
		extra = a.groupExtra
	}
	if err := a.comp.Alloc(n + extra); err != nil {
		return err
	}
	a.costingHeld += extra
	return nil
}

// chargeSpan is charge for every structure of a span at once, when the
// governor can take them so (see optimizer.Hooks.ChargeSpan). A crash
// refuses the span, so that its first charge reports it.
func (a *attempt) chargeSpan(exprs, groups int) bool {
	if a.s.crashEpoch != a.epoch {
		return false
	}
	extra := int64(exprs)*a.exprExtra + int64(groups)*a.groupExtra
	if !a.comp.AllocSpan(a.s.cfg.Optimizer.Memo.Bytes(groups, exprs)+extra, exprs+groups) {
		return false
	}
	a.costingHeld += extra
	return true
}

func (a *attempt) work(tasks int) { a.s.compileWork(a.t, tasks) }

// codegen is a staged compilation's last phase, once exploration is done and
// before the plan is built: a ramp sized from the memo. Costing scratch is
// dead once the ramp has consumed it; the release mid-flight is what gives
// the broker a falling trend to track.
func (a *attempt) codegen(memoBytes int64) error {
	if err := a.s.stageRamp(a.t, a, int64(a.s.cfg.CompileStages.CodegenScale*float64(memoBytes))); err != nil {
		return err
	}
	a.comp.Free(a.costingHeld)
	return nil
}

func (a *attempt) bestEffort() bool { return a.comp.ShouldYieldBestEffort() }

// spanCharging and staticPrepared are false, and retainedLimit other than
// retainedCap, only in the differential tests that run a whole simulation
// both ways (export_test.go).
var (
	spanCharging   = true
	staticPrepared = true
	retainedLimit  = retainedCap
)

// compile optimizes a's statement under the governor, walking the staged
// memory phases: bind (fixed footprint) → join enumeration with costing
// scratch accreting alongside every memo charge → codegen (a ramp sized
// from the memo, the optimizer's Codegen hook) → the plan, built only when
// the ramp succeeded. Costing scratch is freed once codegen has consumed it;
// everything else is released when the compilation closes, which it has
// on every return from here: a holds the session, so a may be retained or
// recycled only after. It is blocking-style code: t must be inside a
// blocking section.
func (s *Server) compile(t *vtime.Task, a *attempt) (*plan.Plan, error) {
	comp := &a.comp
	s.gov.BeginIn(comp, t, "compile")
	start := t.Now()
	st := s.cfg.CompileStages
	staged := !st.Disabled && len(a.q.Tables) > 1
	if staged {
		if err := comp.Alloc(bindBytes); err != nil {
			return nil, err
		}
	}
	scale := 0.0
	if staged && st.CostingScale > 0 {
		scale = st.CostingScale
	}
	memo := s.cfg.Optimizer.Memo
	a.t, a.costingHeld, a.epoch = t, 0, s.crashEpoch
	a.exprExtra, a.groupExtra = int64(scale*float64(memo.BytesPerExpr)), int64(scale*float64(memo.BytesPerGroup))
	hooks := a.hooks
	if !staged {
		hooks.Codegen = nil
	}
	// A best-effort plan skips the codegen ramp entirely: the §4.1
	// valve yielded the held plan precisely because the broker predicts
	// exhaustion, so the compilation must not grow further — otherwise
	// the ramp could fail with the very out-of-memory error the valve
	// exists to avoid.
	p, err := a.x.Optimize(hooks)
	if err != nil {
		// Alloc failures, the ramp's too, already rolled the compilation
		// back, and a crash mid-ramp aborted it; other errors (validation)
		// abort explicitly. All are idempotent.
		comp.Abort()
		return nil, err
	}
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
