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
//	compile   only on a miss: the governed optimizer — bind → explore →
//	          codegen ramp → extract, no plan if the ramp fails
//	execute   grant → plan nodes → refault I/O
//	record    completion or error, into the metrics and to the caller
//
// SubmitThen walks them as continuation steps on the event loop, compile
// included: attempt.Run meets each demand of the optimizer's player (a
// charge, a work batch, a codegen) with a *Then continuation.

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
// gateway ticket inside it, and the compile phase's state. The paper's
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

	st   *statement // the submission compiling on the attempt
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
	// asks are bound when the attempt is made; Codegen is set per compilation.
	asks optimizer.Asks

	// Run's state, the state a work batch returns to, when compile began, the
	// last demand's answer, the scratch of the charge in flight, the ramp's
	// bytes to go, a work batch's tasks, and whether a call made with the
	// attempt as its continuation is not yet answered.
	state, after int8
	start        time.Duration
	err          error
	extra, ramp  int64
	tasks        int
	calling      bool
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

// An attempt's own parse starts with room for the widest SALES statement,
// so that parsing one grows none of its lists.
const ownTables, ownJoins, ownGroupBy = 21, 20, 2

// newAttempt starts an attempt at the statement: over the closed set's
// parse, or over its own parse of any other text — whose error is the
// statement's.
func (s *Server) newAttempt(sql string, id StmtID) (*attempt, error) {
	a := s.attempts.Get()
	if a == nil {
		a = &attempt{s: s}
		a.asks = optimizer.Asks{Charges: true, BestEffort: a.comp.ShouldYieldBestEffort}
		// A span is so many reservations of at least a byte each; a memo
		// configured with a free structure is charged one by one.
		if memo := s.cfg.Optimizer.Memo; spanCharging && memo.BytesPerExpr > 0 && memo.BytesPerGroup > 0 {
			a.asks.ChargeSpan = a.chargeSpan
		}
	}
	if a.q = id.Query; a.q == nil {
		q := &a.own
		q.Tables, q.Joins, q.GroupBy = slices.Grow(q.Tables[:0], ownTables), slices.Grow(q.Joins[:0], ownJoins), slices.Grow(q.GroupBy[:0], ownGroupBy)
		if err := sqlparser.ParseInto(q, sql); err != nil {
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
// step its execution resumes (see Run).
type statement struct {
	s         *Server
	id        StmtID
	epoch     uint64 // the crash epoch the submission started under
	err       error  // the execution's outcome
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

	// Probe. A hit skips compilation and executes the cached plan.
	if p, cached := s.cache.Get(id.Fingerprint, id.Static); cached {
		st.execute(t, p)
		return
	}

	// Compile, on the attempt a failed submission of this text left or on a
	// new one.
	a, err := (*attempt)(nil), error(nil)
	if left >= 0 {
		a = s.retained[left]
		s.retained = slices.Delete(s.retained, left, left+1)
	} else if a, err = s.newAttempt(sql, id); err != nil {
		st.record(t, err)
		return
	}
	a.st, a.start, a.err, a.state = st, t.Now(), nil, opening
	s.gov.BeginIn(&a.comp, t, "compile")
	a.Run(t)
}

// execute runs p. A statement of the snapshot's closed set compiles to the
// same plan every time, so the plan's scan lists are the statement's:
// recorded once per server and replayed by every execution after, cached or
// recompiled. A best-effort cut may order the scans differently, and it and
// any other text draw their lists. The execution copies what it needs of p,
// so the cache may recycle p while it runs.
func (st *statement) execute(t *vtime.Task, p *plan.Plan) {
	var prep *executor.Prepared
	if i := st.id.Static; i >= 0 && !p.BestEffort && staticPrepared {
		prep = &st.s.staticPrep[i]
	}
	st.execStart = t.Now()
	st.s.exec.ExecuteThen(t, p, st.id.Seed, prep, nil, &st.err, st)
}

// Run is the execution's continuation. It and attempt.finish are where
// crash semantics live: virtual time passed since SubmitThen, and if the
// crash epoch moved with it the engine crashed under this statement. The
// process that compiled or executed is gone and so is the client's
// connection, so whatever the phase concluded the statement fails with
// ErrCrashed and nothing of it may reach the (new) plan cache or the
// retained table. The exception is a compilation that failed on its own:
// it keeps its error (its charges already report ErrCrashed when the crash
// is what stopped it).
func (st *statement) Run(t *vtime.Task) {
	err := st.err
	if st.s.crashEpoch != st.epoch {
		err = ErrCrashed
	} else if err == nil {
		st.s.execHist.Observe(t.Now() - st.execStart)
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
	st.err, st.errp, st.k = nil, nil, nil
	s.stmts.Put(st)
	k.Run(t)
}

// chargeSpan charges every structure of a span at once, when the governor
// can take them so (see optimizer.Hooks.ChargeSpan). A crash refuses the
// span, so that its first charge reports it.
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

// spanCharging and staticPrepared are false, and retainedLimit other than
// retainedCap, only in the differential tests that run a whole simulation
// both ways (export_test.go).
var (
	spanCharging   = true
	staticPrepared = true
	retainedLimit  = retainedCap
)

// The compile phase's states (attempt.Run).
const (
	opening int8 = iota // the compilation is open: charge the bind footprint
	binding             // the bind charge is answered: begin the player
	asking              // the last demand is answered (a.err): resume the player
	burnt               // a work batch's CPU is spent: its wait comes next
	ramping             // the codegen ramp's next step
	ramped              // a ramp step's charge is answered
)

// Run is the compile phase, from where it stands to its next wait or to its
// end: bind (fixed footprint) → join enumeration, costing scratch accreting
// with every memo charge → codegen (a ramp sized from the memo, the player's
// Codegen demand) → the plan, built only when the ramp succeeded. A
// best-effort plan skips the ramp: the §4.1 valve cut the compilation because
// the broker predicts exhaustion, so it must not grow further. Every call Run
// makes continues with the attempt; one answered at once is taken up by the
// loop, not by a nested Run, so the stack does not grow with a compilation's
// thousands of charges.
func (a *attempt) Run(t *vtime.Task) {
	if a.calling {
		a.calling = false // answered at once: the loop that made the call goes on
		return
	}
	s := a.s
	cs := &s.cfg.CompileStages
	for {
		switch a.state {
		case opening:
			a.state = binding
			if a.asks.Codegen = len(a.q.Tables) > 1; a.asks.Codegen {
				a.calling = true
				a.comp.AllocThen(bindBytes, &a.err, a)
			}
		case binding:
			scale, memo := 0.0, s.cfg.Optimizer.Memo
			if a.asks.Codegen && cs.CostingScale > 0 {
				scale = cs.CostingScale
			}
			a.costingHeld, a.epoch = 0, s.crashEpoch
			a.exprExtra, a.groupExtra = int64(scale*float64(memo.BytesPerExpr)), int64(scale*float64(memo.BytesPerGroup))
			if a.err == nil {
				a.err = a.x.Begin(a.asks)
			}
			if a.err != nil {
				a.finish(t, nil, a.err)
				return
			}
			a.state = asking
		case asking:
			if a.err == nil {
				a.costingHeld += a.extra // the charge answered holds its scratch
			}
			d := a.x.Resume(a.err)
			a.err, a.extra = nil, 0
			switch d.Kind {
			case optimizer.ChargeDemand:
				if s.crashEpoch != a.epoch {
					// The engine crashed under this compilation: it stops
					// growing at once, and finish aborts it.
					a.err = ErrCrashed
					continue
				}
				// Staged, the footprint the gateways see grows scale+1 times
				// as fast as the memo: exploration's memory is memo plus
				// costing scratch.
				a.extra = a.exprExtra
				if d.N != s.cfg.Optimizer.Memo.BytesPerExpr {
					a.extra = a.groupExtra
				}
				a.calling = true
				a.comp.AllocThen(d.N+a.extra, &a.err, a)
			case optimizer.WorkDemand:
				a.work(t, int(d.N), asking)
			case optimizer.CodegenDemand:
				a.ramp, a.state = int64(cs.CodegenScale*float64(d.N)), ramping
			default:
				a.finish(t, d.Plan, d.Err)
				return
			}
		case burnt:
			// Metadata fetches and latching stretch with the paging slowdown
			// too: a thrashing machine faults on catalog pages like
			// everything else. The slowdown is read when the wait starts.
			a.state = a.after
			if w := s.cfg.CompileTaskWait; w > 0 {
				wait := time.Duration(a.tasks) * w
				if f := s.budget.Slowdown(); f > 1 {
					wait = time.Duration(float64(wait) * f)
				}
				t.SleepThen(wait, a)
				return
			}
		case ramping:
			// The ramp wires its bytes in StepBytes increments, stepTasks of
			// work each, through the gateway ladder: the broker's trend
			// detector sees the footprint climb between ticks. Costing scratch
			// dies with the ramp, and its release is a falling trend.
			a.state = asking
			if a.ramp <= 0 {
				a.comp.Free(a.costingHeld)
			} else if s.crashEpoch != a.epoch {
				a.comp.Abort()
				a.err = ErrCrashed
			} else {
				n := a.ramp
				if cs.StepBytes > 0 && cs.StepBytes < n {
					n = cs.StepBytes
				}
				a.ramp, a.state, a.calling = a.ramp-n, ramped, true
				a.comp.AllocThen(n, &a.err, a) // a failure rolled the compilation back
			}
		case ramped:
			a.state = asking
			if a.err == nil {
				a.work(t, stepTasks, ramping)
			}
		}
		if a.calling { // not answered yet: the event loop runs the attempt when it is
			a.calling = false
			return
		}
	}
}

// work spends tasks of optimizer work — CPU on the processor pool, then the
// non-CPU wait (metadata fetches, latching) — and goes on in state after.
func (a *attempt) work(t *vtime.Task, tasks int, after int8) {
	a.tasks, a.after, a.state, a.calling = tasks, after, burnt, true
	a.s.cpu.UseThen(t, time.Duration(tasks)*compileTaskCPU, a)
}

// finish closes the compilation — aborted on an error (every failure but
// validation's has done that already), finished with a plan — and only then
// lets the attempt go, as it holds the session. A plan is cached and run;
// one the cache did not keep goes back to the optimizer once its execution
// has started.
func (a *attempt) finish(t *vtime.Task, p *plan.Plan, err error) {
	s, comp := a.s, &a.comp
	if err != nil {
		comp.Abort()
	} else {
		peak := comp.Peak()
		comp.Finish()
		s.compileHist.Observe(t.Now() - a.start)
		p.CompileBytes = peak
		s.compileMemSum += peak
		if peak > s.compileMemMax {
			s.compileMemMax = peak
		}
	}
	st := a.st
	if a.st = nil; err == nil && s.crashEpoch != st.epoch {
		err = ErrCrashed // see statement.Run
	}
	s.finishAttempt(a, err != nil, st.epoch)
	if err != nil {
		st.record(t, err)
		return
	}
	kept := s.cache.Put(st.id.Fingerprint, st.id.Static, p)
	st.execute(t, p)
	if !kept {
		s.opt.Recycle(p)
	}
}
