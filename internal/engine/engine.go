// Package engine assembles the full simulated DBMS: parser, plan cache,
// governed optimizer, execution engine, buffer pool, memory broker, and
// metrics — the system under test for every experiment in the paper.
//
// A Server runs inside one vtime.Scheduler. Client tasks call SubmitThen
// (Submit from blocking-style code), which walks the statement lifecycle
// (statement.go):
//
//	identify → plan-cache probe → (compile under the governor) →
//	execute under a memory grant → record completion/error
//
// A compilation that fails leaves its record, exploration included, behind;
// the client's resubmission of the same text compiles on it instead of
// starting over (see statements and attempt).
//
// A housekeeping task ticks the Memory Broker, which redistributes memory
// among the buffer pool, plan cache, compilations, and execution grants
// when the machine comes under pressure.
package engine

import (
	"fmt"
	"time"

	"compilegate/internal/broker"
	"compilegate/internal/bufferpool"
	"compilegate/internal/catalog"
	"compilegate/internal/core"
	"compilegate/internal/errclass"
	"compilegate/internal/executor"
	"compilegate/internal/freelist"
	"compilegate/internal/gateway"
	"compilegate/internal/mem"
	"compilegate/internal/metrics"
	"compilegate/internal/optimizer"
	"compilegate/internal/plan"
	"compilegate/internal/plancache"
	"compilegate/internal/sqlparser"
	"compilegate/internal/stats"
	"compilegate/internal/storage"
	"compilegate/internal/vtime"
)

// Config assembles a Server: start from DefaultConfig and change what the
// run varies. What no run varies is a constant below.
type Config struct {
	// MemoryBytes is physical memory (paper: 4 GiB).
	MemoryBytes int64
	// FixedOverheadBytes models the engine's non-negotiable footprint.
	FixedOverheadBytes int64

	// Throttle enables compilation throttling (the paper's feature; false
	// reproduces the "non-throttled" baseline).
	Throttle bool
	// DynamicThresholds / BestEffort toggle the §4.1 extensions.
	DynamicThresholds bool
	BestEffort        bool
	// Brownout enables the governor's sustained-pressure degradation
	// mode (best-effort-only admission with hysteresis); it requires
	// BestEffort and is off by default.
	Brownout bool
	// GatewayOverride, when non-nil, replaces the default monitor ladder
	// (used by the monitor-count ablation).
	GatewayOverride *gateway.Config

	// BrokerEnabled runs the Memory Broker (ablation A-5 turns throttling
	// off but keeps the broker).
	BrokerEnabled bool
	Broker        broker.Config

	Optimizer optimizer.Config

	// CompileTaskWait is the non-CPU time per optimizer task (metadata
	// fetches, latching); it stretches compilations without saturating
	// the processors, matching the paper's 10-90 s compile profile.
	CompileTaskWait time.Duration
	// CompileStages is the staged compile-memory model: the memory a
	// compilation wires beyond the exploration memo, reserved as a ramp
	// the monitor ladder can interpose on mid-compilation.
	CompileStages CompileStages
	// ExecGrantLimitFrac caps total concurrent execution-grant memory as
	// a fraction of physical memory.
	ExecGrantLimitFrac float64
	// VASBytes bounds the address space that compilation, execution
	// grants, and the plan cache contend for (the paper's testbed was a
	// 32-bit server: its AWE-mapped buffer pool lived outside the ~2 GB
	// user address space, everything else inside). 0 disables the bound.
	VASBytes int64
	// Pressure is the memory-pressure (thrash) model: with it enabled,
	// compilations and execution grants may overcommit physical memory
	// into swap, and once wired memory crowds out the page cache every
	// CPU quantum and disk transfer stretches by the paging slowdown
	// while the pager steals buffer-pool frames. The zero value disables
	// overcommit entirely (reservations past physical memory fail).
	Pressure mem.PressureModel

	// SliceDur is the metrics slice width (paper figures: 600 s).
	SliceDur time.Duration
}

// The paper's testbed and the engine's fixed tuning.
const (
	// cpus is the virtual processor count (paper: 8).
	cpus = 8
	// cpuQuantum is the processor-sharing quantum.
	cpuQuantum = 100 * time.Millisecond
	// brokerInterval is the housekeeping cadence: one broker tick.
	brokerInterval = 5 * time.Second
	// compileTaskCPU converts one optimizer task into virtual CPU time.
	compileTaskCPU = 1500 * time.Microsecond
	// bindBytes is the parse/bind footprint a staged compilation wires
	// when it opens.
	bindBytes = 128 * mem.KiB
	// stepTasks is the optimizer work charged per codegen ramp step — the
	// time cost of growing, which makes the ramp gate-friendly rather than
	// an instantaneous reservation.
	stepTasks = 6
	// Component weights and floors for broker target computation.
	weightBufferPool = 1.0
	weightCompile    = 0.9
	weightExec       = 1.0
	weightPlanCache  = 0.15
	minBufferPool    = 128 * mem.MiB
	minCompile       = 64 * mem.MiB
)

// CompileStages models the lifetime memory profile of one compilation
// beyond the exploration memo — the staged compile-memory stock that
// makes concurrent compilations, not slow ones, the resource problem:
//
//   - bind: a fixed footprint (bindBytes) wired when the compilation
//     opens (metadata caches, binding scratch);
//   - join enumeration + costing: every memo charge carries
//     CostingScale times its size in costing scratch (statistics,
//     property derivation, costing contexts grow with the alternatives
//     considered), so the footprint ramps across the compilation's
//     whole 10-90 s lifetime rather than arriving at the end;
//   - codegen: once exploration stops, the physical plan is built as a
//     ramp of StepBytes reservations (stepTasks of optimizer work
//     each), after which the costing scratch is released — a
//     mid-compilation fall the broker's trend detector sees.
//
// All stage memory flows through Compilation.AllocThen, so the gateway
// ladder observes genuinely growing consumers and can hold (or time out)
// a compilation mid-flight at any threshold crossing — the paper's
// gateway-chain mechanism.
//
// Single-table (point/diagnostic) queries skip the stages entirely:
// their plans are trivial, which is what keeps them under the small
// gateway's threshold — the paper's diagnostics-under-overload bypass.
type CompileStages struct {
	// CostingScale sizes costing scratch as a multiple of every memo
	// charge; it is held until codegen completes.
	CostingScale float64
	// CodegenScale sizes the codegen phase (physical operator trees,
	// runtime structures) as a multiple of the final memo bytes; it is
	// held until the compilation closes.
	CodegenScale float64
	// StepBytes is the reservation granularity of the codegen ramp;
	// each step passes through the gateway ladder.
	StepBytes int64
}

// DefaultConfig reproduces the paper's testbed with throttling fully
// enabled. Its CompileStages are the calibrated staged compile-memory
// model (see EXPERIMENTS.md, "Calibration methodology — the unified
// regime"): peak compile memory an order of magnitude above the
// exploration memo, ramped over the compilation's lifetime in
// gate-visible increments.
func DefaultConfig() Config {
	return Config{
		MemoryBytes:        4 * mem.GiB,
		FixedOverheadBytes: 200 * mem.MiB,
		Throttle:           true,
		DynamicThresholds:  true,
		BestEffort:         true,
		BrokerEnabled:      true,
		Broker:             broker.DefaultConfig(),
		Optimizer:          optimizer.DefaultConfig(),
		CompileTaskWait:    45 * time.Millisecond,
		CompileStages:      CompileStages{CostingScale: 4, CodegenScale: 5, StepBytes: 16 * mem.MiB},
		ExecGrantLimitFrac: 0.45,
		Pressure:           mem.DefaultPressureModel(),
		SliceDur:           10 * time.Minute,
	}
}

// StmtID is what is a pure function of one statement text: its plan-cache
// fingerprint (sqlparser.Hash64 of the text; sqlparser.Fingerprint is the
// same number in hex) and the execution-locality seed.
type StmtID struct {
	Fingerprint uint64
	Seed        int64
	// Static is the statement's index in the snapshot's closed set — dense,
	// from 0, so per-statement state is a slice — and -1 for any other text.
	Static int
	// Query is the closed set's parse of the text, nil for any other text.
	// It is never written after PrepareStatements, so every compilation of
	// the statement, on any server of the shape, reads the one copy.
	Query *plan.Query
}

// StaticStatements maps statement text to its precomputed identity and
// parse. A run snapshot builds one per workload shape (the OLTP
// point-query pool) and shares it read-only across every run of that
// shape, so recurring statements are never hashed or parsed again.
type StaticStatements map[string]StmtID

// PrepareStatements derives the records of a closed statement set. Texts
// that do not parse are skipped — they fail with their parse error when
// submitted.
func PrepareStatements(sqls []string) StaticStatements {
	out := make(StaticStatements, len(sqls))
	for _, sql := range sqls {
		if _, dup := out[sql]; dup {
			continue
		}
		q, err := sqlparser.Parse(sql)
		if err != nil {
			continue
		}
		id := identify(sql)
		id.Static, id.Query = len(out), q
		out[sql] = id
	}
	return out
}

// Prebuilt carries immutable, shareable components a run snapshot built
// once for a scenario shape. Every field is optional; NewShared builds
// whatever is missing. All fields are read-only after construction, so
// one Prebuilt may back any number of concurrent servers.
type Prebuilt struct {
	// Estimator is the statistics/cardinality layer over the catalog.
	Estimator *stats.Estimator
	// Layout maps the catalog onto the extent address space.
	Layout *storage.Layout
	// Statements is the workload's closed statement set, identified and
	// parsed.
	Statements StaticStatements
}

// Server is the simulated DBMS instance.
type Server struct {
	cfg    Config
	sched  *vtime.Scheduler
	budget *mem.Budget
	cpu    *vtime.CPUSet

	brk    *broker.Broker
	vasBrk *broker.Broker
	gov    *core.Governor
	pool   *bufferpool.Pool
	cache  *plancache.Cache
	exec   *executor.Executor
	opt    *optimizer.Optimizer
	layout *storage.Layout

	rec         *metrics.Recorder
	compileHist *metrics.Histogram
	execHist    *metrics.Histogram

	// compile-memory per-query profile (for the compile-memory
	// experiments): sum/max in bytes; compileHist counts the queries.
	compileMemSum, compileMemMax int64

	// Host-side state that simulates nothing (one scheduler per server, no
	// locking): the statement table, and the free list of submissions.
	statements
	stmts freelist.List[statement]

	// Fault-plane state (see internal/fault): ballast is the wired
	// "leak" tracker injections ratchet; faultDiskMul dilates every disk
	// transfer while a disk-stall fault is active (1 = healthy); down
	// marks the engine crashed (submits fail fast until Restart);
	// crashEpoch increments per crash so work in flight across a crash
	// errors out at its next engine interaction.
	ballast      *mem.Tracker
	faultDiskMul float64
	down         bool
	crashEpoch   uint64
	crashes      uint64

	closed bool
}

// NewShared builds a Server over the catalog inside sched. It reserves the
// fixed overhead, wires broker components and reclaimers, and starts the
// housekeeping task (stop it with Close when the workload drains). The
// snapshot-shared immutable components in pre — estimator, storage
// layout, the closed statement set's records — are used as-is instead of being
// rebuilt per run; missing ones (an empty Prebuilt) are built here. Only
// mutable engine state — budget, pools, caches, metrics — is constructed
// per server.
func NewShared(cfg Config, cat *catalog.Catalog, pre Prebuilt, sched *vtime.Scheduler) (*Server, error) {
	if pre.Estimator != nil && pre.Estimator.Catalog() != cat {
		return nil, fmt.Errorf("engine: prebuilt estimator belongs to a different catalog")
	}
	if pre.Layout != nil && pre.Layout.Catalog() != cat {
		return nil, fmt.Errorf("engine: prebuilt layout belongs to a different catalog")
	}

	s := &Server{
		cfg:         cfg,
		sched:       sched,
		budget:      mem.NewBudget(cfg.MemoryBytes),
		cpu:         vtime.NewCPUSet(cpus, cpuQuantum),
		rec:         metrics.NewRecorder(cfg.SliceDur),
		compileHist: metrics.NewHistogram(time.Second, 10*time.Second, 30*time.Second, time.Minute, 75*time.Second, 90*time.Second, 2*time.Minute, 3*time.Minute, 5*time.Minute),
		execHist:    metrics.NewHistogram(10*time.Second, 30*time.Second, time.Minute, 5*time.Minute, 10*time.Minute, 30*time.Minute),

		statements: statements{
			static:     pre.Statements,
			staticPrep: make([]executor.Prepared, len(pre.Statements)),
			retained:   make([]*attempt, 0, retainedCap+1),
		},
	}
	if cfg.Pressure.Enabled {
		s.budget.SetPressure(cfg.Pressure)
	}

	overhead := s.budget.NewTracker("overhead")
	if cfg.FixedOverheadBytes > 0 {
		overhead.MustReserve(cfg.FixedOverheadBytes)
	}

	// The VAS group: compile, grants, and plan cache contend inside it;
	// the buffer pool lives outside (AWE analogue).
	var vas *mem.Group
	if cfg.VASBytes > 0 {
		vas = s.budget.NewGroup("vas", cfg.VASBytes)
	}
	inVAS := func(t *mem.Tracker) *mem.Tracker {
		if vas != nil {
			t.SetGroup(vas)
		}
		return t
	}

	// Subcomponents. The caches are reclaimable (the pager steals their
	// pages for free); everything else counts as wired memory under the
	// pressure model.
	s.layout = pre.Layout
	if s.layout == nil {
		s.layout = storage.NewLayout(cat)
	}
	poolTracker := s.budget.NewTracker("bufferpool")
	poolTracker.MarkReclaimable()
	s.pool = bufferpool.New(cat.ExtentBytes, poolTracker, s.layout.ExtentCounts())
	cacheTracker := inVAS(s.budget.NewTracker("plancache"))
	cacheTracker.MarkReclaimable()
	est := pre.Estimator
	if est == nil {
		est = stats.NewEstimator(cat)
	}
	s.opt = optimizer.New(est, cfg.Optimizer)
	s.cache = plancache.New(cacheTracker, len(pre.Statements), s.opt.Recycle)

	govOpts := core.Options{
		Enabled:           cfg.Throttle,
		DynamicThresholds: cfg.DynamicThresholds,
		BestEffort:        cfg.BestEffort,
		Brownout:          cfg.Brownout,
	}
	// Gate thresholds are expressed against the contested region: the VAS
	// when bounded, the whole machine otherwise.
	contested := cfg.MemoryBytes
	if cfg.VASBytes > 0 {
		contested = cfg.VASBytes
	}
	if cfg.GatewayOverride != nil {
		govOpts.Gateways = *cfg.GatewayOverride
	} else {
		govOpts.Gateways = gateway.DefaultConfig(cpus, contested)
	}
	compileTracker := inVAS(s.budget.NewTracker("compile"))
	compileTracker.AllowOvercommit()
	gov, err := core.NewGovernor(govOpts, compileTracker)
	if err != nil {
		return nil, err
	}
	s.gov = gov

	execTracker := inVAS(s.budget.NewTracker("exec"))
	execTracker.SetLimit(int64(cfg.ExecGrantLimitFrac * float64(contested)))
	execTracker.AllowOvercommit()
	s.exec = executor.New(s.pool, s.layout, s.cpu, executor.NewGrantManager(execTracker))
	if cfg.Pressure.Enabled {
		// Thrash penalties: every CPU quantum and disk transfer stretches
		// with the paging slowdown, and executions refault their granted
		// workspace. The hooks read budget state at call time, so the
		// penalty tracks pressure as it develops — deterministically.
		s.cpu.SetDilation(s.budget.Slowdown)
		s.exec.SetPressure(s.budget.Slowdown)
	}
	// Disk dilation composes the paging slowdown (when modeled) with the
	// fault plane's disk-stall factor; with neither active the hook
	// returns exactly 1 and the pool skips dilation entirely.
	s.faultDiskMul = 1
	s.pool.SetDilation(s.diskDilation)
	// The leak-ballast tracker: wired (non-reclaimable) and allowed to
	// overcommit into swap, so a ratcheting leak drives the machine into
	// the pressure model's thrash regime instead of failing outright.
	s.ballast = s.budget.NewTracker("ballast")
	s.ballast.AllowOvercommit()

	// Reclaimers: only the plan cache yields memory synchronously (it is
	// the cheapest cache to drop). The buffer pool gives memory back only
	// through broker targets at broker cadence — instantaneous pool
	// eviction on someone else's allocation is not how a lazywriter-based
	// engine behaves, and modeling it graceful hides the paper's failure
	// mode: allocations that outrun the broker fail with out-of-memory.
	s.budget.RegisterReclaimer("plancache", 1, s.cache.Shrink)
	s.budget.RegisterReclaimer("bufferpool", 2, s.pool.Shrink)
	if vas != nil {
		// Inside the VAS only the plan cache is reclaimable.
		vas.RegisterReclaimer("plancache", 1, s.cache.Shrink)
	}

	if cfg.BrokerEnabled {
		// The machine-level broker arbitrates the buffer pool against
		// everything else; when a VAS is configured, a second broker
		// arbitrates the contested region among compile / grants / plan
		// cache — that broker's compile target drives the gate ladder.
		s.brk = broker.New(cfg.Broker, s.budget)
		s.brk.Register("bufferpool", weightBufferPool, minBufferPool,
			s.pool.Bytes, func(n broker.Notification) {
				if n.Pressure {
					s.pool.SetTarget(n.Target)
				} else {
					s.pool.SetTarget(0)
				}
			})
		if vas != nil {
			s.vasBrk = broker.New(cfg.Broker, vas)
		} else {
			s.vasBrk = s.brk
		}
		s.vasBrk.Register("plancache", weightPlanCache, 0,
			s.cache.Bytes, func(n broker.Notification) {
				if n.Pressure {
					s.cache.SetTarget(n.Target)
				} else {
					s.cache.SetTarget(0)
				}
			})
		s.gov.AttachBroker(s.vasBrk, weightCompile, minCompile)
		s.vasBrk.Register("exec", weightExec, 0, execTracker.Used, nil)
	}

	sched.GoStep("housekeeping", &housekeeper{s: s})
	return s, nil
}

// housekeeper is the continuation-task state machine that ticks the
// broker and prods the grant queue until Close: sleep one broker
// interval, run the tick body, re-check closed, repeat. It runs entirely
// on the event loop — no goroutine, no stack.
type housekeeper struct {
	s        *Server
	sleeping bool
}

func (h *housekeeper) Run(t *vtime.Task) {
	if h.sleeping {
		h.sleeping = false
		h.s.housekeepingTick(t)
	}
	if h.s.closed {
		return // no resume point armed: the task exits
	}
	h.sleeping = true
	t.SleepThen(brokerInterval, h)
}

// housekeepingTick is one broker-interval tick.
func (s *Server) housekeepingTick(t *vtime.Task) {
	if s.brk != nil {
		s.brk.Tick(t.Now())
	}
	if s.vasBrk != nil && s.vasBrk != s.brk {
		s.vasBrk.Tick(t.Now())
	}
	// Memory freed by finished compilations doesn't signal the grant
	// queue on its own; give waiting grants a chance to retry.
	s.exec.Grants().Kick()
	// Page steal: with wired memory past the paging threshold the
	// pager takes buffer-pool frames each tick, trading cache hit
	// rate for swap room — the visible half of thrashing.
	if s.cfg.Pressure.Enabled && s.cfg.Pressure.StealFrac > 0 {
		if over := s.budget.WiredOverBytes(); over > 0 {
			s.pool.StealPages(int64(s.cfg.Pressure.StealFrac * float64(over)))
		}
	}
	s.rec.RecordGauges(t.Now(), metrics.Gauges{
		PoolBytes:          s.pool.Bytes(),
		CompileBytes:       s.gov.Tracker().Used(),
		ExecBytes:          s.exec.Grants().Tracker().Used(),
		ActiveCompiles:     int64(s.gov.Active()),
		OvercommitPermille: int64(s.budget.OvercommitRatio() * 1000),
	})
}

// Close stops the housekeeping task after in-flight work finishes. The
// load generator's onAllDone callback is the intended caller.
func (s *Server) Close() { s.closed = true }

// diskDilation is the buffer pool's disk time-dilation hook: the paging
// slowdown (when the pressure model runs) composed with the fault
// plane's disk-stall factor.
func (s *Server) diskDilation() float64 {
	f := s.faultDiskMul
	if s.cfg.Pressure.Enabled {
		if f == 1 {
			return s.budget.Slowdown()
		}
		return f * s.budget.Slowdown()
	}
	return f
}

// crashError is the recycled connection-lost error: one static value
// serves every disconnect, so a crash that errors hundreds of in-flight
// queries allocates nothing.
type crashError struct{}

func (*crashError) Error() string        { return "engine: server crashed; connection lost" }
func (*crashError) Is(target error) bool { return target == errclass.Crashed }

// ErrCrashed is returned for queries in flight when the engine crashes
// and for submits while it is down.
var ErrCrashed error = &crashError{}

// Crash models an engine process failure: every query in flight errors
// with ErrCrashed at its next engine interaction, the plan cache and the
// brokers' sample history are lost (in-memory state does not survive the
// process), and submits fail fast until Restart — clients observe a dead
// connection and reconnect by retrying. Retained explorations go with the
// process too; those of compilations in flight follow when they notice.
func (s *Server) Crash() {
	s.down = true
	s.crashEpoch++
	s.crashes++
	s.cache.Clear()
	s.dropRetained()
	if s.brk != nil {
		s.brk.ResetHistory()
	}
	if s.vasBrk != nil && s.vasBrk != s.brk {
		s.vasBrk.ResetHistory()
	}
}

// Restart brings a crashed engine back up: submits are accepted again,
// against a cold plan cache and an empty broker history.
func (s *Server) Restart() { s.down = false }

// Down reports whether the engine is crashed.
func (s *Server) Down() bool { return s.down }

// Crashes returns how many times the engine has crashed.
func (s *Server) Crashes() uint64 { return s.crashes }

// SetDiskFault installs the fault plane's disk-stall factor: every disk
// transfer takes mul times as long while it is above 1. 1 clears the
// stall.
func (s *Server) SetDiskFault(mul float64) {
	if mul < 1 {
		mul = 1
	}
	s.faultDiskMul = mul
}

// LeakBallast wires n more bytes of leak ballast — memory some faulty
// component holds and never uses, crowding real consumers into the
// pressure model's thrash regime. Fails with an OOM once even the commit
// limit (physical + swap) is exhausted.
func (s *Server) LeakBallast(n int64) error { return s.ballast.Reserve(n) }

// DropBallast releases all leak ballast (the faulty component was
// restarted or the leak cleared).
func (s *Server) DropBallast() { s.ballast.ReleaseAll() }

// CheckInvariants audits end-of-run memory conservation: with no work in
// flight, compilation and execution-grant memory must be fully released
// and the budget's double-entry bookkeeping must balance. The harness
// runs this after every simulation; the fault fuzzer relies on it to
// prove arbitrary injection schedules never leak or double-free.
func (s *Server) CheckInvariants() error {
	if err := s.budget.CheckConservation(); err != nil {
		return err
	}
	if n := s.gov.Tracker().Used(); n != 0 {
		return fmt.Errorf("engine: %d compile bytes still reserved after drain", n)
	}
	if n := s.exec.Grants().Tracker().Used(); n != 0 {
		return fmt.Errorf("engine: %d grant bytes still reserved after drain", n)
	}
	if a := s.gov.Active(); a != 0 {
		return fmt.Errorf("engine: %d compilations still open after drain", a)
	}
	return nil
}

// Error kinds recorded per failed query.
const (
	ErrKindOOM            = "oom"
	ErrKindGatewayTimeout = "gateway-timeout"
	ErrKindGrantTimeout   = "grant-timeout"
	ErrKindCrashed        = "crashed"
	ErrKindOther          = "other"
)

// classify maps an error to its metric kind through the errclass
// taxonomy (every engine error type advertises its class via errors.Is);
// the legacy kind strings are kept so recorded metrics stay comparable.
func classify(err error) string {
	switch errclass.Of(err) {
	case errclass.Crashed:
		return ErrKindCrashed
	case errclass.Shed:
		return ErrKindGatewayTimeout
	case errclass.Timeout:
		return ErrKindGrantTimeout
	case errclass.OOM:
		return ErrKindOOM
	default:
		return ErrKindOther
	}
}

// Accessors for experiments and diagnostics.

// Recorder returns the completion/error recorder.
func (s *Server) Recorder() *metrics.Recorder { return s.rec }

// Governor returns the compilation governor.
func (s *Server) Governor() *core.Governor { return s.gov }

// ActiveCompiles returns the in-flight compilation count — the load
// signal a cluster router balances on.
func (s *Server) ActiveCompiles() int { return s.gov.Active() }

// OvercommitRatio returns the machine's current wired-memory overcommit
// ratio (above 1 the node is paging) — a cluster router's
// memory-pressure health signal.
func (s *Server) OvercommitRatio() float64 { return s.budget.OvercommitRatio() }

// ThrashScore condenses the node's paging state into [0, 1] for
// health-aware routing: the current paging slowdown normalized to the
// pressure model's cap, floored at 0.5 while the broker's trend
// detector reports sustained pressure, and pinned to 1 when the broker
// predicts memory exhaustion. A pure function of simulation state — no
// sampling, no randomness — so routing on it stays deterministic.
func (s *Server) ThrashScore() float64 {
	score := 0.0
	if slowCap := s.cfg.Pressure.MaxSlowdown; slowCap > 1 {
		score = (s.budget.Slowdown() - 1) / (slowCap - 1)
	}
	if s.brk != nil && s.brk.UnderPressure() && score < 0.5 {
		score = 0.5
	}
	if s.gov.Exhaustion() {
		score = 1
	}
	if score < 0 {
		return 0
	}
	if score > 1 {
		return 1
	}
	return score
}

// BufferPool returns the buffer pool.
func (s *Server) BufferPool() *bufferpool.Pool { return s.pool }

// PlanCache returns the plan cache.
func (s *Server) PlanCache() *plancache.Cache { return s.cache }

// Optimizer returns the optimizer.
func (s *Server) Optimizer() *optimizer.Optimizer { return s.opt }

// CompileTimes returns the compile-latency histogram.
func (s *Server) CompileTimes() *metrics.Histogram { return s.compileHist }

// ExecTimes returns the execution-latency histogram.
func (s *Server) ExecTimes() *metrics.Histogram { return s.execHist }

// PageStealBytes returns how much buffer-pool memory the pager stole
// while the machine was overcommitted.
func (s *Server) PageStealBytes() int64 { return s.pool.StolenBytes() }

// CompileMemProfile returns (mean, max) per-query compile memory in bytes.
func (s *Server) CompileMemProfile() (mean, max int64) {
	n := s.compileHist.Count()
	if n == 0 {
		return 0, 0
	}
	return s.compileMemSum / n, s.compileMemMax
}

// Report renders a diagnostic summary.
func (s *Server) Report() string {
	mean, maxB := s.CompileMemProfile()
	r := fmt.Sprintf("engine: completed=%d errors=%v\n%s%s\n%s\ncompile-mem mean=%s max=%s\ncompile times: %s\nexecutions: completed=%d replayed=%d\n",
		s.rec.Completed(), s.rec.Errors(), s.gov.Report(), s.pool.String(), s.cache.String(),
		mem.FormatBytes(mean), mem.FormatBytes(maxB), s.compileHist.String(), s.exec.Executed(), s.exec.Replayed())
	if s.cfg.Pressure.Enabled {
		r += fmt.Sprintf("paging: wired-peak=%s page-steal=%s cpu-stall=%v exec-refault=%v\n",
			mem.FormatBytes(s.budget.WiredPeak()), mem.FormatBytes(s.PageStealBytes()),
			s.cpu.StallTime(), s.exec.PageStallTotal())
	}
	if s.brk != nil {
		r += s.brk.Report()
	}
	return r
}
