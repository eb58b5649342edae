package harness

import (
	"encoding/json"
	"fmt"
	"time"

	"compilegate/internal/cluster"
	"compilegate/internal/engine"
	"compilegate/internal/fault"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// Scenario declaratively describes one run: what to simulate, on how many
// nodes, for how long, under which faults. It is the only type that
// carries a run's settings and Validate is the only place they are
// checked; package scenario names it by alias and keeps the registry of
// paper experiments. The zero value is not runnable; start from a
// registered scenario or fill in every field.
type Scenario struct {
	// Name is the registry key ("figure3", "oltp-mix", ...).
	Name string
	// Description says what the experiment shows, for -list output.
	Description string

	// Clients is the concurrent user count (paper: 30 / 35 / 40).
	Clients int
	// Scale is the catalog scale factor (1.0 = the paper's 524 GB mart;
	// the registry uses 0.04, which keeps page counts tractable while
	// preserving the DB ≫ RAM ratio).
	Scale float64
	// Workload picks the query generator and catalog shape.
	Workload workload.Spec

	// Horizon/Warmup bound the measurement window: clients submit until
	// Horizon, measurements start at Warmup, as §5.2 does ("the data
	// starts at an intermediate time index"). Both are whole multiples of
	// the recorder's slice (engine.Config.SliceDur, 10 minutes unless
	// Server sets it), so the slices counted are exactly the window.
	Horizon time.Duration
	Warmup  time.Duration

	// Throttled enables compilation throttling (the paper's feature).
	Throttled bool
	// Seed drives all randomness in the run.
	Seed int64

	// Server is the server config every node starts from; the zero value
	// means engine.DefaultConfig(). Ablations set its fields — a monitor
	// ladder, broker on/off, memory sizing, brown-out — on a copy.
	Server engine.Config
	// ThinkTime, when positive, replaces the load's think time between a
	// client's queries.
	ThinkTime time.Duration
	// Retry puts the clients on the real-client retry model: capped
	// exponential backoff with jitter, a per-client retry budget, and no
	// resubmission of deliberately shed work.
	Retry bool
	// Engine and Load, when non-nil, mutate the server config (after
	// Server) and the load config (after ThinkTime and Retry) per run.
	// They stay for benchmark/workloads.go, whose pinned workloads set
	// them; a closure does not compare, so a scenario with one has no Key.
	Engine func(*engine.Config)       `json:"-"`
	Load   func(*workload.LoadConfig) `json:"-"`
	// Fault, when non-nil and non-empty, is the scripted failure plan
	// injected into the run (shared read-only across sweep runs of the
	// scenario). Injections execute as ordinary scheduler tasks, so
	// determinism and sweep invariance are unaffected. The plan must
	// clear by Horizon.
	Fault *fault.Plan

	// Nodes is the fleet size: that many independent engine instances
	// (each with its own budget, governor, plan cache, and buffer pool)
	// share one scheduler and one snapshot. Above one node a
	// deterministic router fronts them; 0 and 1 both mean a single
	// server, which clients reach directly.
	Nodes int
	// Router is the routing policy (zero value: round-robin). Ignored
	// when Nodes <= 1.
	Router cluster.Policy
	// Health turns on health-aware node exclusion in the router: nodes
	// past the overcommit/thrash thresholds are skipped like crashed
	// ones. Requires a cluster.
	Health bool
	// Breaker arms a per-node circuit breaker in the router, driven by
	// the errclass outcomes of routed submissions. Requires a cluster.
	Breaker bool
	// FailoverHops bounds router-level failover resubmission on crashed
	// responses (0 disables it). Requires a cluster.
	FailoverHops int
}

// fleet is the number of engine instances the scenario runs on.
func (s Scenario) fleet() int { return max(s.Nodes, 1) }

// ServerConfig is the config the scenario's servers start from: Server
// (engine.DefaultConfig() when zero), then the Engine closure.
func (s Scenario) ServerConfig() engine.Config {
	cfg := s.Server
	if cfg == (engine.Config{}) {
		cfg = engine.DefaultConfig()
	}
	if s.Engine != nil {
		s.Engine(&cfg)
	}
	return cfg
}

// Key is the scenario's canonical encoding, its JSON with Server
// resolved: two scenarios with one key describe one run, a zero Server
// and an explicit engine.DefaultConfig() included. ok is false when an
// Engine or Load closure is set, since closures do not compare.
func (s Scenario) Key() (key string, ok bool) {
	if s.Engine != nil || s.Load != nil {
		return "", false
	}
	s.Server = s.ServerConfig()
	b, err := json.Marshal(s)
	return string(b), err == nil
}

// Validate reports whether the scenario describes a runnable experiment.
// Every run starts here, and nothing downstream re-checks or defaults a
// field.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.Clients <= 0 {
		return fmt.Errorf("scenario %s: clients = %d", s.Name, s.Clients)
	}
	if s.Scale <= 0 {
		return fmt.Errorf("scenario %s: scale = %g", s.Name, s.Scale)
	}
	if !s.Workload.Valid() {
		return fmt.Errorf("scenario %s: unknown workload %q", s.Name, string(s.Workload))
	}
	if s.Horizon <= 0 || s.Warmup < 0 || s.Warmup >= s.Horizon {
		return fmt.Errorf("scenario %s: window [%v, %v)", s.Name, s.Warmup, s.Horizon)
	}
	// The recorder counts completions per slice, so a window that cuts a
	// slice would count completions outside it or drop some inside.
	slice := s.ServerConfig().SliceDur
	if slice <= 0 {
		return fmt.Errorf("scenario %s: recorder slice %v", s.Name, slice)
	}
	if s.Warmup%slice != 0 || s.Horizon%slice != 0 {
		return fmt.Errorf("scenario %s: window [%v, %v) is not made of whole %v recorder slices", s.Name, s.Warmup, s.Horizon, slice)
	}
	if s.ThinkTime < 0 {
		return fmt.Errorf("scenario %s: think time %v", s.Name, s.ThinkTime)
	}
	if s.Nodes < 0 {
		return fmt.Errorf("scenario %s: nodes = %d", s.Name, s.Nodes)
	}
	if s.Nodes > 1 && !s.Router.Valid() {
		return fmt.Errorf("scenario %s: unknown router policy %q", s.Name, string(s.Router))
	}
	if s.Nodes <= 1 && (s.Health || s.Breaker || s.FailoverHops != 0) {
		return fmt.Errorf("scenario %s: router health/breaker/failover settings require a cluster (nodes = %d)", s.Name, s.Nodes)
	}
	if s.FailoverHops < 0 {
		return fmt.Errorf("scenario %s: negative failover hops %d", s.Name, s.FailoverHops)
	}
	if s.Fault != nil {
		if err := s.Fault.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		if lc := s.Fault.LastClear(); lc > s.Horizon {
			return fmt.Errorf("scenario %s: fault plan clears at %v, past horizon %v", s.Name, lc, s.Horizon)
		}
		if mx := s.Fault.MaxNode(); mx >= s.fleet() {
			return fmt.Errorf("scenario %s: fault plan targets node %d of a %d-node run", s.Name, mx, s.fleet())
		}
	}
	return nil
}

// Run executes the scenario to completion in virtual time.
func (s Scenario) Run() (*Result, error) {
	return s.RunOn(nil)
}

// RunOn is Run on a caller-supplied fresh scheduler (nil builds one), so
// the caller can read the scheduler's counters after the run.
func (s Scenario) RunOn(sched *vtime.Scheduler) (*Result, error) {
	return s.run(sched, seams{})
}

// Baseline returns the unthrottled twin of the scenario — the
// non-throttled comparison every paper figure makes.
func (s Scenario) Baseline() Scenario {
	s.Name += "-baseline"
	s.Description = "non-throttled baseline of " + s.Description
	s.Throttled = false
	return s
}

// WithWindow returns a copy with the measurement window replaced —
// quick modes and tests compress the window without touching the rest
// of the configuration.
func (s Scenario) WithWindow(horizon, warmup time.Duration) Scenario {
	s.Horizon, s.Warmup = horizon, warmup
	return s
}

// WithSlice returns a copy whose recorder counts completions in slices of
// d instead of the default 10 minutes — for a window that is not made of
// whole 10-minute slices. An Engine closure is folded into Server first,
// so the slice is set last.
func (s Scenario) WithSlice(d time.Duration) Scenario {
	s.Server, s.Engine = s.ServerConfig(), nil
	s.Server.SliceDur = d
	return s
}

// WithSeed returns a copy running under a different seed — sweeps over
// seeds use this for confidence intervals.
func (s Scenario) WithSeed(seed int64) Scenario {
	s.Seed = seed
	return s
}

// WithClients returns a copy at a different client count.
func (s Scenario) WithClients(n int) Scenario {
	s.Clients = n
	return s
}
