// Package cluster models a fleet of independent engine instances behind
// a deterministic router — the deployment architecture real systems put
// in front of the paper's single server: N nodes, each with its own
// memory budget, governor, plan cache, and buffer pool, sharing nothing
// but the event loop and the immutable run snapshot.
//
// Beyond crash-skipping, the router can run as a self-healing control
// loop: every node exposes a health signal (memory overcommit, a thrash
// score), a per-node circuit breaker trips on observed errclass failures
// and re-admits a recovering node through half-open probes, and failover
// resubmission retries a crashed response on the next healthy node within
// a bounded hop budget. All three mechanisms are off by default; a Config
// holding only a policy is the classic dispatcher exactly.
//
// Determinism is by construction: the node list is fixed at router
// construction, every routing decision is a pure function of the
// statement text, the virtual clock, and per-node state mutated only
// from task context on the run's single event loop, and no policy or
// breaker draws randomness. A cluster run is therefore exactly as
// reproducible as a single-server run, and sweep shard/worker
// invariance carries over untouched.
package cluster

import (
	"fmt"
	"strings"
	"time"

	"compilegate/internal/engine"
	"compilegate/internal/errclass"
	"compilegate/internal/freelist"
	"compilegate/internal/sqlparser"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// Policy names a routing discipline.
type Policy string

const (
	// RoundRobin cycles through the nodes in construction order,
	// skipping crashed nodes — external load balancing with health
	// checks and no statement inspection.
	RoundRobin Policy = "round-robin"
	// LeastLoaded picks the live node with the fewest active
	// compilations (ties break to the lowest index) — the router sheds
	// around a node whose compile queue is backing up.
	LeastLoaded Policy = "least-loaded"
	// Affinity hashes the statement fingerprint to a home node, so a
	// recurring statement always lands where its plan is already
	// cached; crashed homes fall through to the next live node.
	Affinity Policy = "affinity"
)

// Valid reports whether the policy names a known discipline. The empty
// policy is valid and means RoundRobin, so zero-valued options keep the
// classic behaviour.
func (p Policy) Valid() bool {
	switch p {
	case "", RoundRobin, LeastLoaded, Affinity:
		return true
	}
	return false
}

func (p Policy) orDefault() Policy {
	if p == "" {
		return RoundRobin
	}
	return p
}

// String returns the canonical policy name.
func (p Policy) String() string { return string(p.orDefault()) }

// Node is the router's view of one engine instance: it accepts
// submissions, reports whether it is crashed, and exposes the load and
// health signals routing decisions read. engine.Server implements it.
type Node interface {
	workload.Submitter
	// Down reports whether the node is crashed (submissions fail until
	// it restarts).
	Down() bool
	// ActiveCompiles is the node's in-flight compilation count.
	ActiveCompiles() int
	// OvercommitRatio is the node's wired-memory overcommit ratio
	// (above 1 the node is paging; see mem.Budget.OvercommitRatio).
	OvercommitRatio() float64
	// ThrashScore is the node's paging-slowdown severity normalized to
	// [0, 1]: 0 is healthy, 1 is at the pressure model's slowdown cap
	// (or predicted memory exhaustion).
	ThrashScore() float64
}

// The health envelope (Config.Health): a node whose wired-memory
// overcommit ratio exceeds maxOvercommit (comfortably past the paging
// threshold, so brief excursions don't flap routing) or whose thrash score
// exceeds maxThrash is skipped like a crashed one. Exclusion (rather than
// weighting) keeps routing decisions pure threshold functions of node
// state — deterministic and cheap.
const (
	maxOvercommit = 1.25
	maxThrash     = 0.9
)

// Config assembles a Router. The zero value (plus a policy) is the
// classic blind dispatcher; Health, Breaker, and FailoverHops each
// opt into one self-healing mechanism independently.
type Config struct {
	// Policy is the routing discipline (zero value: round-robin).
	Policy Policy
	// Health turns on health-aware node exclusion: every routing policy
	// skips nodes outside the health envelope, the same way all policies
	// already skip crashed nodes.
	Health bool
	// Breaker arms a per-node circuit breaker (see breaker).
	Breaker bool
	// FailoverHops bounds router-level failover resubmission: when a
	// routed submission comes back with a crashed-class error, the
	// router resubmits it to the next eligible node up to this many
	// times before surfacing the error to the client. 0 disables
	// failover (the classic behaviour).
	FailoverHops int
}

// Router fronts a fixed fleet of nodes and implements
// workload.Submitter: clients submit to the router, the router picks a
// node under its policy and forwards the query. When every node is
// excluded (down, tripped, or unhealthy) the submission still goes to
// the policy's first choice, whose error flows back to the client's
// retry loop — the router models a load balancer, not a queue.
type Router struct {
	cfg   Config
	nodes []Node
	// stmts is the snapshot's precomputed statement identities — the same
	// map the nodes resolve submissions with — so affinity hashes nothing
	// for a statement the snapshot knows.
	stmts engine.StaticStatements

	next        int      // round-robin cursor
	routed      []uint64 // per-node forwarded submissions
	rerouted    uint64   // submissions steered away from the policy's first choice
	resubmitted uint64   // failover resubmissions after a crashed response
	allExcluded uint64   // submissions forced onto an excluded fleet
	breakers    []*breaker

	ops freelist.List[routeOp] // recycled continuation ops (single scheduler)
}

// NewRouter builds a router from a full config over the nodes in the
// given (fixed) order. stmts is the run snapshot's statement identities
// (nil when there is none); affinity routing fingerprints only text it
// does not hold. The policy and hop budget are the caller's to check
// (harness.Scenario.Validate does): an unknown policy routes round-robin
// and a negative hop budget never fails over.
func NewRouter(cfg Config, nodes []Node, stmts engine.StaticStatements) (*Router, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	cfg.Policy = cfg.Policy.orDefault()
	r := &Router{
		cfg:    cfg,
		nodes:  nodes,
		stmts:  stmts,
		routed: make([]uint64, len(nodes)),
	}
	if cfg.Breaker {
		r.breakers = make([]*breaker, len(nodes))
		for i := range r.breakers {
			r.breakers[i] = new(breaker)
		}
	}
	return r, nil
}

// Policy returns the routing discipline.
func (r *Router) Policy() Policy { return r.cfg.Policy }

// Len returns the node count.
func (r *Router) Len() int { return len(r.nodes) }

// Routed returns how many submissions were forwarded to node i.
func (r *Router) Routed(i int) uint64 { return r.routed[i] }

// Rerouted returns how many submissions were steered away from their
// policy's first choice because it was down, tripped, or unhealthy.
func (r *Router) Rerouted() uint64 { return r.rerouted }

// Resubmitted returns how many failover resubmissions the router made
// after crashed responses.
func (r *Router) Resubmitted() uint64 { return r.resubmitted }

// AllExcluded returns how many submissions found every node excluded
// and went to the policy's first choice anyway.
func (r *Router) AllExcluded() uint64 { return r.allExcluded }

// BreakerState returns node i's breaker state; ok is false when
// breakers are disabled.
func (r *Router) BreakerState(i int) (state BreakerState, ok bool) {
	if r.breakers == nil {
		return BreakerClosed, false
	}
	return r.breakers[i].state, true
}

// BreakerTrips returns how many times node i's breaker tripped open
// (0 when breakers are disabled).
func (r *Router) BreakerTrips(i int) uint64 {
	if r.breakers == nil {
		return 0
	}
	return r.breakers[i].trips
}

// BreakerTransitions returns node i's breaker transition trail in
// virtual-time order (nil when breakers are disabled). The returned
// slice is the router's own; callers must not mutate it.
func (r *Router) BreakerTransitions(i int) []BreakerTransition {
	if r.breakers == nil {
		return nil
	}
	return r.breakers[i].transitions
}

// taskNow reads the virtual clock; a nil task (unit tests driving the
// router directly) reads as t=0.
func taskNow(t *vtime.Task) time.Duration {
	if t == nil {
		return 0
	}
	return t.Now()
}

// SubmitThen implements workload.Submitter: route one query to a node,
// store its error through errp and run k. Must be called from task
// context; the state it mutates is what makes later routing decisions,
// so calls are strictly ordered by the event loop.
func (r *Router) SubmitThen(t *vtime.Task, sql string, errp *error, k vtime.Step) {
	op := r.ops.Get()
	if op == nil {
		op = &routeOp{r: r}
	}
	op.sql, op.errp, op.k, op.hops = sql, errp, k, 0
	op.i, op.probe = r.pick(taskNow(t), sql, -1)
	op.forward(t)
}

// routeOp is one submission's passage through the router: forward to the
// picked node, and when the node answers (Run) feed its breaker and either
// fail over or hand the answer to the client.
type routeOp struct {
	r     *Router
	sql   string
	i     int  // the node the submission is at
	probe bool // it went there as a half-open breaker probe
	hops  int  // failover resubmissions so far
	err   error
	errp  *error
	k     vtime.Step
}

func (op *routeOp) forward(t *vtime.Task) {
	op.r.routed[op.i]++
	op.r.nodes[op.i].SubmitThen(t, op.sql, &op.err, op)
}

// Run takes node i's answer. With FailoverHops > 0, a crashed-class
// answer is resubmitted to the next eligible node instead of surfacing
// immediately — the load balancer masking a node loss from the client,
// one layer below the client's own retry/backoff plane.
func (op *routeOp) Run(t *vtime.Task) {
	r, err := op.r, op.err
	if r.breakers != nil {
		r.breakers[op.i].observe(taskNow(t), err, op.probe)
	}
	if op.hops < r.cfg.FailoverHops && err != nil && errclass.Of(err) == errclass.Crashed {
		// Re-pick at the post-attempt clock, avoiding the node that just
		// failed; when the fleet has nowhere else to offer, stop masking
		// and let the client's retry loop take over.
		if j, probe := r.pick(taskNow(t), op.sql, op.i); j != op.i {
			r.resubmitted++
			op.hops++
			op.i, op.probe = j, probe
			op.forward(t)
			return
		}
	}
	*op.errp = err
	k := op.k
	op.sql, op.err, op.errp, op.k = "", nil, nil, nil
	r.ops.Put(op)
	k.Run(t)
}

// eligible reports whether node i may take a submission at virtual
// time now: not crashed (or breaker admitting), and inside the health
// envelope.
func (r *Router) eligible(now time.Duration, i int) bool {
	n := r.nodes[i]
	if r.breakers != nil {
		// With breakers armed the router gives up its liveness oracle: a
		// down node is discovered by its fail-fast crashed responses
		// tripping the breaker, and re-admitted through half-open probes
		// after restart — the router only knows what its own traffic has
		// taught it.
		if !r.breakers[i].canAdmit(now) {
			return false
		}
	} else if n.Down() {
		return false
	}
	if r.cfg.Health && (n.OvercommitRatio() > maxOvercommit || n.ThrashScore() > maxThrash) {
		return false
	}
	return true
}

// pick selects the target node index under the policy at virtual time
// now, skipping avoid (the node a failover hop just watched crash;
// -1 for the first attempt), and commits the choice against the
// node's breaker. probe reports whether the submission is a half-open
// breaker probe.
func (r *Router) pick(now time.Duration, sql string, avoid int) (i int, probe bool) {
	switch r.cfg.Policy {
	case LeastLoaded:
		i = r.pickLeastLoaded(now, avoid)
	case Affinity:
		i = r.eligibleFrom(now, r.home(sql), avoid)
	default: // RoundRobin
		i = r.eligibleFrom(now, r.next, avoid)
		r.next = (i + 1) % len(r.nodes)
	}
	if r.breakers != nil {
		probe = r.breakers[i].admit(now)
	}
	return i, probe
}

// home returns the statement's affinity home node: its fingerprint hash
// modulo the fleet size. The snapshot's StmtID.Seed is that hash.
func (r *Router) home(sql string) int {
	var h uint64
	if id, ok := r.stmts[sql]; ok {
		h = uint64(id.Seed)
	} else {
		h = sqlparser.FingerprintHash(sqlparser.Hash64(sql))
	}
	return int(h % uint64(len(r.nodes)))
}

// eligibleFrom returns the first eligible node at or after start
// (wrapping), or start itself when the whole fleet is excluded — the
// policy's first choice takes the doomed submission and its error
// flows back to the client.
func (r *Router) eligibleFrom(now time.Duration, start, avoid int) int {
	n := len(r.nodes)
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if i == avoid || !r.eligible(now, i) {
			continue
		}
		if k > 0 {
			r.rerouted++
		}
		return i
	}
	r.allExcluded++
	return start
}

// pickLeastLoaded returns the eligible node with the fewest active
// compilations, lowest index on ties. With the whole fleet excluded it
// falls back to the policy's first choice — the same argmin ignoring
// eligibility — matching the fallback contract of the other policies
// (it used to default to node 0, silently diverging from them).
func (r *Router) pickLeastLoaded(now time.Duration, avoid int) int {
	best, bestLoad := -1, 0
	for i, node := range r.nodes {
		if i == avoid || !r.eligible(now, i) {
			continue
		}
		if load := node.ActiveCompiles(); best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best >= 0 {
		return best
	}
	r.allExcluded++
	for i, node := range r.nodes {
		if load := node.ActiveCompiles(); best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// Report renders the routing distribution for diagnostics.
func (r *Router) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "router policy=%s nodes=%d rerouted=%d", r.cfg.Policy, len(r.nodes), r.rerouted)
	if r.breakers != nil || r.cfg.FailoverHops > 0 || r.cfg.Health {
		fmt.Fprintf(&sb, " resubmitted=%d all-excluded=%d", r.resubmitted, r.allExcluded)
	}
	sb.WriteString("\n")
	for i, n := range r.routed {
		fmt.Fprintf(&sb, "  node %d: routed=%d", i, n)
		if r.breakers != nil {
			b := r.breakers[i]
			fmt.Fprintf(&sb, " breaker=%s trips=%d", b.state, b.trips)
			if b.dropped > 0 {
				fmt.Fprintf(&sb, " transitions-dropped=%d", b.dropped)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
