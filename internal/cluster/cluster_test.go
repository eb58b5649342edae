package cluster

import (
	"errors"
	"strings"
	"testing"

	"compilegate/internal/engine"
	"compilegate/internal/errclass"
	"compilegate/internal/sqlparser"
	"compilegate/internal/vtime"
)

// fakeNode records submissions and plays back scripted health/load.
type fakeNode struct {
	down       bool
	active     int
	overcommit float64
	thrash     float64
	submitted  []string
	err        error
}

func (f *fakeNode) SubmitThen(t *vtime.Task, sql string, errp *error, k vtime.Step) {
	f.submitted = append(f.submitted, sql)
	*errp = f.err
	k.Run(t)
}

// submit routes one statement outside any scheduler: the fake nodes answer
// synchronously, and a nil task reads as t=0.
func submit(r *Router, sql string) error {
	var err error
	r.SubmitThen(nil, sql, &err, vtime.StepFunc(func(*vtime.Task) {}))
	return err
}

func (f *fakeNode) Down() bool               { return f.down }
func (f *fakeNode) ActiveCompiles() int      { return f.active }
func (f *fakeNode) OvercommitRatio() float64 { return f.overcommit }
func (f *fakeNode) ThrashScore() float64     { return f.thrash }

func fleet(n int) ([]*fakeNode, []Node) {
	fakes := make([]*fakeNode, n)
	nodes := make([]Node, n)
	for i := range fakes {
		fakes[i] = &fakeNode{}
		nodes[i] = fakes[i]
	}
	return fakes, nodes
}

func TestPolicyValidation(t *testing.T) {
	for _, p := range []Policy{"", RoundRobin, LeastLoaded, Affinity} {
		if !p.Valid() {
			t.Errorf("policy %q should be valid", p)
		}
	}
	if Policy("random").Valid() {
		t.Error("unknown policy validated")
	}
	if Policy("").String() != "round-robin" {
		t.Errorf("empty policy renders %q, want round-robin", Policy("").String())
	}
	if _, err := NewRouter(Config{}, nil, nil); err == nil {
		t.Error("router accepted an empty fleet")
	}
}

func TestRoundRobinCyclesAndSkipsDownNodes(t *testing.T) {
	fakes, nodes := fleet(3)
	r, err := NewRouter(Config{Policy: RoundRobin}, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := submit(r, "q"); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range fakes {
		if len(f.submitted) != 2 {
			t.Errorf("node %d got %d submissions, want 2", i, len(f.submitted))
		}
	}

	// Node 1 crashes: its turn falls through to node 2 and the cursor
	// continues from there.
	fakes[1].down = true
	for i := 0; i < 4; i++ {
		submit(r, "q")
	}
	if len(fakes[1].submitted) != 2 {
		t.Errorf("down node received %d submissions, want still 2", len(fakes[1].submitted))
	}
	if got := len(fakes[0].submitted) + len(fakes[2].submitted); got != 8 {
		t.Errorf("live nodes received %d total, want 8", got)
	}
	if r.Rerouted() == 0 {
		t.Error("rerouted counter did not move while a node was down")
	}
}

func TestRoundRobinAllDownFallsBack(t *testing.T) {
	fakes, nodes := fleet(2)
	for _, f := range fakes {
		f.down = true
		f.err = errors.New("crashed")
	}
	r, _ := NewRouter(Config{Policy: RoundRobin}, nodes, nil)
	if err := submit(r, "q"); err == nil {
		t.Fatal("submission to an all-down fleet should surface the node error")
	}
	if len(fakes[0].submitted)+len(fakes[1].submitted) != 1 {
		t.Fatal("all-down fleet should still receive the doomed submission")
	}
}

func TestLeastLoadedPicksArgminWithStableTies(t *testing.T) {
	fakes, nodes := fleet(3)
	fakes[0].active, fakes[1].active, fakes[2].active = 4, 1, 1
	r, _ := NewRouter(Config{Policy: LeastLoaded}, nodes, nil)
	submit(r, "q")
	if len(fakes[1].submitted) != 1 {
		t.Fatal("least-loaded must break ties to the lowest index")
	}
	fakes[1].active = 9
	submit(r, "q")
	if len(fakes[2].submitted) != 1 {
		t.Fatal("least-loaded did not track the load signal")
	}
	// The lightest node crashing removes it from consideration.
	fakes[2].down = true
	submit(r, "q")
	if len(fakes[0].submitted) != 1 {
		t.Fatal("least-loaded routed to a down node")
	}
}

func TestAffinityPinsStatementsToHomes(t *testing.T) {
	fakes, nodes := fleet(4)
	stmts := []string{
		"SELECT * FROM dim_customer WHERE dim_customer.customer_id = 1",
		"SELECT * FROM dim_product WHERE dim_product.product_id = 37",
		"SELECT * FROM dim_customer WHERE dim_customer.customer_id = 202",
	}
	// The snapshot knows the first two; the third is fingerprinted per
	// submission. All three must land on the fingerprint-hash home.
	r, _ := NewRouter(Config{Policy: Affinity}, nodes, engine.PrepareStatements(stmts[:2]))
	// A doctored identity shows the snapshot is what routes a known
	// statement, not a second fingerprinting of its text.
	fpHome := r.home(stmts[0])
	doctored, _ := NewRouter(Config{Policy: Affinity}, nodes,
		engine.StaticStatements{stmts[0]: {Seed: int64(fpHome + 1)}})
	if got, want := doctored.home(stmts[0]), (fpHome+1)%len(nodes); got != want {
		t.Errorf("home = %d, want %d from the snapshot's StmtID", got, want)
	}
	homes := make([]int, len(stmts))
	for si, sql := range stmts {
		want := int(sqlparser.Hash64(sqlparser.Fingerprint(sql)) % uint64(len(nodes)))
		homes[si] = want
		before := len(fakes[want].submitted)
		for i := 0; i < 3; i++ {
			submit(r, sql)
		}
		if got := len(fakes[want].submitted) - before; got != 3 {
			t.Errorf("statement %d: home node %d got %d of 3 submissions", si, want, got)
		}
	}

	// A down home falls through to the next live node, and comes back
	// after restart.
	home := homes[0]
	fakes[home].down = true
	submit(r, stmts[0])
	fallback := (home + 1) % len(nodes)
	if len(fakes[fallback].submitted) == 0 {
		t.Fatal("affinity did not fall through past the down home")
	}
	fakes[home].down = false
	before := len(fakes[home].submitted)
	submit(r, stmts[0])
	if len(fakes[home].submitted) != before+1 {
		t.Fatal("affinity did not return to the restarted home")
	}
}

// TestAllExcludedFallbackIsPolicyFirstChoice pins the all-excluded
// contract across every policy: the doomed submission goes to the
// policy's first choice computed without the eligibility filter.
// (pickLeastLoaded used to return node 0 here, silently diverging from
// the round-robin and affinity paths.)
func TestAllExcludedFallbackIsPolicyFirstChoice(t *testing.T) {
	affSQL := "SELECT * FROM dim_customer WHERE dim_customer.customer_id = 1"
	affHome := func(n int) int {
		return int(sqlparser.Hash64(sqlparser.Fingerprint(affSQL)) % uint64(n))
	}
	cases := []struct {
		name   string
		policy Policy
		sql    string
		active [3]int
		want   func() int
	}{
		{"round-robin-cursor", RoundRobin, "q", [3]int{0, 0, 0},
			func() int { return 0 }},
		{"affinity-home", Affinity, affSQL, [3]int{0, 0, 0},
			func() int { return affHome(3) }},
		{"least-loaded-argmin", LeastLoaded, "q", [3]int{4, 1, 2},
			func() int { return 1 }},
		{"least-loaded-tie-lowest-index", LeastLoaded, "q", [3]int{3, 3, 3},
			func() int { return 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fakes, nodes := fleet(3)
			for i, f := range fakes {
				f.down = true
				f.err = errors.New("crashed")
				f.active = tc.active[i]
			}
			r, err := NewRouter(Config{Policy: tc.policy}, nodes, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := submit(r, tc.sql); err == nil {
				t.Fatal("all-down fleet should surface the node error")
			}
			want := tc.want()
			if got := len(fakes[want].submitted); got != 1 {
				t.Fatalf("first choice node %d got %d submissions (routed: %v)",
					want, got, []uint64{r.Routed(0), r.Routed(1), r.Routed(2)})
			}
			if r.AllExcluded() != 1 {
				t.Fatalf("all-excluded counter = %d, want 1", r.AllExcluded())
			}
		})
	}
}

// TestHealthExclusion pins the health envelope: every policy skips
// nodes past the overcommit/thrash thresholds exactly like crashed nodes.
func TestHealthExclusion(t *testing.T) {
	newHealthy := func(policy Policy) ([]*fakeNode, *Router) {
		fakes, nodes := fleet(3)
		r, err := NewRouter(Config{Policy: policy, Health: true}, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fakes, r
	}

	// Overcommit past the 1.25 threshold excludes the node.
	fakes, r := newHealthy(RoundRobin)
	fakes[0].overcommit = 1.4
	for i := 0; i < 6; i++ {
		submit(r, "q")
	}
	if len(fakes[0].submitted) != 0 {
		t.Fatalf("overcommitted node took %d submissions", len(fakes[0].submitted))
	}
	if len(fakes[1].submitted)+len(fakes[2].submitted) != 6 {
		t.Fatal("healthy nodes did not absorb the load")
	}
	if r.Rerouted() == 0 {
		t.Error("rerouted counter did not move for a health exclusion")
	}

	// Thrash score past the 0.9 threshold excludes too; at the threshold
	// it does not (inclusive envelope).
	fakes, r = newHealthy(RoundRobin)
	fakes[1].thrash = 0.95
	fakes[2].thrash = 0.9
	for i := 0; i < 6; i++ {
		submit(r, "q")
	}
	if len(fakes[1].submitted) != 0 {
		t.Fatalf("thrashing node took %d submissions", len(fakes[1].submitted))
	}
	if len(fakes[2].submitted) == 0 {
		t.Fatal("node at the thrash threshold was excluded")
	}

	// Least-loaded moves to the next healthy node.
	fakes, r = newHealthy(LeastLoaded)
	fakes[0].overcommit = 1.3
	submit(r, "q")
	if len(fakes[0].submitted) != 0 || len(fakes[1].submitted) != 1 {
		t.Fatal("least-loaded did not move to the next healthy node")
	}
}

// TestFailoverResubmission pins the failover plane: crashed responses
// hop to the next eligible node within the hop budget, other error
// classes surface immediately, and an exhausted fleet stops masking.
func TestFailoverResubmission(t *testing.T) {
	fakes, nodes := fleet(3)
	r, err := NewRouter(Config{Policy: RoundRobin, FailoverHops: 2}, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Node 0 returns a crashed response (an in-flight loss: Down() is
	// still false); the router resubmits to node 1, which succeeds.
	fakes[0].err = errclass.Crashed
	if err := submit(r, "q"); err != nil {
		t.Fatalf("failover did not mask the crash: %v", err)
	}
	if len(fakes[0].submitted) != 1 || len(fakes[1].submitted) != 1 {
		t.Fatalf("submissions = %d/%d/%d, want 1/1/0",
			len(fakes[0].submitted), len(fakes[1].submitted), len(fakes[2].submitted))
	}
	if r.Resubmitted() != 1 {
		t.Fatalf("resubmitted = %d, want 1", r.Resubmitted())
	}

	// Shed responses are the admission policy speaking, not a dead
	// node: no failover, whichever node the cursor lands on.
	for _, f := range fakes {
		f.err = errclass.Shed
	}
	if err := submit(r, "q"); !errors.Is(err, errclass.Shed) {
		t.Fatalf("shed response was masked: %v", err)
	}
	if r.Resubmitted() != 1 {
		t.Fatal("shed response triggered failover")
	}

	// Every node crashing exhausts the hop budget: two hops after the
	// first attempt, then the error surfaces.
	fakes, nodes = fleet(3)
	for _, f := range fakes {
		f.err = errclass.Crashed
	}
	r, _ = NewRouter(Config{Policy: RoundRobin, FailoverHops: 2}, nodes, nil)
	if err := submit(r, "q"); !errors.Is(err, errclass.Crashed) {
		t.Fatalf("exhausted failover returned %v", err)
	}
	total := len(fakes[0].submitted) + len(fakes[1].submitted) + len(fakes[2].submitted)
	if total != 3 || r.Resubmitted() != 2 {
		t.Fatalf("attempts = %d, resubmitted = %d, want 3 and 2", total, r.Resubmitted())
	}
}

// TestRouterBreakerTripsAndExcludes drives classified failures through
// the router until the node's breaker opens, then checks routing
// avoids it and the accessors report the trip.
func TestRouterBreakerTripsAndExcludes(t *testing.T) {
	fakes, nodes := fleet(2)
	cfg := Config{Policy: RoundRobin, Breaker: true}
	r, err := NewRouter(cfg, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := r.BreakerState(0); !ok || st != BreakerClosed {
		t.Fatalf("initial breaker state = %s/%v", st, ok)
	}
	// Node 0 sheds everything it sees; round-robin alternates, so node
	// 0 accumulates consecutive failures while node 1 stays healthy.
	fakes[0].err = errclass.Shed
	for i := 0; i < 2*breakerThreshold; i++ {
		submit(r, "q")
	}
	if st, _ := r.BreakerState(0); st != BreakerOpen {
		t.Fatalf("node 0 breaker = %s, want open", st)
	}
	if r.BreakerTrips(0) != 1 || r.BreakerTrips(1) != 0 {
		t.Fatalf("trips = %d/%d, want 1/0", r.BreakerTrips(0), r.BreakerTrips(1))
	}
	if len(r.BreakerTransitions(0)) != 1 {
		t.Fatalf("transition trail = %v", r.BreakerTransitions(0))
	}
	// With the breaker open (and a nil-task clock pinned at 0, inside
	// the cooldown) every further submission lands on node 1.
	before := len(fakes[0].submitted)
	for i := 0; i < 4; i++ {
		if err := submit(r, "q"); err != nil {
			t.Fatal(err)
		}
	}
	if len(fakes[0].submitted) != before {
		t.Fatal("open breaker did not exclude the node")
	}
	rep := r.Report()
	if !strings.Contains(rep, "breaker=open trips=1") || !strings.Contains(rep, "resubmitted=0") {
		t.Fatalf("report missing breaker fields:\n%s", rep)
	}
}

func TestRoutedCountersAndReport(t *testing.T) {
	_, nodes := fleet(2)
	r, _ := NewRouter(Config{Policy: RoundRobin}, nodes, nil)
	for i := 0; i < 5; i++ {
		submit(r, "q")
	}
	if r.Len() != 2 || r.Policy() != RoundRobin {
		t.Fatal("accessors broken")
	}
	if r.Routed(0)+r.Routed(1) != 5 {
		t.Fatalf("routed counters sum to %d, want 5", r.Routed(0)+r.Routed(1))
	}
	rep := r.Report()
	if !strings.Contains(rep, "policy=round-robin") || !strings.Contains(rep, "node 1") {
		t.Fatalf("report missing fields:\n%s", rep)
	}
}
