package workload

import (
	"math"
	"math/rand"
	"time"

	"compilegate/internal/errclass"
	"compilegate/internal/vtime"
)

// Submitter runs one query end to end on behalf of a client task as
// continuation steps, then stores the engine's error (compile OOM,
// gateway timeout, grant timeout, ...; nil for a completion) through errp
// and runs k. The engine's Server and the cluster's Router implement it.
type Submitter interface {
	SubmitThen(t *vtime.Task, sql string, errp *error, k vtime.Step)
}

// LoadConfig shapes the closed-loop client population (§5.2's custom load
// generator simulating concurrent database users).
type LoadConfig struct {
	// Clients is the number of concurrent users.
	Clients int
	// Horizon: clients stop submitting new queries at this virtual time
	// (in-flight queries run to completion).
	Horizon time.Duration
	// Warmup is where measurement starts. Clients arrive one after another
	// over at most its first half, so a population of any size is all
	// there before anything is measured.
	Warmup time.Duration
	// ThinkTime separates a client's queries.
	ThinkTime time.Duration
	// MaxRetries bounds resubmission of a failed query; the paper notes
	// aborted queries "likely need to be resubmitted to the system".
	MaxRetries int
	// Seed makes the run reproducible.
	Seed int64

	// Retries are separated by capped exponential backoff: BackoffBase,
	// doubling per attempt up to BackoffCap (0: uncapped), with
	// deterministic jitter drawn from the client's seeded RNG — sleep ∈
	// backoff·[1−BackoffJitter, 1+BackoffJitter). Base equal to cap is a
	// fixed backoff; without jitter nothing is drawn.
	BackoffBase   time.Duration
	BackoffCap    time.Duration
	BackoffJitter float64
	// RetryBudget bounds the total retries one client may spend over the
	// whole run (0 = unbounded). A client with an empty budget gives up
	// on first failure — the well-behaved-driver half of the retry-storm
	// comparison.
	RetryBudget int
	// NoRetryShed stops clients from resubmitting deliberately shed work
	// (errclass.Shed, i.e. gateway timeouts): the server said no on
	// purpose, so a cooperating driver fails the query to the user
	// instead of amplifying the overload.
	NoRetryShed bool
}

// DefaultLoadConfig mirrors the paper's setup at the given client count.
func DefaultLoadConfig(clients int) LoadConfig {
	return LoadConfig{
		Clients:     clients,
		Horizon:     2 * time.Hour,
		ThinkTime:   2 * time.Second,
		MaxRetries:  2,
		Seed:        1,
		BackoffBase: 5 * time.Second,
		BackoffCap:  5 * time.Second,
	}
}

// LoadStats aggregates client-side counters.
type LoadStats struct {
	Submitted int
	Succeeded int
	Failed    int // failures after exhausting retries
	Retries   int
	// GiveUps counts failures abandoned before MaxRetries: shed work the
	// client chose not to resubmit (NoRetryShed) or retries it could not
	// afford (RetryBudget exhausted). Always a subset of Failed.
	GiveUps int
	// BudgetExhausted counts give-ups forced by an empty retry budget
	// (the rest of GiveUps declined to resubmit shed work).
	BudgetExhausted int
}

// Backoff returns the sleep before retry number attempt (1-based).
func (cfg *LoadConfig) Backoff(rng *rand.Rand, attempt int) time.Duration {
	d := cfg.BackoffBase
	if shift := uint(attempt - 1); shift < 63 && d <= math.MaxInt64>>shift {
		d <<= shift
	} else {
		// The shift would overflow. A wrapped value can come out as a
		// small *positive* duration, so the overflow must be caught
		// before shifting rather than by sign-checking the result; pin
		// to the cap (or the base when uncapped).
		d = cfg.BackoffCap
		if d <= 0 {
			d = cfg.BackoffBase
		}
	}
	if cfg.BackoffCap > 0 && d > cfg.BackoffCap {
		d = cfg.BackoffCap
	}
	if cfg.BackoffJitter > 0 {
		// Deterministic jitter in [1-j, 1+j): de-synchronizes a client
		// herd that failed on the same tick without any shared state.
		// Float64 is inlined: rounding it keeps 2*u from fusing with its
		// product on arm64 and the like (DESIGN.md, "Determinism").
		f := 1 + float64(cfg.BackoffJitter*(2*float64(rng.Float64())-1))
		d = time.Duration(float64(d) * f)
	}
	return d
}

// arrivalGap separates consecutive clients' arrivals so they do not align
// on one instant: 250 ms, or less where that would carry the last arrival
// past half the warm-up.
func (cfg *LoadConfig) arrivalGap() time.Duration {
	return min(250*time.Millisecond, cfg.Warmup/time.Duration(2*cfg.Clients))
}

// load is what the clients of one Run share.
type load struct {
	cfg       LoadConfig
	sub       Submitter
	gen       Generator
	stats     LoadStats
	remaining int
	onAllDone func()
}

// client is one closed-loop user as a continuation task: a state machine
// whose every wait — arrival stagger, the submission, retry backoff,
// think time — is a resume point on the event loop.
type client struct {
	ld      *load
	rng     *rand.Rand
	sql     string // the query in flight, kept for its retries
	err     error  // the last submission's outcome
	i       int    // position in the population: seed and stagger
	retries int    // of the query in flight
	budget  int    // retries left for the whole run (cfg.RetryBudget > 0)
	state   int8
}

const (
	clientArrive   int8 = iota // first dispatch: seed, then stagger
	clientNext                 // stagger or think time is over: next query, or leave
	clientSubmit               // backoff is over: resubmit
	clientAnswered             // a submission came back
)

func (c *client) Run(t *vtime.Task) {
	ld := c.ld
	cfg, stats := &ld.cfg, &ld.stats
	switch c.state {
	case clientArrive:
		c.rng = vtime.NewRand(cfg.Seed + int64(c.i)*7919)
		c.budget = cfg.RetryBudget
		c.state = clientNext
		t.SleepThen(time.Duration(c.i)*cfg.arrivalGap(), c)
	case clientNext:
		if t.Now() >= cfg.Horizon {
			ld.remaining--
			if ld.remaining == 0 && ld.onAllDone != nil {
				ld.onAllDone()
			}
			return // no resume point armed: the client leaves
		}
		c.sql = ld.gen.Next(c.rng)
		stats.Submitted++
		c.retries = 0
		fallthrough
	case clientSubmit:
		c.state = clientAnswered
		ld.sub.SubmitThen(t, c.sql, &c.err, c)
	case clientAnswered:
		if c.err != nil && c.retries < cfg.MaxRetries && t.Now() < cfg.Horizon && c.mayRetry() {
			c.retries++
			stats.Retries++
			c.state = clientSubmit
			t.SleepThen(cfg.Backoff(c.rng, c.retries), c)
			return
		}
		if c.err != nil {
			stats.Failed++
		} else {
			stats.Succeeded++
		}
		c.state = clientNext
		t.SleepThen(cfg.ThinkTime, c)
	}
}

// mayRetry decides whether the client resubmits after c.err, counting a
// give-up when it does not: shed work a cooperating driver leaves alone,
// or a retry the client's budget cannot pay for.
func (c *client) mayRetry() bool {
	cfg, stats := &c.ld.cfg, &c.ld.stats
	if cfg.NoRetryShed && errclass.IsShed(c.err) {
		stats.GiveUps++
		return false
	}
	if cfg.RetryBudget > 0 {
		if c.budget <= 0 {
			stats.GiveUps++
			stats.BudgetExhausted++
			return false
		}
		c.budget--
	}
	return true
}

// Run spawns cfg.Clients client tasks against sub. onAllDone (may be nil)
// fires from the last client to finish — use it to stop engine
// housekeeping. Returns the shared stats structure, filled in as the
// simulation runs.
func Run(sched *vtime.Scheduler, sub Submitter, gen Generator, cfg LoadConfig, onAllDone func()) *LoadStats {
	ld := &load{cfg: cfg, sub: sub, gen: gen, remaining: cfg.Clients, onAllDone: onAllDone}
	clients := make([]client, cfg.Clients)
	for i := range clients {
		clients[i] = client{ld: ld, i: i}
		sched.GoStep("client", &clients[i])
	}
	return &ld.stats
}
