package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"compilegate/internal/harness"
	"compilegate/internal/scenario"
)

// runRecord is one operation: one simulation run plus its checks.
type runRecord struct {
	Seed    int64
	Start   time.Time
	Wall    time.Duration
	Mallocs uint64
	Queries int
	Digest  string
	Result  *harness.Result
	// Err is the Run error or the first failed check.
	Err error
}

// queries is the number of calls into Submit the clients made. Retries
// count, so a retry storm does not deflate host_ns_per_query.
func queries(r *harness.Result) int { return r.Load.Submitted + r.Load.Retries }

// failedShare is the client-perceived failure share after retries.
func failedShare(r *harness.Result) float64 {
	if r.Load.Submitted == 0 {
		return 0
	}
	return float64(r.Load.Failed) / float64(r.Load.Submitted)
}

// routedImbalance is max/min submissions routed to a node (1 = even).
func routedImbalance(r *harness.Result) float64 {
	if len(r.NodeResults) == 0 {
		return 1
	}
	lo, hi := r.NodeResults[0].Routed, r.NodeResults[0].Routed
	for _, n := range r.NodeResults[1:] {
		lo, hi = min(lo, n.Routed), max(hi, n.Routed)
	}
	if lo == 0 {
		return float64(hi) + 1
	}
	return float64(hi) / float64(lo)
}

// digest condenses every simulated quantity the benchmark reads into one
// word; two runs of one seed must produce the same one.
func digest(r *harness.Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %+v %d %d %v %v %d %d %d %d %d %d %v %v %v %d %d %d %v %v %d %d %v %v",
		r.Completed, r.Errors, r.Load, r.CompileMemMean, r.CompileMemMax,
		r.BufferPoolHitRate, r.PlanCacheHitRate, r.GatewayTimeouts, r.BestEffortPlans,
		r.BrownoutEntries, r.BrownoutTicks, r.Rerouted, r.Resubmitted,
		r.CompileP50, r.CompileP90, r.ExecP50,
		r.AvgPoolBytes, r.AvgCompileBytes, r.AvgExecBytes, r.AvgActiveCompiles, r.AvgOvercommitRatio,
		r.PageStealBytes, r.SimEvents, r.Recovered, r.RecoveryTime)
	if r.Fault != nil {
		fmt.Fprintf(h, " %+v", *r.Fault)
	}
	for _, p := range r.Series {
		fmt.Fprintf(h, " %d:%d", p.T, p.V)
	}
	for _, n := range r.NodeResults {
		fmt.Fprintf(h, " n%d:%d:%d:%d:%d", n.Node, n.Routed, n.Completed, n.Errors, n.BreakerTrips)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// conserve audits the bookkeeping identities every run must satisfy.
func conserve(r *harness.Result) error {
	if l := r.Load; l.Succeeded+l.Failed != l.Submitted {
		return fmt.Errorf("client conservation: succeeded %d + failed %d != submitted %d", l.Succeeded, l.Failed, l.Submitted)
	}
	var series int64
	for _, p := range r.Series {
		series += p.V
	}
	if series != r.Completed {
		return fmt.Errorf("window conservation: series sum %d != completed %d", series, r.Completed)
	}
	if len(r.NodeResults) > 0 {
		var routed uint64
		for _, n := range r.NodeResults {
			routed += n.Routed
		}
		if want := uint64(queries(r)) + r.Resubmitted; routed != want {
			return fmt.Errorf("routing conservation: routed %d != submitted+retries+resubmitted %d", routed, want)
		}
	}
	return nil
}

// check applies every per-run check; want is the digest an earlier round
// of the same seed produced ("" for the first).
func check(w Workload, r *harness.Result, got, want string) error {
	if want != "" && got != want {
		return fmt.Errorf("determinism: digest %s, earlier round of this seed had %s", got, want)
	}
	if err := conserve(r); err != nil {
		return err
	}
	if err := w.Guard(r); err != nil {
		return fmt.Errorf("guard: %w", err)
	}
	return nil
}

// simulate runs one seed of the workload, timed, and checks the result
// against want. Two collections before the clock starts give every run
// the same state to start from: a small heap and empty sync.Pools (a
// pool's victim cache survives one collection), so neither the time nor
// the allocation count depends on what the previous run left behind.
func simulate(w Workload, seed int64, want string) runRecord {
	rec := runRecord{Seed: seed}
	s := w.Scenario.WithSeed(seed)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec.Start = time.Now()
	res, err := s.Run()
	rec.Wall = time.Since(rec.Start)
	runtime.ReadMemStats(&after)
	if err != nil {
		rec.Err = err
		return rec
	}
	rec.Mallocs = after.Mallocs - before.Mallocs
	rec.Result = res
	rec.Queries = queries(res)
	rec.Digest = digest(res)
	rec.Err = check(w, res, rec.Digest, want)
	return rec
}

// tally counts operations and keeps the first few failures for the report.
type tally struct {
	Attempted int
	Failed    int
	Errors    []string
}

func (t *tally) add(w Workload, rec runRecord) {
	t.Attempted++
	if rec.Err != nil {
		t.Failed++
		if len(t.Errors) < 8 {
			t.Errors = append(t.Errors, fmt.Sprintf("%s seed %d: %v", w.Name, rec.Seed, rec.Err))
		}
	}
}

// timedRun is the outcome of the untraced rounds of one workload.
type timedRun struct {
	tally
	// Rounds[r][i] is round r of seed base+i.
	Rounds [][]runRecord
	// SetupSamples are the set-up times, one per probe process.
	SetupSamples []float64
}

// seedsOf lists the workload's seeds from base.
func seedsOf(w Workload, base int64) []int64 {
	out := make([]int64, w.Seeds)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// rounds runs interleaved rounds over the seeds: at least w.MinRounds,
// then more while a further round still fits in budget. Interleaving
// (every seed once per round) spreads a slow spell of the host over all
// seeds instead of sinking one seed's every sample.
func rounds(w Workload, base int64, budget time.Duration, t *tally) [][]runRecord {
	seeds := seedsOf(w, base)
	var out [][]runRecord
	start := time.Now()
	for {
		roundStart := time.Now()
		round := make([]runRecord, len(seeds))
		for i, seed := range seeds {
			want := ""
			if len(out) > 0 {
				want = out[0][i].Digest
			}
			round[i] = simulate(w, seed, want)
			t.add(w, round[i])
		}
		out = append(out, round)
		if len(out) >= w.MinRounds && time.Since(start)+time.Since(roundStart) > budget {
			return out
		}
	}
}

// warmUp is the discarded run every process makes before its first timed
// one (and all a -setup-probe child does): it builds the process-wide
// snapshot, fills pools and faults in the heap. Its seed is base-1,
// outside the measured seeds.
func warmUp(w Workload, base int64) error {
	_, err := w.Scenario.WithSeed(base - 1).Run()
	return err
}

// Set-up is timed in at least minProbes and at most maxProbes fresh
// processes, stopping early once probeBudget is spent: a workload whose
// set-up takes seconds gets the minimum, a short one the steadier median
// of five.
const (
	minProbes   = 3
	maxProbes   = 5
	probeBudget = 6 * time.Second
)

// measureSetup starts fresh processes of this binary that each set up and
// exit, and returns the wall times from start to exit: runtime and
// package initialisation, snapshot build, and the discarded warm-up run.
// A fresh process is the only way to pay for the process-wide snapshot
// cache again.
func measureSetup(w Workload, base int64, quick bool) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-setup-probe", "-workload", w.Name, "-seed", strconv.FormatInt(base, 10)}
	if quick {
		args = append(args, "-quick")
	}
	var out []float64
	start := time.Now()
	for len(out) < minProbes || (len(out) < maxProbes && time.Since(start) < probeBudget) {
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// runTimed is the untraced measurement of one workload: set-up probes,
// one discarded warm-up, then the timed rounds.
func runTimed(w Workload, base int64, budget time.Duration, quick, probe bool) (*timedRun, error) {
	tr := &timedRun{}
	if probe {
		samples, err := measureSetup(w, base, quick)
		if err != nil {
			return nil, err
		}
		tr.SetupSamples = samples
	}
	t0 := time.Now()
	if err := warmUp(w, base); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if !probe {
		// In-process fallback (tests): this process's own warm-up.
		tr.SetupSamples = []float64{time.Since(t0).Seconds()}
	}
	tr.Rounds = rounds(w, base, budget, &tr.tally)
	return tr, nil
}

// endToEndValues folds the timed rounds into the end-to-end metrics.
func (tr *timedRun) endToEndValues(w Workload) map[string]float64 {
	var fastest, allWall time.Duration
	var perSeedQueries, allQueries int
	var mallocs uint64
	var completed int64
	var succeeded, submitted int
	for i := range tr.Rounds[0] {
		best := time.Duration(0)
		for _, round := range tr.Rounds {
			rec := round[i]
			if rec.Result == nil {
				continue
			}
			if best == 0 || rec.Wall < best {
				best = rec.Wall
			}
			allWall += rec.Wall
			allQueries += rec.Queries
			mallocs += rec.Mallocs
		}
		fastest += best
		if r := tr.Rounds[0][i].Result; r != nil {
			perSeedQueries += tr.Rounds[0][i].Queries
			completed += r.Completed
			succeeded += r.Load.Succeeded
			submitted += r.Load.Submitted
		}
	}
	window := (w.Scenario.Horizon - w.Scenario.Warmup).Hours()
	return map[string]float64{
		"host_ns_per_query":     ratio(float64(fastest.Nanoseconds()), float64(perSeedQueries)),
		"host_allocs_per_query": ratio(float64(mallocs), float64(allQueries)),
		"sim_queries_per_vhour": ratio(float64(completed), float64(len(tr.Rounds[0]))*window),
		"sim_success_share":     ratio(float64(succeeded), float64(submitted)),
		"setup_s":               scenario.Median(tr.SetupSamples),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
