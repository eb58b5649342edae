package optimizer

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"compilegate/internal/vtime"
)

// The kernel helper: one goroutine, process-wide, that grows the tapes of the
// runs players ask it to, on a core the simulations leave idle, and then
// solves their DP at final. Tape and DP are pure functions of the statement,
// so who computed them cannot be observed, and the player still makes every
// demand. EXPERIMENTS.md ("Measured and left out") has the measurements.
const (
	// lookahead is how many work batches past the mark its player needs next
	// the helper keeps a run's tape.
	lookahead = 16
	// linger is how long the helper polls for requests after its last piece of
	// work before it parks: a compilation's batches are microseconds of host
	// time apart and waking an idle core costs far more, so a helper that parks
	// the moment its queue is empty never gets ahead of a player.
	linger = 200 * time.Microsecond
	// pollsPerClock is how many empty polls pass between two reads of the
	// clock: one read per poll made the clock an idle helper's hottest code.
	pollsPerClock = 64
	// solveChunk is how many groups of a DP the helper solves between two
	// looks at whether a player waits for the run.
	solveChunk = 128
)

var (
	// helperQueue holds the runs whose target is past their marks. 256 is
	// several times the compilations the benchmark's workloads interleave; a
	// request that finds it full is dropped and made again a boundary later.
	helperQueue = make(chan *run, 256)
	helperStart sync.Once
	// helps is false only in the differential tests (export_test.go).
	helps = true
)

// HelperCounts says how the kernel's work was split: steps (run.advance
// calls) by the helper and by players, runs queued for the helper, times a
// player found its run held by the helper, times the helper ran out of work
// and parked; and how extraction's was: DPs the helper solved, extractions
// that found one solved at their prefix, solves the helper gave up to a
// player. It depends on host timing: it must never reach a Result, a Report
// or a golden.
type HelperCounts struct{ HelperSteps, InlineSteps, Requests, Handoffs, Parks, Solves, SolveHits, SolvesAbandoned uint64 }

var counts struct{ helperSteps, inlineSteps, requests, handoffs, parks, solves, solveHits, solvesAbandoned atomic.Uint64 }

// HelperStats returns the counters' totals since the process started.
func HelperStats() HelperCounts {
	return HelperCounts{counts.helperSteps.Load(), counts.inlineSteps.Load(),
		counts.requests.Load(), counts.handoffs.Load(), counts.parks.Load(),
		counts.solves.Load(), counts.solveHits.Load(), counts.solvesAbandoned.Load()}
}

// spareCore reports whether a core is left for the helper: more than one, and
// more than the event loops running now — a sweep with a worker per core has
// none, and the helper would only take time from a simulation.
func spareCore() bool { return helps && runtime.GOMAXPROCS(0) > max(1, vtime.Running()) }

// request asks the helper to keep r's tape lookahead batches past mark k, the
// next one the player needs, and never past limit, the last mark the
// compilation's budget lets it jump to (0: the player asks for nothing). The
// request that first reaches limit queues the run even where the tape is
// long enough, a replay's, so that help takes it to the DP at final. The
// first request starts the helper.
func (r *run) request(k, limit int) {
	want := int32(min(k+lookahead, limit))
	raised := r.target.Load() < want
	if raised {
		r.target.Store(want)
	}
	if (r.nmarks.Load() >= want && !(raised && want == int32(limit))) || r.queued.Load() || !r.queued.CompareAndSwap(false, true) {
		return
	}
	select {
	case helperQueue <- r:
		counts.requests.Add(1)
		helperStart.Do(func() { go helperLoop() })
	default:
		r.queued.Store(false)
	}
}

// helperLoop serves requests for the life of the process: tapes first, DPs
// when no tape is asked for. Parked on its queue, it holds nothing and costs
// nothing.
func helperLoop() {
	// Runs help took to final; every run the tape queue holds may get there.
	solves := make(chan *run, cap(helperQueue))
	idle, polls := time.Now(), 0
	for {
		select {
		case r := <-helperQueue:
			r.help(solves)
		default:
			select {
			case r := <-solves:
				r.solveFinal()
			default:
				if polls++; polls%pollsPerClock != 0 || time.Since(idle) < linger {
					continue
				}
				counts.parks.Add(1)
				(<-helperQueue).help(solves)
			}
		}
		idle, polls = time.Now(), 0
	}
}

// help advances r to its target, or until a player wants it. A player given
// its last jumpable mark, budget/WorkBatch, stops at final unless it is cut,
// so the tape goes on to final, and the run joins solves if the DP there is
// still to solve (a full queue drops it: the player solves). A run a player
// holds is left alone, and so is one no compilation asks anything for:
// recycled since the request, or done with it — its target is zero. Either
// way a player's next boundary asks again.
func (r *run) help(solves chan<- *run) {
	if r.mu.TryLock() {
		steps := uint64(0)
		for !r.wanted.Load() && r.nmarks.Load() < r.target.Load() && r.advance() {
			steps++
		}
		if r.target.Load() > 0 && int(r.nmarks.Load()) >= r.budget/r.o.cfg.WorkBatch {
			for !r.wanted.Load() && r.final.pos == 0 && r.advance() {
				steps++
			}
		}
		solve := r.target.Load() > 0 && r.final.pos != 0 && r.solved != r.final
		r.mu.Unlock()
		counts.helperSteps.Add(steps)
		if solve {
			select {
			case solves <- r:
			default:
			}
		}
	}
	r.queued.Store(false)
}

// solveFinal solves r's DP at final for its player to find, unless a player
// holds the run, no compilation asks for it, it is solved already, or a
// player comes for the run first.
func (r *run) solveFinal() {
	if !r.mu.TryLock() {
		return
	}
	if r.target.Load() > 0 && r.final.pos != 0 && r.solved != r.final {
		if r.solve(r.final, true) {
			counts.solves.Add(1)
		} else {
			counts.solvesAbandoned.Add(1)
		}
	}
	r.mu.Unlock()
}

// take locks r for a player or the pool; a helper that holds it lets go at its
// next kernel step, or within solveChunk groups of a DP.
func (r *run) take() {
	if r.mu.TryLock() {
		return
	}
	counts.handoffs.Add(1)
	r.wanted.Store(true)
	r.mu.Lock()
	r.wanted.Store(false)
}
