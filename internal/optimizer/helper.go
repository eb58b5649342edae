package optimizer

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"compilegate/internal/vtime"
)

// The kernel helper: one goroutine, process-wide, that grows the tapes of the
// runs players ask it to, on a core the simulations leave idle. A tape is a
// pure function of its statement, so who advanced it cannot be observed, and
// the player still makes every hook call. Both constants carry their
// measurements in EXPERIMENTS.md ("Measured and left out").
const (
	// lookahead is how many work batches past the mark its player needs next
	// the helper keeps a run's tape.
	lookahead = 16
	// linger is how long the helper polls for requests after its last piece of
	// work before it parks: a compilation's batches are microseconds of host
	// time apart and waking an idle core costs far more, so a helper that parks
	// the moment its queue is empty never gets ahead of a player.
	linger = 200 * time.Microsecond
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
// and parked. It depends on host timing: it must never reach a Result, a
// Report or a golden.
type HelperCounts struct{ HelperSteps, InlineSteps, Requests, Handoffs, Parks uint64 }

var counts struct{ helperSteps, inlineSteps, requests, handoffs, parks atomic.Uint64 }

// HelperStats returns the counters' totals since the process started.
func HelperStats() HelperCounts {
	return HelperCounts{counts.helperSteps.Load(), counts.inlineSteps.Load(),
		counts.requests.Load(), counts.handoffs.Load(), counts.parks.Load()}
}

// spareCore reports whether a core is left for the helper: more than one, and
// more than the event loops running now — a sweep with a worker per core has
// none, and the helper would only take time from a simulation.
func spareCore() bool { return helps && runtime.GOMAXPROCS(0) > max(1, vtime.Running()) }

// request asks the helper to keep r's tape lookahead batches past mark k, the
// next one the player needs, and never past limit, the last mark the
// compilation's budget lets it jump to (0: the player asks for nothing). The
// first request starts the helper.
func (r *run) request(k, limit int) {
	want := int32(min(k+lookahead, limit))
	if r.target.Load() < want {
		r.target.Store(want)
	}
	if r.nmarks.Load() >= want || r.queued.Load() || !r.queued.CompareAndSwap(false, true) {
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

// helperLoop serves requests for the life of the process: parked on its
// queue, it holds nothing and costs nothing.
func helperLoop() {
	for idle := time.Now(); ; {
		select {
		case r := <-helperQueue:
			r.help()
			idle = time.Now()
		default:
			if time.Since(idle) >= linger {
				counts.parks.Add(1)
				(<-helperQueue).help()
				idle = time.Now()
			}
		}
	}
}

// help advances r to its target, or until a player wants it. A run a player
// holds is left alone, and so is one recycled since the request: its target is
// zero. Either way the player's next boundary asks again.
func (r *run) help() {
	if r.mu.TryLock() {
		steps := uint64(0)
		for !r.wanted.Load() && r.nmarks.Load() < r.target.Load() && r.advance() {
			steps++
		}
		r.mu.Unlock()
		counts.helperSteps.Add(steps)
	}
	r.queued.Store(false)
}

// take locks r for a player or the pool; a helper that holds it lets go at its
// next step.
func (r *run) take() {
	if r.mu.TryLock() {
		return
	}
	counts.handoffs.Add(1)
	r.wanted.Store(true)
	r.mu.Lock()
	r.wanted.Store(false)
}
