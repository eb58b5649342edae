package cluster

import (
	"fmt"
	"time"

	"compilegate/internal/errclass"
)

// The per-node circuit breakers the router keeps when Config.Breaker is
// set watch every routed submission's outcome through the errclass
// taxonomy: a classified failure (Shed / Timeout / OOM / Crashed) counts
// against the node, an unclassified error (a parse error is the client's
// fault, not the node's) and a success do not.
const (
	// breakerThreshold consecutive classified failures trip a closed
	// breaker open. Any success resets the streak, so a node that still
	// completes work between failures — the correlated-compile-storm case
	// — never trips.
	breakerThreshold = 5
	// breakerCooldown is the virtual time an open breaker waits before
	// admitting its first half-open probe: nine broker ticks.
	breakerCooldown = 45 * time.Second
	// breakerProbes consecutive successful probes close a half-open
	// breaker — gradual re-admission instead of instant re-flooding.
	breakerProbes = 3
)

// BreakerState is one circuit breaker's position: closed (traffic
// flows), open (the node is excluded until the cooldown elapses), or
// half-open (one probe submission at a time tests the node).
type BreakerState uint8

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String returns the conventional breaker-state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerTransition records one breaker state change at a virtual
// timestamp — the per-node audit trail cmd/figures renders.
type BreakerTransition struct {
	At       time.Duration
	From, To BreakerState
}

// String renders the transition for diagnostics.
func (tr BreakerTransition) String() string {
	return fmt.Sprintf("%v %s->%s", tr.At, tr.From, tr.To)
}

// transitionCap bounds the per-breaker transition log; a run whose
// breaker flaps more than this keeps the counters but drops the tail of
// the trail (DroppedTransitions says how much).
const transitionCap = 128

// breaker is one node's circuit breaker. All state is mutated from task
// context on the run's single event loop, so the machine is exactly as
// deterministic as the router around it. Half-open admits a single
// probe at a time: with at most one probe in flight, a probe outcome
// always belongs to the current half-open round and no stale
// observation can close or re-trip the breaker.
type breaker struct {
	state    BreakerState
	fails    int  // consecutive classified failures while closed
	okProbes int  // successful probes this half-open round
	probing  bool // a probe submission is in flight
	openedAt time.Duration

	trips       uint64
	transitions []BreakerTransition
	dropped     uint64
}

// canAdmit reports whether the node may take a routed submission at
// virtual time now, without mutating any state — the router's
// eligibility check.
func (b *breaker) canAdmit(now time.Duration) bool {
	switch b.state {
	case BreakerOpen:
		return now >= b.openedAt+breakerCooldown
	case BreakerHalfOpen:
		return !b.probing
	default:
		return true
	}
}

// admit commits the node's selection for one submission at virtual time
// now and reports whether that submission is a half-open probe. An open
// breaker whose cooldown has elapsed moves to half-open here, on the
// first admitted submission.
func (b *breaker) admit(now time.Duration) (probe bool) {
	if b.state == BreakerOpen && now >= b.openedAt+breakerCooldown {
		b.shift(now, BreakerHalfOpen)
		b.okProbes = 0
	}
	if b.state == BreakerHalfOpen && !b.probing {
		b.probing = true
		return true
	}
	return false
}

// observe records one routed submission's outcome at virtual time now.
// probe must be the value admit returned for that submission. Non-probe
// outcomes that arrive while the breaker is open or half-open belong to
// work admitted before the trip and are ignored — they already counted
// toward tripping, and a recovering node must be judged only on its
// probes.
func (b *breaker) observe(now time.Duration, err error, probe bool) {
	failed := errclass.Of(err) != nil
	if probe {
		b.probing = false
		if b.state != BreakerHalfOpen {
			return // the breaker re-tripped under this probe's feet
		}
		if failed {
			b.trip(now)
			return
		}
		b.okProbes++
		if b.okProbes >= breakerProbes {
			b.shift(now, BreakerClosed)
			b.fails = 0
			b.okProbes = 0
		}
		return
	}
	if b.state != BreakerClosed {
		return
	}
	if !failed {
		b.fails = 0
		return
	}
	b.fails++
	if b.fails >= breakerThreshold {
		b.trip(now)
	}
}

// trip opens the breaker at virtual time now.
func (b *breaker) trip(now time.Duration) {
	b.shift(now, BreakerOpen)
	b.openedAt = now
	b.fails = 0
	b.okProbes = 0
	b.probing = false
	b.trips++
}

// shift records a state transition.
func (b *breaker) shift(now time.Duration, to BreakerState) {
	if b.state == to {
		return
	}
	if len(b.transitions) < transitionCap {
		b.transitions = append(b.transitions, BreakerTransition{At: now, From: b.state, To: to})
	} else {
		b.dropped++
	}
	b.state = to
}
