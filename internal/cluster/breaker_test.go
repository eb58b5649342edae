package cluster

import (
	"errors"
	"testing"
	"time"

	"compilegate/internal/errclass"
)

// step is one scripted breaker interaction: an admit (checking the
// probe flag) or an observe, followed by the expected state.
type step struct {
	at      time.Duration
	admit   bool // call admit instead of observe
	err     error
	probe   bool // admit: expected probe flag; observe: the flag passed in
	state   BreakerState
	canAt   time.Duration // when set (>=0), also check canAdmit at this time
	canWant bool
}

// trip is the failure streak that opens a closed breaker: a classified
// failure every second from t=1s, the breakerThreshold-th at t=5s.
func trip() []step {
	kinds := []error{errclass.Shed, errclass.Timeout, errclass.OOM, errclass.Crashed, errclass.Shed}
	steps := make([]step, len(kinds))
	for i, err := range kinds {
		steps[i] = step{at: time.Duration(i+1) * time.Second, err: err, state: BreakerClosed}
	}
	steps[len(steps)-1].state = BreakerOpen
	return steps
}

// TestBreakerStateMachine walks the trip / cooldown / probe / re-trip
// sequences through scripted observation streams, at the shipped
// threshold (5), cooldown (45 s) and probe count (3).
func TestBreakerStateMachine(t *testing.T) {
	sec := func(n int) time.Duration { return time.Duration(n) * time.Second }
	then := func(steps ...step) []step { return append(trip(), steps...) }
	// probesClose is a half-open round from t0 that closes the breaker.
	probesClose := func(t0 int) []step {
		return []step{
			{at: sec(t0), admit: true, probe: true, state: BreakerHalfOpen},
			{at: sec(t0 + 1), err: nil, probe: true, state: BreakerHalfOpen},
			{at: sec(t0 + 2), admit: true, probe: true, state: BreakerHalfOpen},
			{at: sec(t0 + 3), err: nil, probe: true, state: BreakerHalfOpen},
			{at: sec(t0 + 4), admit: true, probe: true, state: BreakerHalfOpen},
			{at: sec(t0 + 5), err: nil, probe: true, state: BreakerClosed},
		}
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"trips-at-threshold", trip()},
		{"success-resets-streak", append(append(trip()[:4],
			step{at: sec(10), err: nil, state: BreakerClosed}),
			step{at: sec(11), err: errclass.Shed, state: BreakerClosed},
			step{at: sec(12), err: errclass.Shed, state: BreakerClosed},
			step{at: sec(13), err: errclass.Shed, state: BreakerClosed},
			step{at: sec(14), err: errclass.Shed, state: BreakerClosed},
			step{at: sec(15), err: errclass.Crashed, state: BreakerOpen},
		)},
		{"unclassified-errors-do-not-count", []step{
			{at: sec(1), err: errors.New("parse error"), state: BreakerClosed},
			{at: sec(2), err: errors.New("parse error"), state: BreakerClosed},
			{at: sec(3), err: errors.New("parse error"), state: BreakerClosed},
			{at: sec(4), err: errors.New("parse error"), state: BreakerClosed},
			{at: sec(5), err: errors.New("parse error"), state: BreakerClosed},
			{at: sec(6), err: errors.New("parse error"), state: BreakerClosed},
		}},
		{"cooldown-gates-reentry", then(
			step{at: sec(6), err: errclass.Shed, state: BreakerOpen, canAt: sec(49), canWant: false},
			// Cooldown elapsed: admit moves open -> half-open and
			// reserves the single probe slot.
			step{at: sec(50), admit: true, probe: true, state: BreakerHalfOpen, canAt: sec(51), canWant: false},
		)},
		{"probes-close-gradually", then(probesClose(60)...)},
		{"probe-failure-retrips", then(append([]step{
			{at: sec(60), admit: true, probe: true, state: BreakerHalfOpen},
			{at: sec(61), err: nil, probe: true, state: BreakerHalfOpen},
			{at: sec(62), admit: true, probe: true, state: BreakerHalfOpen},
			// The re-trip restarts the cooldown from t=64.
			{at: sec(64), err: errclass.Crashed, probe: true, state: BreakerOpen, canAt: sec(108), canWant: false},
		}, probesClose(109)...)...)},
		{"stale-non-probe-outcomes-ignored", then(
			// Outcomes of work admitted before the trip arrive late;
			// neither failures nor successes may move the machine.
			step{at: sec(10), err: errclass.Crashed, state: BreakerOpen},
			step{at: sec(11), err: nil, state: BreakerOpen},
			step{at: sec(60), admit: true, probe: true, state: BreakerHalfOpen},
			step{at: sec(61), err: errclass.Shed, state: BreakerHalfOpen},
			step{at: sec(62), err: nil, probe: true, state: BreakerHalfOpen},
		)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := new(breaker)
			for si, st := range tc.steps {
				if st.admit {
					if got := b.admit(st.at); got != st.probe {
						t.Fatalf("step %d: admit probe=%v, want %v", si, got, st.probe)
					}
				} else {
					b.observe(st.at, st.err, st.probe)
				}
				if b.state != st.state {
					t.Fatalf("step %d: state=%s, want %s", si, b.state, st.state)
				}
				if st.canAt > 0 {
					if got := b.canAdmit(st.canAt); got != st.canWant {
						t.Fatalf("step %d: canAdmit(%v)=%v, want %v", si, st.canAt, got, st.canWant)
					}
				}
			}
		})
	}
}

func TestBreakerDefaultsAndTransitions(t *testing.T) {
	b := new(breaker)
	for i := 0; i < breakerThreshold; i++ {
		b.observe(time.Duration(i)*time.Second, errclass.Shed, false)
	}
	if b.state != BreakerOpen || b.trips != 1 {
		t.Fatalf("state=%s trips=%d after %d failures", b.state, b.trips, breakerThreshold)
	}
	want := []BreakerTransition{{At: 4 * time.Second, From: BreakerClosed, To: BreakerOpen}}
	if len(b.transitions) != 1 || b.transitions[0] != want[0] {
		t.Fatalf("transitions = %v, want %v", b.transitions, want)
	}
	if s := b.transitions[0].String(); s != "4s closed->open" {
		t.Fatalf("transition renders %q", s)
	}
	if BreakerClosed.String() != "closed" || BreakerOpen.String() != "open" || BreakerHalfOpen.String() != "half-open" {
		t.Fatal("state names changed")
	}
}

// TestBreakerTransitionLogBounded pins the transition-log cap: a
// breaker that flaps forever keeps its counters exact and drops only
// the trail's tail.
func TestBreakerTransitionLogBounded(t *testing.T) {
	b := new(breaker)
	now := time.Duration(0)
	for i := 0; i < breakerThreshold; i++ {
		b.observe(now, errclass.Shed, false)
	}
	for i := 0; i < 200; i++ {
		// Cool down, then fail the probe: half-open -> open again.
		now += breakerCooldown
		if !b.canAdmit(now) {
			t.Fatalf("iteration %d: cooldown did not elapse", i)
		}
		if probe := b.admit(now); !probe {
			t.Fatalf("iteration %d: half-open did not probe", i)
		}
		b.observe(now, errclass.Shed, true)
	}
	if len(b.transitions) != transitionCap {
		t.Fatalf("transition log holds %d, want cap %d", len(b.transitions), transitionCap)
	}
	if b.dropped == 0 {
		t.Fatal("dropped counter did not move past the cap")
	}
	if b.trips != 201 {
		t.Fatalf("trips = %d, want 201", b.trips)
	}
}
