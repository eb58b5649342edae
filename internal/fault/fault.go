// Package fault is the deterministic fault plane: declarative, scripted
// failure injection for the simulated DBMS. A Plan lists injections on
// the virtual-time axis — disk-latency stalls, a wired-memory ballast
// "leak", compile storms of big-join arrivals, and engine crash/restart
// cycles — and InjectCluster runs them as ordinary scheduler tasks against
// one Surface of engine hooks per node.
//
// Determinism is by construction, not by care: an injection is just
// another task on the run's single event loop, scheduled at fixed
// virtual times with all randomness drawn from the plan's seed, so a
// faulted run is exactly as reproducible as a clean one and worker-count
// sweep invariance carries over untouched (each run owns its scheduler;
// the plane adds tasks only inside it).
package fault

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"compilegate/internal/vtime"
)

// Kind enumerates the injection types.
type Kind uint8

const (
	// DiskStall dilates every disk transfer by Factor while active —
	// a degraded volume or a neighbor saturating the spindles.
	DiskStall Kind = iota
	// MemLeak ratchets RateBytes of wired ballast every Interval while
	// active — a component that allocates and never frees, squeezing
	// the machine into the pressure model's thrash regime.
	MemLeak
	// CompileStorm submits Burst heavy (big-join) queries spaced
	// Interval apart starting at At — the correlated arrival spike that
	// overwhelms compile memory fastest.
	CompileStorm
	// CrashRestart crashes the engine at At and restarts it Duration
	// later: in-flight queries error, plan cache and broker history are
	// lost, and clients reconnect by retrying.
	CrashRestart
)

// String names the kind for schedules and diagnostics.
func (k Kind) String() string {
	switch k {
	case DiskStall:
		return "disk-stall"
	case MemLeak:
		return "mem-leak"
	case CompileStorm:
		return "compile-storm"
	case CrashRestart:
		return "crash-restart"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Injection is one scripted fault. At/Duration place it on the
// virtual-time axis; the remaining fields are kind-specific.
type Injection struct {
	Kind Kind
	// Node targets one engine instance of a cluster run (0, the
	// default, is the first node — and the only one in a single-server
	// run). The harness validates Node against the run's node count.
	Node int
	// At is the onset virtual time.
	At time.Duration
	// Duration is how long the fault stays active (DiskStall, MemLeak)
	// or how long the engine stays down (CrashRestart). Ignored by
	// CompileStorm, whose extent is Burst·Interval.
	Duration time.Duration

	// Factor is the DiskStall dilation multiplier (> 1).
	Factor float64
	// RateBytes is the MemLeak ratchet per interval.
	RateBytes int64
	// Interval is the MemLeak ratchet cadence (default 10 s) or the
	// CompileStorm arrival spacing (default 0: all at once).
	Interval time.Duration
	// Release drops the accumulated ballast when a MemLeak clears (the
	// leaking component got restarted); without it the ballast stays
	// wired to the end of the run.
	Release bool
	// Burst is the CompileStorm query count.
	Burst int
}

// clear returns the virtual time the injection is over.
func (in Injection) clear() time.Duration {
	if in.Kind == CompileStorm {
		return in.At + time.Duration(in.Burst)*in.Interval
	}
	return in.At + in.Duration
}

// Plan is a scripted fault schedule. The zero value is the empty plan.
type Plan struct {
	// Seed drives the plane's own randomness (storm query text).
	Seed int64
	// Injections fire independently; same-kind injections must not
	// overlap in time.
	Injections []Injection
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Injections) == 0 }

// Validate rejects plans whose schedule is malformed.
func (p *Plan) Validate() error {
	for i, in := range p.Injections {
		if in.At < 0 || in.Duration < 0 || in.Interval < 0 {
			return fmt.Errorf("fault: injection %d (%s): negative time", i, in.Kind)
		}
		if in.Node < 0 {
			return fmt.Errorf("fault: injection %d (%s): negative node %d", i, in.Kind, in.Node)
		}
		switch in.Kind {
		case DiskStall:
			if in.Factor <= 1 {
				return fmt.Errorf("fault: injection %d: disk-stall factor %g must be > 1", i, in.Factor)
			}
			if in.Duration == 0 {
				return fmt.Errorf("fault: injection %d: disk-stall needs a duration", i)
			}
		case MemLeak:
			if in.RateBytes <= 0 {
				return fmt.Errorf("fault: injection %d: mem-leak rate %d must be > 0", i, in.RateBytes)
			}
		case CompileStorm:
			if in.Burst <= 0 {
				return fmt.Errorf("fault: injection %d: compile-storm burst %d must be > 0", i, in.Burst)
			}
		case CrashRestart:
			if in.Duration == 0 {
				return fmt.Errorf("fault: injection %d: crash-restart needs a downtime", i)
			}
		default:
			return fmt.Errorf("fault: injection %d: unknown kind %d", i, in.Kind)
		}
		// Same-kind overlap on the same node would make clears ambiguous
		// (whose stall factor wins? whose ballast drops?); forbid it
		// outright. Different nodes are independent machines, so
		// correlated cross-node faults may overlap freely.
		for j, other := range p.Injections[:i] {
			if other.Kind != in.Kind || other.Node != in.Node {
				continue
			}
			if in.At < other.clear() && other.At < in.clear() {
				return fmt.Errorf("fault: injections %d and %d (%s) overlap", j, i, in.Kind)
			}
		}
	}
	return nil
}

// FirstOnset returns the earliest injection time (-1 for an empty plan).
func (p *Plan) FirstOnset() time.Duration {
	if p.Empty() {
		return -1
	}
	first := p.Injections[0].At
	for _, in := range p.Injections[1:] {
		if in.At < first {
			first = in.At
		}
	}
	return first
}

// LastClear returns the latest time any injection is still active (-1
// for an empty plan). Recovery is measured from here.
func (p *Plan) LastClear() time.Duration {
	if p.Empty() {
		return -1
	}
	last := time.Duration(-1)
	for _, in := range p.Injections {
		if c := in.clear(); c > last {
			last = c
		}
	}
	return last
}

// MaxNode returns the highest node index any injection targets (0 for
// an empty plan) — the harness checks it against the run's node count.
func (p *Plan) MaxNode() int {
	max := 0
	if p == nil {
		return 0
	}
	for _, in := range p.Injections {
		if in.Node > max {
			max = in.Node
		}
	}
	return max
}

// String renders the injected schedule, one line per injection — the
// cmd/figures -faultplan dump. Node is printed only when targeted
// explicitly, so single-server schedules render as before.
func (p *Plan) String() string {
	if p.Empty() {
		return "fault plan: empty\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "fault plan (seed %d): %d injections\n", p.Seed, len(p.Injections))
	for _, in := range p.Injections {
		fmt.Fprintf(&sb, "  t=%-7s %-13s", fmtDur(in.At), in.Kind)
		if in.Node > 0 {
			fmt.Fprintf(&sb, " node=%d", in.Node)
		}
		switch in.Kind {
		case DiskStall:
			fmt.Fprintf(&sb, " x%.1f for %s", in.Factor, fmtDur(in.Duration))
		case MemLeak:
			iv := in.Interval
			if iv <= 0 {
				iv = defaultLeakInterval
			}
			fmt.Fprintf(&sb, " %d B per %s for %s", in.RateBytes, fmtDur(iv), fmtDur(in.Duration))
			if in.Release {
				sb.WriteString(" (released)")
			}
		case CompileStorm:
			fmt.Fprintf(&sb, " burst=%d spaced %s", in.Burst, fmtDur(in.Interval))
		case CrashRestart:
			fmt.Fprintf(&sb, " down for %s", fmtDur(in.Duration))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%gs", d.Seconds())
}

// Surface is the set of engine hooks the plane drives. The harness wires
// it from the engine server; every hook must be non-nil for the kinds the
// plan uses.
type Surface struct {
	// SetDiskStall installs the disk dilation factor (1 = healthy).
	SetDiskStall func(mul float64)
	// Leak wires n more ballast bytes; an error means even the commit
	// limit is gone (the ratchet keeps trying — swap churn is the point).
	Leak func(n int64) error
	// DropLeak releases all accumulated ballast.
	DropLeak func()
	// Crash fails the engine; Restart brings it back.
	Crash   func()
	Restart func()
	// StormQuery submits one heavy query on behalf of the calling ghost
	// task, then stores the server's error through errp and runs k.
	StormQuery func(t *vtime.Task, errp *error, k vtime.Step)
}

// Stats counts what the plane actually did, filled in as the simulation
// runs.
type Stats struct {
	// Injected counts injections whose onset fired.
	Injected int
	// StallTime is total disk-stall active time.
	StallTime time.Duration
	// LeakedBytes is ballast successfully wired; LeakFailures counts
	// ratchet steps refused at the commit limit.
	LeakedBytes  int64
	LeakFailures int
	// StormSubmitted/StormFailed count storm queries and their errors.
	StormSubmitted int
	StormFailed    int
	// Crashes counts crash onsets; DownTime is total engine downtime.
	Crashes  int
	DownTime time.Duration
}

const defaultLeakInterval = 10 * time.Second

// InjectCluster schedules the plan's injections on sched as ordinary
// tasks and returns the stats structure they fill in. Injection i drives
// surfaces[p.Injections[i].Node], so a plan can stall one node's disk
// while storming another; a single server is a fleet of one surface. The
// caller must validate the plan and ensure every targeted node index is
// in range (the harness checks MaxNode against the node count);
// out-of-range targets panic.
func InjectCluster(sched *vtime.Scheduler, p Plan, surfaces []Surface) *Stats {
	st := &Stats{}
	for i := range p.Injections {
		in := p.Injections[i]
		s := surfaces[in.Node]
		switch in.Kind {
		case DiskStall:
			after(sched, "fault-diskstall", in.At, func(t *vtime.Task) {
				st.Injected++
				s.SetDiskStall(in.Factor)
				t.SleepThen(in.Duration, vtime.StepFunc(func(*vtime.Task) {
					s.SetDiskStall(1)
					st.StallTime += in.Duration
				}))
			})
		case MemLeak:
			iv, end := in.Interval, in.At+in.Duration
			if iv <= 0 {
				iv = defaultLeakInterval
			}
			var drop, leak vtime.StepFunc
			drop = func(*vtime.Task) {
				if in.Release {
					s.DropLeak()
				}
			}
			leak = func(t *vtime.Task) {
				if err := s.Leak(in.RateBytes); err != nil {
					st.LeakFailures++
				} else {
					st.LeakedBytes += in.RateBytes
				}
				switch {
				case t.Now()+iv <= end:
					t.SleepThen(iv, leak)
				case t.Now() < end:
					t.SleepThen(end-t.Now(), drop)
				default:
					drop(t)
				}
			}
			after(sched, "fault-leak", in.At, func(t *vtime.Task) {
				st.Injected++
				leak(t)
			})
		case CompileStorm:
			after(sched, "fault-storm", in.At, func(*vtime.Task) {
				st.Injected++
				// Ghost clients: one task per storm query, staggered by
				// the arrival spacing. They are spawned at onset (not at
				// plan time) so a run's task census matches its schedule.
				for k := 0; k < in.Burst; k++ {
					delay, err := time.Duration(k)*in.Interval, error(nil)
					failed := vtime.StepFunc(func(*vtime.Task) {
						if err != nil {
							st.StormFailed++
						}
					})
					submit := vtime.StepFunc(func(t *vtime.Task) {
						st.StormSubmitted++
						s.StormQuery(t, &err, failed)
					})
					if delay > 0 {
						after(sched, "fault-storm-query", delay, submit)
					} else {
						sched.GoFunc("fault-storm-query", submit)
					}
				}
			})
		case CrashRestart:
			after(sched, "fault-crash", in.At, func(t *vtime.Task) {
				st.Injected++
				st.Crashes++
				s.Crash()
				t.SleepThen(in.Duration, vtime.StepFunc(func(*vtime.Task) {
					s.Restart()
					st.DownTime += in.Duration
				}))
			})
		}
	}
	return st
}

// after starts a task named name that runs f once it has slept d (a
// non-positive d yields); f may arm the task's next step.
func after(sched *vtime.Scheduler, name string, d time.Duration, f vtime.StepFunc) {
	sched.GoFunc(name, func(t *vtime.Task) { t.SleepThen(d, f) })
}

// Random generates a valid plan inside the given horizon from rng — the
// chaos differential test's schedule source. Onsets land in the middle
// half of the horizon and every injection clears before the horizon.
func Random(rng *rand.Rand, horizon time.Duration) Plan {
	p := Plan{Seed: rng.Int63()}
	kinds := []Kind{DiskStall, MemLeak, CompileStorm, CrashRestart}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	n := 1 + rng.Intn(len(kinds))
	for _, k := range kinds[:n] {
		at := horizon/4 + time.Duration(rng.Int63n(int64(horizon)/4))
		dur := horizon/16 + time.Duration(rng.Int63n(int64(horizon)/8))
		in := Injection{Kind: k, At: at, Duration: dur}
		switch k {
		case DiskStall:
			in.Factor = 2 + float64(6*rng.Float64())
		case MemLeak:
			in.RateBytes = (8 + rng.Int63n(56)) << 20 // 8-64 MiB per step
			in.Interval = time.Duration(5+rng.Intn(25)) * time.Second
			in.Release = rng.Intn(2) == 0
		case CompileStorm:
			in.Duration = 0
			in.Burst = 4 + rng.Intn(12)
			in.Interval = time.Duration(rng.Intn(2000)) * time.Millisecond
		case CrashRestart:
			in.Duration = time.Duration(1+rng.Intn(5)) * time.Minute
		}
		p.Injections = append(p.Injections, in)
	}
	return p
}
