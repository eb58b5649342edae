package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"compilegate/internal/vtime"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		inj  []Injection
		ok   bool
	}{
		{"empty", nil, true},
		{"stall", []Injection{{Kind: DiskStall, At: time.Minute, Duration: time.Minute, Factor: 4}}, true},
		{"negative-at", []Injection{{Kind: DiskStall, At: -1, Duration: time.Minute, Factor: 4}}, false},
		{"stall-factor-low", []Injection{{Kind: DiskStall, At: 1, Duration: time.Minute, Factor: 1}}, false},
		{"stall-no-duration", []Injection{{Kind: DiskStall, At: 1, Factor: 4}}, false},
		{"leak-no-rate", []Injection{{Kind: MemLeak, Duration: time.Minute}}, false},
		{"storm-no-burst", []Injection{{Kind: CompileStorm}}, false},
		{"crash-no-downtime", []Injection{{Kind: CrashRestart}}, false},
		{"unknown-kind", []Injection{{Kind: Kind(99), Duration: time.Minute}}, false},
		{"same-kind-overlap", []Injection{
			{Kind: CrashRestart, At: 0, Duration: 2 * time.Minute},
			{Kind: CrashRestart, At: time.Minute, Duration: time.Minute},
		}, false},
		{"cross-kind-overlap-ok", []Injection{
			{Kind: CrashRestart, At: 0, Duration: 2 * time.Minute},
			{Kind: DiskStall, At: time.Minute, Duration: time.Minute, Factor: 2},
		}, true},
		{"same-kind-sequential-ok", []Injection{
			{Kind: CrashRestart, At: 0, Duration: time.Minute},
			{Kind: CrashRestart, At: 2 * time.Minute, Duration: time.Minute},
		}, true},
	}
	for _, tc := range cases {
		p := Plan{Injections: tc.inj}
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestPlanTimes(t *testing.T) {
	var empty *Plan
	if !empty.Empty() || empty.FirstOnset() != -1 || empty.LastClear() != -1 {
		t.Fatalf("nil plan: Empty=%v onset=%v clear=%v", empty.Empty(), empty.FirstOnset(), empty.LastClear())
	}
	p := Plan{Injections: []Injection{
		{Kind: CompileStorm, At: 10 * time.Minute, Burst: 6, Interval: time.Minute},
		{Kind: DiskStall, At: 5 * time.Minute, Duration: 2 * time.Minute, Factor: 3},
	}}
	if got := p.FirstOnset(); got != 5*time.Minute {
		t.Errorf("FirstOnset = %v", got)
	}
	// The storm's extent is Burst·Interval, past the stall's clear.
	if got := p.LastClear(); got != 16*time.Minute {
		t.Errorf("LastClear = %v", got)
	}
}

func TestPlanString(t *testing.T) {
	if got := (&Plan{}).String(); !strings.Contains(got, "empty") {
		t.Errorf("empty plan string = %q", got)
	}
	p := Plan{Seed: 9, Injections: []Injection{
		{Kind: DiskStall, At: time.Minute, Duration: time.Minute, Factor: 4},
		{Kind: MemLeak, At: time.Minute, Duration: time.Minute, RateBytes: 1 << 20, Release: true},
		{Kind: CompileStorm, At: time.Minute, Burst: 3, Interval: time.Second},
		{Kind: CrashRestart, At: time.Minute, Duration: time.Minute},
	}}
	s := p.String()
	for _, want := range []string{"seed 9", "disk-stall", "mem-leak", "(released)", "compile-storm", "burst=3", "crash-restart", "down for"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestRandomPlansValid(t *testing.T) {
	const horizon = 20 * time.Minute
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := Random(rng, horizon)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: invalid random plan: %v\n%s", seed, err, p.String())
		}
		if p.FirstOnset() < 0 || p.LastClear() > horizon {
			t.Fatalf("seed %d: plan escapes horizon [%v, %v]:\n%s",
				seed, p.FirstOnset(), p.LastClear(), p.String())
		}
	}
}

// recordingSurface logs every hook invocation with its virtual time.
type recordingSurface struct {
	sched  *vtime.Scheduler
	events []string
	leakN  int
}

func (rs *recordingSurface) log(format string, args ...any) {
	rs.events = append(rs.events, fmt.Sprintf("%v "+format, append([]any{rs.sched.Now()}, args...)...))
}

func (rs *recordingSurface) surface() Surface {
	return Surface{
		SetDiskStall: func(m float64) { rs.log("stall=%.0f", m) },
		Leak: func(n int64) error {
			rs.leakN++
			if rs.leakN > 2 {
				return errors.New("commit limit")
			}
			rs.log("leak=%d", n)
			return nil
		},
		DropLeak: func() { rs.log("drop") },
		Crash:    func() { rs.log("crash") },
		Restart:  func() { rs.log("restart") },
		StormQuery: func(t *vtime.Task, errp *error, k vtime.Step) {
			rs.log("storm")
			t.SleepThen(time.Second, vtime.StepFunc(func(t *vtime.Task) {
				if *errp = nil; rs.sched.Now() > 12*time.Minute {
					*errp = errors.New("rejected")
				}
				k.Run(t)
			}))
		},
	}
}

func TestInject(t *testing.T) {
	sched := vtime.NewScheduler()
	rs := &recordingSurface{sched: sched}
	p := Plan{Injections: []Injection{
		{Kind: DiskStall, At: time.Minute, Duration: 2 * time.Minute, Factor: 5},
		{Kind: MemLeak, At: 2 * time.Minute, Duration: 25 * time.Second,
			RateBytes: 64, Interval: 10 * time.Second, Release: true},
		{Kind: CompileStorm, At: 10 * time.Minute, Burst: 3, Interval: 90 * time.Second},
		{Kind: CrashRestart, At: 20 * time.Minute, Duration: 3 * time.Minute},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	st := InjectCluster(sched, p, []Surface{rs.surface()})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}

	if st.Injected != 4 {
		t.Errorf("Injected = %d, want 4", st.Injected)
	}
	if st.StallTime != 2*time.Minute {
		t.Errorf("StallTime = %v", st.StallTime)
	}
	// Ratchet steps at 2:00, 2:10, 2:20; the third is refused by the
	// recording surface's commit limit.
	if st.LeakedBytes != 128 || st.LeakFailures != 1 {
		t.Errorf("LeakedBytes = %d LeakFailures = %d", st.LeakedBytes, st.LeakFailures)
	}
	// Storm queries at 10:00, 11:30, 13:00; the recording surface rejects
	// everything after 12 minutes.
	if st.StormSubmitted != 3 || st.StormFailed != 1 {
		t.Errorf("StormSubmitted = %d StormFailed = %d", st.StormSubmitted, st.StormFailed)
	}
	if st.Crashes != 1 || st.DownTime != 3*time.Minute {
		t.Errorf("Crashes = %d DownTime = %v", st.Crashes, st.DownTime)
	}

	want := []string{
		"1m0s stall=5",
		"2m0s leak=64",
		"2m10s leak=64",
		"2m25s drop",
		"3m0s stall=1",
		"10m0s storm",
		"11m30s storm",
		"13m0s storm",
		"20m0s crash",
		"23m0s restart",
	}
	if got := fmt.Sprint(rs.events); got != fmt.Sprint(want) {
		t.Errorf("event log:\ngot:  %v\nwant: %v", rs.events, want)
	}
}

func TestInjectDefaults(t *testing.T) {
	// Interval 0 takes the default leak cadence; a storm with no spacing
	// submits the whole burst at the onset instant.
	sched := vtime.NewScheduler()
	rs := &recordingSurface{sched: sched, leakN: -100}
	p := Plan{Injections: []Injection{
		{Kind: MemLeak, At: time.Minute, Duration: defaultLeakInterval * 2, RateBytes: 8},
		{Kind: CompileStorm, At: time.Minute, Burst: 2},
	}}
	st := InjectCluster(sched, p, []Surface{rs.surface()})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if st.LeakedBytes != 24 { // steps at 1:00, 1:10, 1:20
		t.Errorf("LeakedBytes = %d, want 24", st.LeakedBytes)
	}
	if st.StormSubmitted != 2 || st.StormFailed != 0 {
		t.Errorf("storm = %d/%d", st.StormSubmitted, st.StormFailed)
	}
}

func TestValidateNodeTargets(t *testing.T) {
	cases := []struct {
		name string
		inj  []Injection
		ok   bool
	}{
		{"negative-node", []Injection{
			{Kind: DiskStall, At: 1, Duration: time.Minute, Factor: 4, Node: -1},
		}, false},
		{"same-kind-same-node-overlap", []Injection{
			{Kind: CrashRestart, At: 0, Duration: 2 * time.Minute, Node: 1},
			{Kind: CrashRestart, At: time.Minute, Duration: time.Minute, Node: 1},
		}, false},
		// The same fault overlapping on *different* nodes is a legitimate
		// correlated-failure schedule.
		{"same-kind-cross-node-overlap-ok", []Injection{
			{Kind: CrashRestart, At: 0, Duration: 2 * time.Minute, Node: 0},
			{Kind: CrashRestart, At: time.Minute, Duration: time.Minute, Node: 1},
		}, true},
	}
	for _, tc := range cases {
		p := Plan{Injections: tc.inj}
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestMaxNode(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.MaxNode() != 0 {
		t.Fatalf("nil plan MaxNode = %d", nilPlan.MaxNode())
	}
	p := &Plan{Injections: []Injection{
		{Kind: DiskStall, At: 1, Duration: time.Minute, Factor: 4},
		{Kind: CrashRestart, At: 1, Duration: time.Minute, Node: 2},
	}}
	if p.MaxNode() != 2 {
		t.Fatalf("MaxNode = %d, want 2", p.MaxNode())
	}
}

func TestPlanStringNodeTargets(t *testing.T) {
	// Untargeted injections render exactly as before; explicit targets
	// carry a node marker.
	p := Plan{Injections: []Injection{
		{Kind: DiskStall, At: time.Minute, Duration: time.Minute, Factor: 4},
		{Kind: CrashRestart, At: 5 * time.Minute, Duration: time.Minute, Node: 2},
	}}
	s := p.String()
	if strings.Contains(s, "node=0") {
		t.Errorf("untargeted injection renders a node marker:\n%s", s)
	}
	if !strings.Contains(s, "node=2") {
		t.Errorf("targeted injection missing node marker:\n%s", s)
	}
}

func TestInjectCluster(t *testing.T) {
	sched := vtime.NewScheduler()
	surfaces := []*recordingSurface{{sched: sched}, {sched: sched}}
	p := Plan{Injections: []Injection{
		{Kind: DiskStall, At: time.Minute, Duration: time.Minute, Factor: 5, Node: 1},
		{Kind: CrashRestart, At: 2 * time.Minute, Duration: time.Minute, Node: 0},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	st := InjectCluster(sched, p, []Surface{surfaces[0].surface(), surfaces[1].surface()})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Injected != 2 || st.Crashes != 1 || st.StallTime != time.Minute {
		t.Errorf("stats = %+v", st)
	}
	want0 := []string{"2m0s crash", "3m0s restart"}
	want1 := []string{"1m0s stall=5", "2m0s stall=1"}
	if got := fmt.Sprint(surfaces[0].events); got != fmt.Sprint(want0) {
		t.Errorf("node 0 events:\ngot:  %v\nwant: %v", surfaces[0].events, want0)
	}
	if got := fmt.Sprint(surfaces[1].events); got != fmt.Sprint(want1) {
		t.Errorf("node 1 events:\ngot:  %v\nwant: %v", surfaces[1].events, want1)
	}
}
