package scenario

import (
	"time"

	"compilegate/internal/engine"
	"compilegate/internal/fault"
	"compilegate/internal/mem"
	"compilegate/internal/workload"
)

// This file registers the fault-plane scenarios: scripted failures
// injected into the SALES run to measure graceful degradation — how far
// throughput falls during a fault, and how fast it comes back after the
// fault clears (Result.RecoveryTime). All four use a 2-hour horizon so
// the golden digest window never compresses the injection schedule.

// faultSales is the common fault-scenario base: the calibrated SALES
// machine on a 2-hour horizon measured from t = 20 min.
func faultSales(name, desc string, clients int, plan *fault.Plan) Scenario {
	s := Sales(clients)
	s.Name = name
	s.Description = desc
	s.Horizon, s.Warmup = 2*time.Hour, 20*time.Minute
	s.Fault = plan
	return s
}

// retryDriver is the real-client retry model the fault scenarios use:
// capped exponential backoff with jitter, a per-client retry budget, and
// no resubmission of deliberately shed work.
func retryDriver(l *workload.LoadConfig) {
	l.MaxRetries = 6
	l.BackoffBase = 500 * time.Millisecond
	l.BackoffCap = 10 * time.Second
	l.BackoffJitter = 0.3
	l.RetryBudget = 40
	l.NoRetryShed = true
}

// brownout turns on the governor's sustained-pressure degradation mode
// on top of the calibrated knobs.
func brownout(c *engine.Config) {
	c.Brownout = true
}

func init() {
	// A degraded disk: every transfer takes 6x for 20 minutes. The
	// buffer pool's miss latency balloons, executions pile up, and the
	// question is whether compile admission keeps the pile bounded.
	stall := faultSales("fault-diskstall",
		"disk latency x6 for 20 min — throughput dip and recovery",
		30, &fault.Plan{Seed: 101, Injections: []fault.Injection{
			{Kind: fault.DiskStall, At: 40 * time.Minute, Duration: 20 * time.Minute, Factor: 6},
		}})
	Default.MustRegister(stall)

	// A wired-memory leak: 48 MiB every 15 s for 20 minutes (~3.8 GiB),
	// squeezing the machine into the thrash regime until the leaking
	// component is "restarted" and the ballast drops. Brown-out is on:
	// sustained pressure escalates the governor to best-effort-only
	// admission until the leak clears.
	leak := faultSales("fault-leak",
		"wired-memory leak to thrash, released at 60 min; brown-out escalation",
		30, &fault.Plan{Seed: 102, Injections: []fault.Injection{
			{Kind: fault.MemLeak, At: 40 * time.Minute, Duration: 20 * time.Minute,
				RateBytes: 48 * mem.MiB, Interval: 15 * time.Second, Release: true},
		}})
	leak.Engine = calibrated(brownout)
	Default.MustRegister(leak)

	// An engine crash: 4 minutes of downtime at t = 50 min. In-flight
	// queries error, the plan cache and broker history are lost, and
	// clients reconnect by retrying with backoff — recovery time says how
	// long the post-restart cold cache takes to re-warm.
	crash := faultSales("fault-crash-restart",
		"engine crash at 50 min, 4 min down — cold-cache recovery",
		30, &fault.Plan{Seed: 103, Injections: []fault.Injection{
			{Kind: fault.CrashRestart, At: 50 * time.Minute, Duration: 4 * time.Minute},
		}})
	crash.Load = retryDriver
	Default.MustRegister(crash)

	// The retry storm: an overloaded population (40 clients) with an
	// aggressive-retry driver, hit by a burst of big-join compilations.
	// Unthrottled, every timeout turns into resubmissions that amplify
	// the overload; throttled (with brown-out and a cooperating driver
	// that does not resubmit shed work) the storm stays bounded.
	storm := faultSales("retry-storm",
		"compile-storm burst under aggressive client retries at 40 clients",
		40, &fault.Plan{Seed: 104, Injections: []fault.Injection{
			{Kind: fault.CompileStorm, At: 40 * time.Minute, Burst: 24, Interval: 2 * time.Second},
		}})
	storm.Load = retryDriver
	storm.Engine = calibrated(brownout)
	Default.MustRegister(storm)
}
