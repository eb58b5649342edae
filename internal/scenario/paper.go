package scenario

import (
	"fmt"
	"time"

	"compilegate/internal/engine"
	"compilegate/internal/gateway"
	"compilegate/internal/mem"
	"compilegate/internal/workload"
)

// Sales returns the canonical §5 SALES experiment at the given client
// count: the paper's 8-hour run measured from t = 3 h, throttling on,
// under the selected pressure calibration, CalibratedKnobs (compilations
// hold their memory for minutes, so an unthrottled server at 30+ clients
// ignites compile-memory thrash instead of queuing politely).
func Sales(clients int) Scenario {
	return Scenario{
		Name:        "sales",
		Description: "SALES ad-hoc DSS workload (§5.2)",
		Clients:     clients,
		Scale:       0.04,
		Workload:    workload.SpecSales,
		Horizon:     8 * time.Hour,
		Warmup:      3 * time.Hour,
		Throttled:   true,
		Seed:        1,
		Server:      calibrated(),
	}
}

// calibrated is the server at the §5 pressure calibration: every
// SALES-derived scenario starts from it, then sets its own overrides.
func calibrated() engine.Config {
	c := engine.DefaultConfig()
	CalibratedKnobs().Apply(&c)
	return c
}

// figure builds one of the paper's throughput figures (3, 4, 5).
func figure(n, clients int, pct string) Scenario {
	s := Sales(clients)
	s.Name = fmt.Sprintf("figure%d", n)
	s.Description = fmt.Sprintf(
		"Figure %d: throttled vs baseline throughput at %d clients (%s)", n, clients, pct)
	return s
}

// monitorLadder is the monitor-count ablation (DESIGN.md A-1): the same
// contested region split across 1, 2 or 5 monitors instead of the
// paper's 3.
func monitorLadder(n string) gateway.Config {
	switch n {
	case "1":
		return gateway.Config{Levels: []gateway.LevelConfig{
			{Name: "only", Threshold: 380 * mem.KiB, Slots: 8, Timeout: 12 * time.Minute},
		}}
	case "2":
		return gateway.Config{Levels: []gateway.LevelConfig{
			{Name: "small", Threshold: 380 * mem.KiB, Slots: 32, Timeout: 6 * time.Minute},
			{Name: "big", Threshold: 256 * mem.MiB, Slots: 1, Timeout: 24 * time.Minute},
		}}
	default: // "5"
		return gateway.Config{Levels: []gateway.LevelConfig{
			{Name: "xs", Threshold: 380 * mem.KiB, Slots: 32, Timeout: 6 * time.Minute},
			{Name: "s", Threshold: 16 * mem.MiB, Slots: 16, Timeout: 8 * time.Minute},
			{Name: "m", Threshold: 43 * mem.MiB, Slots: 8, Timeout: 12 * time.Minute},
			{Name: "l", Threshold: 128 * mem.MiB, Slots: 4, Timeout: 16 * time.Minute},
			{Name: "xl", Threshold: 256 * mem.MiB, Slots: 1, Timeout: 24 * time.Minute},
		}}
	}
}

func monitorAblation(n string) Scenario {
	s := Sales(30)
	s.Name = "monitors-" + n
	s.Description = "monitor-count ablation A-1: " + n + "-monitor ladder instead of 3"
	ladder := monitorLadder(n)
	s.Server.GatewayOverride = &ladder
	return s
}

// init registers every paper experiment in the registry, in the
// order the evaluation section presents them.
func init() {
	// Figure 2's conditions as a harness run: a memory-starved server
	// where compilations visibly queue at the monitors. cmd/figures
	// additionally renders the per-compilation trace with the governance
	// primitives directly.
	fig2 := Sales(12)
	fig2.Name = "figure2"
	fig2.Description = "Figure 2 conditions: compilations throttle at the monitor ladder under memory pressure"
	fig2.Horizon, fig2.Warmup = 30*time.Minute, 5*time.Minute
	fig2.Server.MemoryBytes = 2 * mem.GiB
	register(fig2.WithSlice(5 * time.Minute))

	register(figure(3, 30, "paper: ~35% higher throughput"))
	register(figure(4, 35, "paper: throttled stays ahead"))
	register(figure(5, 40, "paper: baseline collapses under overload"))

	for _, n := range []string{"1", "2", "5"} {
		register(monitorAblation(n))
	}

	// A-5: the broker's contribution alone — throttling off in both; the
	// no-governance twin turns the broker off too.
	brokerOnly := Sales(30)
	brokerOnly.Name = "broker-only"
	brokerOnly.Description = "ablation A-5: Memory Broker without compilation throttling"
	brokerOnly.Throttled = false
	register(brokerOnly)

	noGov := Sales(30)
	noGov.Name = "no-governance"
	noGov.Description = "ablation A-5 twin: neither broker nor throttling"
	noGov.Throttled = false
	noGov.Server.BrokerEnabled = false
	register(noGov)

	// The mixed workload: OLTP point queries bypass the ladder while
	// SALES compilations queue ("diagnostics under overload", §4).
	mix := Scenario{
		Name:        "oltp-mix",
		Description: "3:1 OLTP:SALES mix — small queries bypass the monitor ladder",
		Clients:     24,
		Scale:       0.04,
		Workload:    workload.SpecMix,
		Horizon:     60 * time.Minute,
		Warmup:      10 * time.Minute,
		Throttled:   true,
		Seed:        1,
	}
	register(mix)

	// §4.1's best-effort plans on a starved machine, plus the
	// plain-OOM twin. The smaller machine keeps the 32-bit *default*
	// user VAS (2 GB, no extended-VAS boot switch), so compilations
	// exhaust the address space early and the exhaustion signal fires
	// constantly — exactly the regime best-effort plans exist for.
	be := Sales(30)
	be.Name = "best-effort"
	be.Description = "§4.1 best-effort plans under memory exhaustion (2 GiB machine)"
	be.Server.MemoryBytes, be.Server.VASBytes = 2*mem.GiB, 1792*mem.MiB
	register(be)

	beOff := be
	beOff.Name = "best-effort-off"
	beOff.Description = "best-effort disabled: exhausted compilations fail with OOM"
	beOff.Server.BestEffort = false
	register(beOff)

	// The demo-sized ad-hoc DSS run the examples use.
	dss := Sales(30)
	dss.Name = "adhoc-dss"
	dss.Description = "SALES ad-hoc DSS demo window (90 min)"
	dss.Horizon, dss.Warmup = 90*time.Minute, 15*time.Minute
	register(dss.WithSlice(15 * time.Minute))

	// A seconds-scale smoke configuration for quickstarts and tests.
	quick := Sales(4)
	quick.Name = "quickstart"
	quick.Description = "small SALES smoke run (4 clients, 20 min)"
	quick.Scale = 0.02
	quick.Horizon, quick.Warmup = 20*time.Minute, 2*time.Minute
	register(quick.WithSlice(2 * time.Minute))
}
