package cluster

import (
	"testing"

	"compilegate/internal/engine"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// stubNode answers at once and keeps nothing but a count: what is left is
// the router's own cost per submission.
type stubNode struct{ submitted int }

func (n *stubNode) SubmitThen(t *vtime.Task, sql string, errp *error, k vtime.Step) {
	n.submitted++
	*errp = nil
	k.Run(t)
}

func (n *stubNode) Down() bool               { return false }
func (n *stubNode) ActiveCompiles() int      { return 0 }
func (n *stubNode) OvercommitRatio() float64 { return 0 }
func (n *stubNode) ThrashScore() float64     { return 0 }

// BenchmarkRouterSubmit is one SubmitThen through a four-node router over
// stub nodes, cycling the OLTP closed set, under each policy and with the
// health plane, the breakers and failover on ("guarded") as the fleet
// scenarios run it.
func BenchmarkRouterSubmit(b *testing.B) {
	sqls := workload.SpecOLTP.StaticStatements()
	stmts := engine.PrepareStatements(sqls)
	guarded := Config{Policy: LeastLoaded, Health: true, Breaker: true, FailoverHops: 1}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"round-robin", Config{Policy: RoundRobin}},
		{"least-loaded", Config{Policy: LeastLoaded}},
		{"affinity", Config{Policy: Affinity}},
		{"guarded", guarded},
	} {
		b.Run(tc.name, func(b *testing.B) {
			stubs := make([]stubNode, 4)
			nodes := make([]Node, len(stubs))
			for i := range stubs {
				nodes[i] = &stubs[i]
			}
			r, err := NewRouter(tc.cfg, nodes, stmts)
			if err != nil {
				b.Fatal(err)
			}
			s := vtime.NewScheduler()
			s.Go("client", func(tk *vtime.Task) {
				i := 0
				b.ReportAllocs()
				for b.Loop() {
					if err := tk.AwaitErr(func(errp *error, k vtime.Step) { r.SubmitThen(tk, sqls[i%len(sqls)], errp, k) }); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
			total := 0
			for i := range stubs {
				total += stubs[i].submitted
			}
			if total == 0 {
				b.Fatal("nothing reached a node")
			}
		})
	}
}
