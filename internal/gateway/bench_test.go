package gateway

import (
	"testing"

	"compilegate/internal/mem"
	"compilegate/internal/vtime"
)

// BenchmarkTicketUpdate is the gateway's share of one compilation charge,
// on the production ladder for an 8-CPU, 4 GiB machine. "clear" is the
// call a compilation makes for almost every structure: usage grows by one
// memo expression with its costing scratch (16 KiB x 5) and stays under the
// next threshold. "climb" is one whole ticket: 5 000 such updates from zero
// through the small and medium gates, then Close — a large SALES
// compilation's conversation with the chain. One op is one Update in the
// first and one ticket in the second.
func BenchmarkTicketUpdate(b *testing.B) {
	const step = 5 * 16 * mem.KiB
	chain := func() *Chain {
		c, err := NewChain(DefaultConfig(8, 4*mem.GiB))
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	inTask := func(b *testing.B, body func(tk *vtime.Task)) {
		s := vtime.NewScheduler()
		s.Go("bench", body)
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("clear", func(b *testing.B) {
		c := chain()
		inTask(b, func(tk *vtime.Task) {
			ti := c.NewTicket()
			if err := tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, 1*mem.MiB, errp, k) }); err != nil { // past the small gate
				b.Fatal(err)
			}
			usage, top := ti.Usage(), c.Info()[1].Threshold
			b.ReportAllocs()
			for b.Loop() {
				if usage += step; usage > top {
					usage = 1 * mem.MiB
				}
				if err := tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, usage, errp, k) }); err != nil {
					b.Fatal(err)
				}
			}
			if ti.Held() != 1 {
				b.Fatalf("ticket holds %d gates, want 1: the loop left the clear path", ti.Held())
			}
		})
	})
	b.Run("climb", func(b *testing.B) {
		c := chain()
		inTask(b, func(tk *vtime.Task) {
			b.ReportAllocs()
			for b.Loop() {
				ti := c.NewTicket()
				for usage := int64(step); usage <= 5000*step; usage += step {
					if err := tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, usage, errp, k) }); err != nil {
						b.Fatal(err)
					}
				}
				if ti.Held() != 2 {
					b.Fatalf("ticket holds %d gates after 390 MiB, want 2", ti.Held())
				}
				ti.Close()
			}
		})
	})
}
