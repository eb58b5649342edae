package gateway

import (
	"fmt"
	"testing"

	"compilegate/internal/vtime"
)

// spanState renders what a ticket's updates may touch.
func spanState(c *Chain, t *Ticket) string {
	return fmt.Sprintf("held=%d usage=%d wait=%v timeouts=%d %+v",
		t.Held(), t.Usage(), t.WaitTime(), c.Timeouts(), c.Info())
}

// TestClearsIsKUpdates places the next gate's threshold at every offset of a
// span of k updates — before it, on each of its steps, one byte to either
// side of each, and past it — for a ticket holding 0 to 3 gates, under
// static thresholds and under a target that makes them move with the
// category populations. Clears(last usage) must be true exactly when the k
// Update calls acquire nothing, and then one Update of the last usage must
// leave ticket and chain where the k leave them.
func TestClearsIsKUpdates(t *testing.T) {
	const k, unit = 12, 16
	cleared, refused := 0, 0
	for _, target := range []int64{0, 9000} {
		for held := 0; held <= 3; held++ {
			// neighbours hold the first gate and change the medium
			// category's population, hence its dynamic threshold.
			for neighbours := 0; neighbours <= 2; neighbours++ {
				for off := -unit - 1; off <= (k+1)*unit+1; off++ {
					var span, slow string
					var ok, acquired bool
					for _, fast := range []bool{true, false} {
						c := mustChain(t, testConfig())
						s := vtime.NewScheduler()
						s.Go("q", func(tk *vtime.Task) {
							for i := 0; i < neighbours; i++ {
								neighbour := c.NewTicket()
								_ = tk.AwaitErr(func(errp *error, k vtime.Step) { neighbour.UpdateThen(tk, 150, errp, k) })
							}
							c.SetTarget(target)
							ti := c.NewTicket()
							for ti.Held() < held {
								if err := tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, c.Info()[ti.Held()].Threshold+1, errp, k) }); err != nil {
									t.Fatal(err)
								}
							}
							// The span starts so that the next threshold (or,
							// for a ticket holding the whole chain, nothing)
							// lies off bytes past its first update.
							start := ti.Usage()
							if held < c.Levels() {
								start = max(start, c.Info()[held].Threshold-int64(off))
							}
							last := start + (k-1)*unit
							before := ti.Held()
							if fast {
								if ok = ti.Clears(last); ok {
									if err := tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, last, errp, k) }); err != nil {
										t.Fatal(err)
									}
								}
								span = spanState(c, &ti)
								return
							}
							for u := start; u <= last; u += unit {
								if err := tk.AwaitErr(func(errp *error, k vtime.Step) { ti.UpdateThen(tk, u, errp, k) }); err != nil {
									t.Fatal(err)
								}
							}
							acquired = ti.Held() != before
							slow = spanState(c, &ti)
						})
						if err := s.Run(); err != nil {
							t.Fatal(err)
						}
					}
					name := fmt.Sprintf("target=%d held=%d neighbours=%d off=%d", target, held, neighbours, off)
					if ok == acquired {
						t.Fatalf("%s: Clears=%v but the %d updates acquired a gate=%v", name, ok, k, acquired)
					}
					if ok && span != slow {
						t.Fatalf("%s:\n span %s\n slow %s", name, span, slow)
					}
					if ok {
						cleared++
					} else {
						refused++
					}
				}
			}
		}
	}
	if cleared == 0 || refused == 0 {
		t.Fatalf("%d spans cleared, %d refused: both sides must be reached", cleared, refused)
	}
	t.Logf("%d spans cleared, %d refused", cleared, refused)
}
