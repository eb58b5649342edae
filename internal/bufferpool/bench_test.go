package bufferpool

import (
	"testing"

	"compilegate/internal/mem"
	"compilegate/internal/storage"
	"compilegate/internal/vtime"
)

// BenchmarkReadMany is one 32-extent batch (the executor's ReadBatch)
// against a pool over a 4096-extent table:
//
//	hit    every extent cached — what an OLTP execution does
//	miss   the pool has room: each extent goes to disk and is admitted
//	evict  the pool is full: each admission first evicts a CLOCK victim
//
// In miss and evict the batches walk the table, so a batch's extents are
// never the cached ones.
func BenchmarkReadMany(b *testing.B) {
	const batch, table = 32, 4096
	for _, tc := range []struct {
		name   string
		frames int64 // the budget, in frames
		stride int   // how far the window moves per batch
	}{
		{"hit", table, 0},
		{"miss", table, batch},
		{"evict", 4 * batch, batch},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p := New(ext, mem.NewBudget(tc.frames*ext).NewTracker("bp"), []int64{table})
			keys := make([]storage.ExtentKey, batch)
			s := vtime.NewScheduler()
			s.Go("reader", func(tk *vtime.Task) {
				at := 0
				read := func() {
					for i := range keys {
						keys[i] = storage.NewExtentKey(0, int64((at+i)%table))
					}
					tk.Await(func(k vtime.Step) { p.ReadManyThen(tk, keys, k) })
					at += tc.stride
				}
				read() // hit: fault the batch in; evict: start filling
				if tc.name == "evict" {
					for p.evictions == 0 {
						read()
					}
				}
				b.ReportAllocs()
				for b.Loop() {
					if tc.name == "miss" && at%table == 0 {
						// The table is cached: empty the pool off the clock.
						b.StopTimer()
						p.Shrink(p.Bytes())
						b.StartTimer()
					}
					read()
				}
			})
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
			switch {
			case tc.name == "hit" && p.Misses() != batch,
				tc.name != "hit" && p.Hits() != 0,
				tc.name == "miss" && p.passthrough != 0:
				b.Fatalf("%s: %d hits, %d misses, %d evictions, %d passthrough", tc.name, p.Hits(), p.Misses(), p.evictions, p.passthrough)
			}
		})
	}
}
