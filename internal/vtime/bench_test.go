package vtime

import (
	"testing"
	"time"
)

// sleeper is the stackless sleeper: wake, count, sleep again.
type sleeper struct {
	d    time.Duration
	left int
}

func (sl *sleeper) Run(t *Task) {
	if sl.left == 0 {
		return
	}
	sl.left--
	t.SleepThen(sl.d, sl)
}

// BenchmarkSleepers is the event core at population sizes: N tasks on
// staggered periodic sleeps (the shape of a fleet's think times), once as
// continuation tasks and once with a stack each. ns/event is the figure
// to compare with a run's in-situ cost per event; the step/go gap at one
// N is what a stack per sleeper costs, and each flavour's growth with N
// is what a working set of per-task state past the caches costs.
func BenchmarkSleepers(b *testing.B) {
	const sleeps = 20 // per task and iteration
	period := func(i int) time.Duration { return time.Duration(i%7+1) * 37 * time.Millisecond }
	flavours := []struct {
		name  string
		spawn func(s *Scheduler, i int)
	}{
		{"step", func(s *Scheduler, i int) {
			s.GoStep("sleeper", &sleeper{d: period(i), left: sleeps})
		}},
		{"go", func(s *Scheduler, i int) {
			d := period(i)
			s.Go("sleeper", func(t *Task) {
				for n := 0; n < sleeps; n++ {
					t.Sleep(d)
				}
			})
		}},
	}
	for _, size := range []struct {
		name string
		n    int
	}{{"1k", 1000}, {"10k", 10000}, {"100k", 100000}} {
		for _, fl := range flavours {
			b.Run(size.name+"/"+fl.name, func(b *testing.B) {
				var events uint64
				var busy time.Duration
				for it := 0; it < b.N; it++ {
					s := NewScheduler()
					for i := 0; i < size.n; i++ {
						fl.spawn(s, i)
					}
					start := time.Now()
					if err := s.Run(); err != nil {
						b.Fatal(err)
					}
					busy += time.Since(start)
					events += s.Events()
				}
				b.ReportMetric(float64(busy.Nanoseconds())/float64(events), "ns/event")
			})
		}
	}
}
