package metrics

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestRecorderSlices(t *testing.T) {
	r := NewRecorder(10 * time.Minute)
	r.RecordCompletion(5 * time.Minute)  // slice 0
	r.RecordCompletion(15 * time.Minute) // slice 1
	r.RecordCompletion(16 * time.Minute) // slice 1
	r.RecordError(25*time.Minute, "oom") // slice 2

	series := r.CompletionSeries(0, time.Hour)
	if len(series) != 3 {
		t.Fatalf("series len = %d, want 3", len(series))
	}
	if series[0].V != 1 || series[1].V != 2 || series[2].V != 0 {
		t.Fatalf("series = %v", series)
	}
	if r.Completed() != 3 {
		t.Fatalf("completed = %d", r.Completed())
	}
	if r.Errors()["oom"] != 1 || r.ErrorsIn(0, time.Hour) != 1 {
		t.Fatalf("errors = %v", r.Errors())
	}
}

func TestRecorderWindow(t *testing.T) {
	r := NewRecorder(time.Minute)
	for i := 0; i < 60; i++ {
		r.RecordCompletion(time.Duration(i) * time.Minute)
	}
	if got := r.CompletionsIn(10*time.Minute, 20*time.Minute); got != 10 {
		t.Fatalf("CompletionsIn = %d, want 10", got)
	}
	if got := len(r.CompletionSeries(10*time.Minute, 20*time.Minute)); got != 10 {
		t.Fatalf("series length = %d, want 10", got)
	}
}

func TestErrorSeriesAndWindowSum(t *testing.T) {
	r := NewRecorder(time.Minute)
	r.RecordError(30*time.Second, "timeout")
	r.RecordError(90*time.Second, "timeout")
	r.RecordError(90*time.Second, "oom")
	if got := r.ErrorsIn(0, time.Minute); got != 1 {
		t.Fatalf("ErrorsIn(first slice) = %d, want 1", got)
	}
	if got := r.ErrorsIn(time.Minute, 2*time.Minute); got != 2 {
		t.Fatalf("ErrorsIn = %d, want 2", got)
	}
	if got := r.ErrorsIn(2*time.Minute, 5*time.Minute); got != 0 {
		t.Fatalf("ErrorsIn(empty slices) = %d, want 0", got)
	}
	if errs := r.Errors(); errs["timeout"] != 2 || errs["oom"] != 1 {
		t.Fatalf("Errors = %v", errs)
	}
}

type gaugeSample struct {
	at time.Duration
	g  Gauges
}

// windowAvg is the mean the recorder must reproduce from its sums: the
// truncated average of one gauge over the samples taken in [from, to), 0
// with none.
func windowAvg(samples []gaugeSample, from, to time.Duration, v func(Gauges) int64) int64 {
	var sum, n int64
	for _, s := range samples {
		if s.at < from || s.at >= to {
			continue
		}
		sum += v(s.g)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// TestGaugeMeansMatchSamples checks GaugeMeans against the samples
// themselves over random sample times and values and random windows of
// whole slices, and that a sample makes no completion slice.
func TestGaugeMeansMatchSamples(t *testing.T) {
	const width = 10 * time.Minute
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		r := NewRecorder(width)
		var samples []gaugeSample
		var at time.Duration
		for n := rng.Intn(200); n > 0; n-- {
			at += time.Duration(rng.Intn(180)) * time.Second
			g := Gauges{rng.Int63n(1 << 40), rng.Int63n(1 << 32), rng.Int63n(1 << 32), rng.Int63n(64), rng.Int63n(3000)}
			r.RecordGauges(at, g)
			samples = append(samples, gaugeSample{at, g})
		}
		if s := r.CompletionSeries(0, at+width); s != nil {
			t.Fatalf("gauge samples made completion slices %v", s)
		}
		from := time.Duration(rng.Intn(8)) * width
		to := from + time.Duration(rng.Intn(8))*width
		want := Gauges{
			PoolBytes:          windowAvg(samples, from, to, func(g Gauges) int64 { return g.PoolBytes }),
			CompileBytes:       windowAvg(samples, from, to, func(g Gauges) int64 { return g.CompileBytes }),
			ExecBytes:          windowAvg(samples, from, to, func(g Gauges) int64 { return g.ExecBytes }),
			ActiveCompiles:     windowAvg(samples, from, to, func(g Gauges) int64 { return g.ActiveCompiles }),
			OvercommitPermille: windowAvg(samples, from, to, func(g Gauges) int64 { return g.OvercommitPermille }),
		}
		if got := r.GaugeMeans(from, to); got != want {
			t.Fatalf("trial %d: GaugeMeans(%v, %v) = %+v, want %+v", trial, from, to, got, want)
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(time.Second, 10*time.Second, time.Minute)
	h.Observe(500 * time.Millisecond)
	h.Observe(5 * time.Second)
	h.Observe(5 * time.Second)
	h.Observe(2 * time.Minute)
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0.5); q != 10*time.Second {
		t.Fatalf("p50 = %v, want 10s bucket bound", q)
	}
	if q := h.Quantile(1.0); q != 2*time.Minute {
		t.Fatalf("p100 = %v, want observed max", q)
	}
	if s := h.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(time.Second)
	if h.Quantile(1) != 0 || h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
}

// Property: total completions always equals the sum over any partition of
// the time axis into windows.
func TestQuickRecorderPartition(t *testing.T) {
	f := func(times []uint16) bool {
		r := NewRecorder(time.Minute)
		var maxT time.Duration
		for _, u := range times {
			at := time.Duration(u) * time.Second
			if at > maxT {
				maxT = at
			}
			r.RecordCompletion(at)
		}
		mid := maxT / 2
		a := r.CompletionsIn(0, mid)
		b := r.CompletionsIn(mid, maxT+time.Minute)
		return a+b == int64(len(times))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram count equals observations and quantiles are
// monotonic in q.
func TestQuickHistogramMonotoneQuantiles(t *testing.T) {
	f := func(obs []uint16) bool {
		if len(obs) == 0 {
			return true
		}
		h := NewHistogram(time.Millisecond, 10*time.Millisecond, 100*time.Millisecond, time.Second)
		for _, o := range obs {
			h.Observe(time.Duration(o) * 100 * time.Microsecond)
		}
		if h.Count() != int64(len(obs)) {
			return false
		}
		prev := time.Duration(0)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCounterGaugeRoundTrip writes a deterministic mix of counters
// (completions, errors by kind) and gauge samples and reads
// every value back through each accessor: what goes in must come out,
// whichever view reads it.
func TestCounterGaugeRoundTrip(t *testing.T) {
	r := NewRecorder(time.Minute)
	if r.SliceDur() != time.Minute {
		t.Fatalf("SliceDur = %v", r.SliceDur())
	}
	writes := []struct {
		at   time.Duration
		kind string // "" = completion
	}{
		{30 * time.Second, ""},
		{30 * time.Second, "oom"},
		{90 * time.Second, ""},
		{90 * time.Second, "gateway-timeout"},
		{91 * time.Second, "oom"},
		{150 * time.Second, ""},
	}
	for _, w := range writes {
		if w.kind == "" {
			r.RecordCompletion(w.at)
		} else {
			r.RecordError(w.at, w.kind)
		}
	}
	if r.Completed() != 3 {
		t.Fatalf("Completed = %d, want 3", r.Completed())
	}
	errs := r.Errors()
	if errs["oom"] != 2 || errs["gateway-timeout"] != 1 || len(errs) != 2 {
		t.Fatalf("Errors = %v", errs)
	}
	// Window sums must agree with the totals and with per-slice series.
	horizon := 4 * time.Minute
	if got := r.CompletionsIn(0, horizon); got != r.Completed() {
		t.Fatalf("CompletionsIn(all) = %d, want %d", got, r.Completed())
	}
	if got := r.ErrorsIn(0, horizon); got != 3 {
		t.Fatalf("ErrorsIn(all) = %d, want 3", got)
	}
	var perSlice int64
	for from := time.Duration(0); from < horizon; from += time.Minute {
		perSlice += r.ErrorsIn(from, from+time.Minute)
	}
	if perSlice != 3 {
		t.Fatalf("per-slice error sum = %d, want 3", perSlice)
	}

	samples := []Gauges{{CompileBytes: 100}, {CompileBytes: 250, ActiveCompiles: 2}, {CompileBytes: 75, OvercommitPermille: 1200}}
	for i, g := range samples {
		r.RecordGauges(time.Duration(i)*time.Minute, g)
	}
	for i, g := range samples {
		if got := r.GaugeMeans(time.Duration(i)*time.Minute, time.Duration(i+1)*time.Minute); got != g {
			t.Fatalf("slice %d gauges = %+v, want %+v", i, got, g)
		}
	}
	if got, want := r.GaugeMeans(0, horizon), (Gauges{CompileBytes: 141, ActiveCompiles: 0, OvercommitPermille: 400}); got != want {
		t.Fatalf("GaugeMeans(all) = %+v, want %+v", got, want)
	}
	if got := r.CompletionsIn(0, horizon); got != 3 {
		t.Fatalf("gauge samples moved completions: %d", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(time.Second, 10*time.Second)
	b := NewHistogram(time.Second, 10*time.Second)
	a.Observe(500 * time.Millisecond)
	a.Observe(5 * time.Second)
	b.Observe(5 * time.Second)
	b.Observe(time.Minute)
	a.Merge(b)
	if a.Count() != 4 {
		t.Fatalf("merged count = %d, want 4", a.Count())
	}
	if q := a.Quantile(1); q != time.Minute {
		t.Fatalf("merged p100 = %v, want the observed max 1m", q)
	}
	if q := a.Quantile(0.5); q != 10*time.Second {
		t.Fatalf("merged p50 = %v, want 10s bucket bound", q)
	}
}

func TestMergedHistogramMatchesSingle(t *testing.T) {
	// Observations split across nodes must merge to the same profile as
	// one histogram seeing them all.
	parts := []*Histogram{
		NewHistogram(time.Second, 10*time.Second),
		NewHistogram(time.Second, 10*time.Second),
		NewHistogram(time.Second, 10*time.Second),
	}
	whole := NewHistogram(time.Second, 10*time.Second)
	for i := 0; i < 30; i++ {
		d := time.Duration(i) * 700 * time.Millisecond
		parts[i%3].Observe(d)
		whole.Observe(d)
	}
	m := MergedHistogram(parts...)
	if m.Count() != whole.Count() {
		t.Fatalf("merged count %d, whole %d", m.Count(), whole.Count())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 1.0} {
		if m.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("q%g: merged %v, whole %v", q, m.Quantile(q), whole.Quantile(q))
		}
	}
	// Merging must not mutate the inputs' identity: parts[0] keeps its own
	// count.
	if parts[0].Count() != 10 {
		t.Fatalf("input histogram mutated: count = %d", parts[0].Count())
	}
}

func TestHistogramMergeRejectsMismatchedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging differently-bucketed histograms did not panic")
		}
	}()
	a := NewHistogram(time.Second)
	b := NewHistogram(2 * time.Second)
	a.Merge(b)
}

func TestSumSeries(t *testing.T) {
	a := []Point{{T: time.Minute, V: 1}, {T: 2 * time.Minute, V: 2}}
	b := []Point{{T: time.Minute, V: 3}, {T: 2 * time.Minute, V: 4}, {T: 3 * time.Minute, V: 5}}
	got := SumSeries(a, b)
	want := []Point{{T: time.Minute, V: 4}, {T: 2 * time.Minute, V: 6}, {T: 3 * time.Minute, V: 5}}
	if len(got) != len(want) {
		t.Fatalf("SumSeries = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SumSeries[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if SumSeries() != nil || SumSeries(nil, nil) != nil {
		t.Fatal("empty inputs should sum to nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("summing misaligned series did not panic")
		}
	}()
	SumSeries(a, b[1:])
}
