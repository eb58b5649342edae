package metrics

import (
	"slices"
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
	s := r.ErrorSeries("timeout", 0, 5*time.Minute)
	if s[0].V != 1 || s[1].V != 1 {
		t.Fatalf("timeout series = %v", s)
	}
	if got := r.ErrorsIn(time.Minute, 2*time.Minute); got != 2 {
		t.Fatalf("ErrorsIn = %d, want 2", got)
	}
}

func TestTrace(t *testing.T) {
	tr := NewTrace("q1")
	tr.Add(0, 10)
	tr.Add(time.Second, 20)
	tr.Add(2*time.Second, 15)
	if tr.Max() != 20 {
		t.Fatalf("Max = %d", tr.Max())
	}
	if want := []TracePoint{{0, 10}, {time.Second, 20}, {2 * time.Second, 15}}; !slices.Equal(tr.Points, want) {
		t.Fatalf("Points = %v, want %v", tr.Points, want)
	}
}

func TestTraceRejectsTimeTravel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order trace sample did not panic")
		}
	}()
	tr := NewTrace("q")
	tr.Add(time.Second, 1)
	tr.Add(0, 2)
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
	if h.Max() != 2*time.Minute {
		t.Fatalf("max = %v", h.Max())
	}
	if q := h.Quantile(0.5); q != 10*time.Second {
		t.Fatalf("p50 = %v, want 10s bucket bound", q)
	}
	if q := h.Quantile(1.0); q != 2*time.Minute {
		t.Fatalf("p100 = %v, want observed max", q)
	}
	if h.Mean() <= 0 {
		t.Fatal("mean not positive")
	}
	if s := h.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(time.Second)
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Count() != 0 {
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
// (completions, errors by kind) and gauge samples (a trace) and reads
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
	var fromSeries int64
	for _, kind := range []string{"oom", "gateway-timeout"} {
		for _, p := range r.ErrorSeries(kind, 0, horizon) {
			fromSeries += p.V
		}
	}
	if fromSeries != 3 {
		t.Fatalf("error series sum = %d, want 3", fromSeries)
	}

	tr := NewTrace("compile-bytes")
	if tr.Name() != "compile-bytes" {
		t.Fatalf("Name = %q", tr.Name())
	}
	samples := []TracePoint{{0, 100}, {time.Minute, 250}, {2 * time.Minute, 75}}
	for _, s := range samples {
		tr.Add(s.T, s.V)
	}
	if !slices.Equal(tr.Points, samples) {
		t.Fatalf("Points = %v, want %v", tr.Points, samples)
	}
	if tr.Max() != 250 {
		t.Fatalf("Max = %d", tr.Max())
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
	if a.Max() != time.Minute {
		t.Fatalf("merged max = %v, want 1m", a.Max())
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
	if m.Count() != whole.Count() || m.Max() != whole.Max() || m.Mean() != whole.Mean() {
		t.Fatalf("merged %d/%v/%v, whole %d/%v/%v",
			m.Count(), m.Max(), m.Mean(), whole.Count(), whole.Max(), whole.Mean())
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
	a := []Point{{T: 0, V: 1}, {T: time.Minute, V: 2}}
	b := []Point{{T: time.Minute, V: 3}, {T: 2 * time.Minute, V: 4}}
	got := SumSeries(a, b)
	want := []Point{{T: 0, V: 1}, {T: time.Minute, V: 5}, {T: 2 * time.Minute, V: 4}}
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
}
