// Package metrics collects the measurements the paper reports: successful
// query completions per time slice, error counts by kind, latency
// distributions, and named time-series traces (memory-over-time curves for
// Figure 2).
//
// Everything is keyed by virtual time and safe for single-threaded use from
// vtime task context.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// Recorder aggregates completions and errors into fixed-width time slices,
// mirroring the "Successful Queries/Time" axes of Figures 3-5. An error is
// counted by the index of its kind in kinds, so recording allocates only
// when the slice list or the kinds list grows.
type Recorder struct {
	sliceDur time.Duration
	slices   []slice
	total    slice
	kinds    []string // error kinds, in the order first recorded
}

// slice holds one slice's counts. A recorder counts at most maxKinds error
// kinds; the engine's are a closed set of five.
type slice struct {
	completed int64
	errors    [maxKinds]int64
}

const maxKinds = 8

func (s *slice) errorSum() int64 {
	var n int64
	for _, v := range s.errors {
		n += v
	}
	return n
}

// NewRecorder creates a recorder with the given slice width (the paper's
// figures use 600-second slices over a five-hour run).
func NewRecorder(sliceDur time.Duration) *Recorder {
	if sliceDur <= 0 {
		panic("metrics: non-positive slice duration")
	}
	return &Recorder{sliceDur: sliceDur}
}

// SliceDur returns the slice width.
func (r *Recorder) SliceDur() time.Duration { return r.sliceDur }

func (r *Recorder) sliceAt(now time.Duration) *slice {
	i := int(now / r.sliceDur)
	for len(r.slices) <= i {
		r.slices = append(r.slices, slice{})
	}
	return &r.slices[i]
}

// RecordCompletion counts one successful query completion at virtual time
// now.
func (r *Recorder) RecordCompletion(now time.Duration) {
	r.sliceAt(now).completed++
	r.total.completed++
}

// RecordError counts one failed query of the given kind (e.g. "oom",
// "gateway-timeout", "grant-timeout") at virtual time now. It panics on a
// kind past the first maxKinds.
func (r *Recorder) RecordError(now time.Duration, kind string) {
	i := slices.Index(r.kinds, kind)
	if i < 0 {
		i, r.kinds = len(r.kinds), append(r.kinds, kind)
	}
	r.sliceAt(now).errors[i]++
	r.total.errors[i]++
}

// Completed returns the total number of completions recorded.
func (r *Recorder) Completed() int64 { return r.total.completed }

// Errors returns total error counts by kind.
func (r *Recorder) Errors() map[string]int64 {
	out := make(map[string]int64, len(r.kinds))
	for i, k := range r.kinds {
		out[k] = r.total.errors[i]
	}
	return out
}

// Point is one time slice of a series.
type Point struct {
	T time.Duration // slice start
	V int64
}

// series returns v of every slice whose start lies in [from, to).
func (r *Recorder) series(from, to time.Duration, v func(*slice) int64) []Point {
	var out []Point
	for i := range r.slices {
		if start := time.Duration(i) * r.sliceDur; start >= from && start < to {
			out = append(out, Point{T: start, V: v(&r.slices[i])})
		}
	}
	return out
}

func sum(points []Point) int64 {
	var n int64
	for _, p := range points {
		n += p.V
	}
	return n
}

// CompletionSeries returns completions per slice for slices whose start
// lies in [from, to).
func (r *Recorder) CompletionSeries(from, to time.Duration) []Point {
	return r.series(from, to, func(s *slice) int64 { return s.completed })
}

// ErrorSeries returns errors of the given kind per slice in [from, to).
func (r *Recorder) ErrorSeries(kind string, from, to time.Duration) []Point {
	k := slices.Index(r.kinds, kind)
	return r.series(from, to, func(s *slice) int64 {
		if k < 0 {
			return 0
		}
		return s.errors[k]
	})
}

// CompletionsIn sums completions over slices starting in [from, to).
func (r *Recorder) CompletionsIn(from, to time.Duration) int64 {
	return sum(r.CompletionSeries(from, to))
}

// ErrorsIn sums all errors over slices starting in [from, to).
func (r *Recorder) ErrorsIn(from, to time.Duration) int64 {
	return sum(r.series(from, to, (*slice).errorSum))
}

// Trace records a named time-series of values sampled at arbitrary virtual
// times — used for per-query compile-memory curves (Figure 2) and broker
// component traces.
type Trace struct {
	name   string
	Points []TracePoint
}

// TracePoint is one (time, value) sample.
type TracePoint struct {
	T time.Duration
	V int64
}

// NewTrace returns an empty trace with the given name.
func NewTrace(name string) *Trace { return &Trace{name: name} }

// Name returns the trace name.
func (tr *Trace) Name() string { return tr.name }

// Add appends a sample. Samples should be added in nondecreasing time
// order; Add panics otherwise to catch clock misuse early.
func (tr *Trace) Add(t time.Duration, v int64) {
	if n := len(tr.Points); n > 0 && t < tr.Points[n-1].T {
		panic(fmt.Sprintf("metrics: trace %q sample at %v precedes %v", tr.name, t, tr.Points[n-1].T))
	}
	tr.Points = append(tr.Points, TracePoint{T: t, V: v})
}

// Max returns the maximum sampled value (0 for an empty trace).
func (tr *Trace) Max() int64 {
	var m int64
	for _, p := range tr.Points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Histogram is a simple log-ish bucketed histogram for durations, used for
// compile-time and execution-time profiles.
type Histogram struct {
	bounds []time.Duration // ascending upper bounds; final bucket unbounded
	counts []int64
	total  int64
	sum    time.Duration
	max    time.Duration
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds. A final unbounded overflow bucket is added automatically.
func NewHistogram(bounds ...time.Duration) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds not ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i]++
	h.total++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total }

// Mean returns the mean observation (0 with no observations).
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) using
// bucket boundaries; the overflow bucket reports the observed max.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	target := int64(q * float64(h.total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// Merge folds other's observations into h. Both histograms must share
// the same bucket bounds; Merge panics otherwise — merging histograms
// of different shapes silently misbuckets counts.
func (h *Histogram) Merge(other *Histogram) {
	if len(h.bounds) != len(other.bounds) {
		panic("metrics: merging histograms with different bucket counts")
	}
	for i, b := range h.bounds {
		if b != other.bounds[i] {
			panic("metrics: merging histograms with different bounds")
		}
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// MergedHistogram returns a fresh histogram combining every input —
// cluster results aggregate per-node latency profiles with it. All
// inputs must share bucket bounds (they do when they come from
// identically configured servers); at least one input is required.
func MergedHistogram(hs ...*Histogram) *Histogram {
	if len(hs) == 0 {
		panic("metrics: merging zero histograms")
	}
	out := NewHistogram(hs[0].bounds...)
	for _, h := range hs {
		out.Merge(h)
	}
	return out
}

// SumSeries merges per-node completion series into one cluster-level
// series: points are summed per slice start and returned in time
// order. Inputs must be individually time-ordered (CompletionSeries
// output is).
func SumSeries(series ...[]Point) []Point {
	sums := make(map[time.Duration]int64)
	for _, s := range series {
		for _, p := range s {
			sums[p.T] += p.V
		}
	}
	out := make([]Point, 0, len(sums))
	for t, v := range sums {
		out = append(out, Point{T: t, V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	if len(out) == 0 {
		return nil
	}
	return out
}

// String renders the histogram compactly for reports.
func (h *Histogram) String() string {
	var sb strings.Builder
	prev := time.Duration(0)
	for i, c := range h.counts {
		if c == 0 {
			if i < len(h.bounds) {
				prev = h.bounds[i]
			}
			continue
		}
		if i < len(h.bounds) {
			fmt.Fprintf(&sb, "[%v,%v]:%d ", prev, h.bounds[i], c)
			prev = h.bounds[i]
		} else {
			fmt.Fprintf(&sb, ">%v:%d ", prev, c)
		}
	}
	return strings.TrimSpace(sb.String())
}
