// Package metrics collects the measurements the paper reports: successful
// query completions per time slice, error counts by kind, latency
// distributions, and per-slice sums of the gauges the broker samples.
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
// mirroring the "Successful Queries/Time" axes of Figures 3-5, and sums
// gauge samples per slice, so a window's mean gauge is a sum and a count.
// An error is counted by the index of its kind in kinds, so recording
// allocates only when the slice list, the gauge list or the kinds list
// grows.
type Recorder struct {
	sliceDur time.Duration
	slices   []slice
	total    slice
	kinds    []string // error kinds, in the order first recorded
	// gauges[i] sums the samples taken in slice i. It is apart from slices
	// because a sample must not make a slice: series lists only the slices
	// a completion or an error made.
	gauges []gaugeSum
}

// Gauges is one sample of what the broker watches: the bytes of the buffer
// pool, of compilations and of execution grants, the number of open
// compilations, and the machine's overcommit ratio in permille.
type Gauges struct {
	PoolBytes, CompileBytes, ExecBytes int64
	ActiveCompiles, OvercommitPermille int64
}

func (g *Gauges) add(o Gauges) {
	g.PoolBytes += o.PoolBytes
	g.CompileBytes += o.CompileBytes
	g.ExecBytes += o.ExecBytes
	g.ActiveCompiles += o.ActiveCompiles
	g.OvercommitPermille += o.OvercommitPermille
}

// gaugeSum is one slice's sample sum and sample count.
type gaugeSum struct {
	sum Gauges
	n   int64
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

// at returns &(*s)[i], first growing *s with zero values to reach i.
func at[T any](s *[]T, i int) *T {
	for len(*s) <= i {
		*s = append(*s, *new(T))
	}
	return &(*s)[i]
}

func (r *Recorder) sliceAt(now time.Duration) *slice {
	return at(&r.slices, int(now/r.sliceDur))
}

// inWindow reports whether slice i starts in [from, to).
func (r *Recorder) inWindow(i int, from, to time.Duration) bool {
	start := time.Duration(i) * r.sliceDur
	return start >= from && start < to
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
		if r.inWindow(i, from, to) {
			out = append(out, Point{T: time.Duration(i) * r.sliceDur, V: v(&r.slices[i])})
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

// CompletionsIn sums completions over slices starting in [from, to).
func (r *Recorder) CompletionsIn(from, to time.Duration) int64 {
	return sum(r.CompletionSeries(from, to))
}

// ErrorsIn sums all errors over slices starting in [from, to).
func (r *Recorder) ErrorsIn(from, to time.Duration) int64 {
	return sum(r.series(from, to, (*slice).errorSum))
}

// RecordGauges adds one gauge sample taken at virtual time now.
func (r *Recorder) RecordGauges(now time.Duration, g Gauges) {
	gs := at(&r.gauges, int(now/r.sliceDur))
	gs.sum.add(g)
	gs.n++
}

// GaugeMeans returns each gauge's mean over the samples taken in slices
// starting in [from, to), truncated to an integer; all zero with no sample.
func (r *Recorder) GaugeMeans(from, to time.Duration) Gauges {
	var g Gauges
	var n int64
	for i, gs := range r.gauges {
		if r.inWindow(i, from, to) {
			g.add(gs.sum)
			n += gs.n
		}
	}
	if n == 0 {
		return Gauges{}
	}
	return Gauges{g.PoolBytes / n, g.CompileBytes / n, g.ExecBytes / n, g.ActiveCompiles / n, g.OvercommitPermille / n}
}

// Histogram is a simple log-ish bucketed histogram for durations, used for
// compile-time and execution-time profiles.
type Histogram struct {
	bounds []time.Duration // ascending upper bounds; final bucket unbounded
	counts []int64
	total  int64
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
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total }

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
// series, adding the values slice by slice. The inputs must be aligned:
// each starts at the same slice and steps one slice at a time, as
// CompletionSeries does for recorders of one slice width over one window.
// It panics on inputs that are not.
func SumSeries(series ...[]Point) []Point {
	var out []Point
	for _, s := range series {
		for i, p := range s {
			if i == len(out) {
				out = append(out, Point{T: p.T})
			} else if out[i].T != p.T {
				panic("metrics: summing misaligned series")
			}
			out[i].V += p.V
		}
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
