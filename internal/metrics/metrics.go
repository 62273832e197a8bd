// Package metrics is ALOHA-DB's observability substrate: lock-free
// counters, gauges, and fixed-bucket histograms that components record
// into on their hot paths (zero allocations per record call), plus a
// self-describing snapshot model — a list of Family values with name,
// kind, labels, and values — that the public API and the Prometheus text
// renderer both consume. New instruments add families without breaking
// the snapshot shape, so the observability API never needs another
// redesign when instrumentation grows.
//
// The paper's evaluation (§V, Figure 10) is built on latency
// distributions, not means; histograms are therefore the primary
// instrument. Buckets are fixed at construction (exponential by default)
// and quantiles (p50/p95/p99) are extracted from bucket counts by linear
// interpolation, the same scheme the benchmark harness uses for sampled
// latencies.
package metrics

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Kind discriminates the metric families.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a point-in-time value.
	KindGauge
	// KindHistogram is a bucketed distribution with sum and count.
	KindHistogram
)

// String names the kind as in the Prometheus exposition format.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Unit declares how a family's raw int64 observations translate to the
// exposition format. Instruments record raw integers (nanoseconds,
// bytes, counts); the renderer scales at the edge.
type Unit uint8

const (
	// UnitNone renders raw values unscaled (counts, bytes).
	UnitNone Unit = iota
	// UnitSeconds marks nanosecond observations rendered as seconds.
	UnitSeconds
)

// apply converts a raw value to the rendered unit. Division (not a
// 1e-9 multiply) keeps round values like 1000 ns rendering as exactly
// 1e-06.
func (u Unit) apply(v float64) float64 {
	if u == UnitSeconds {
		return v / 1e9
	}
	return v
}

// Label is one name/value pair attached to a series.
type Label struct {
	Key   string
	Value string
}

// Series is one labeled measurement inside a family: a scalar for
// counters and gauges, a histogram snapshot for histograms.
type Series struct {
	Labels []Label
	// Value holds the counter or gauge reading (KindCounter, KindGauge).
	Value float64
	// Hist holds the distribution (KindHistogram).
	Hist *HistogramSnapshot
}

// Family is one named metric with all its labeled series. It is the unit
// of the self-describing snapshot returned by DB.Metrics and rendered by
// WriteText.
type Family struct {
	// Name is the metric name (Prometheus conventions: *_total for
	// counters, *_seconds for duration histograms).
	Name string
	// Help is the one-line description emitted as # HELP.
	Help string
	// Kind is the metric type.
	Kind Kind
	// Unit declares the raw observation unit (see Unit).
	Unit Unit
	// Series are the labeled measurements.
	Series []Series
}

// Total sums the scalar values of every series (counters/gauges),
// giving the cluster-wide aggregate of a per-server family.
func (f Family) Total() float64 {
	var t float64
	for _, s := range f.Series {
		t += s.Value
	}
	return t
}

// TotalHist merges every series' histogram into one cluster-wide
// distribution. Series with mismatched bucket bounds are skipped (all
// ALOHA-DB families share bounds per name).
func (f Family) TotalHist() HistogramSnapshot {
	var out HistogramSnapshot
	for _, s := range f.Series {
		if s.Hist == nil {
			continue
		}
		if out.Bounds == nil {
			out = s.Hist.Clone()
			continue
		}
		out.Merge(*s.Hist)
	}
	return out
}

// --- instruments ----------------------------------------------------------

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket distribution. Observe is lock-free and
// allocation-free: a binary search over the bounds followed by two
// atomic adds, cheap enough for per-message and per-functor hot paths.
type Histogram struct {
	bounds []int64         // ascending upper bounds; implicit +Inf bucket after
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Int64
	count  atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// Observations above the last bound land in the implicit +Inf bucket.
func NewHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one raw observation (nanoseconds, bytes, a count).
func (h *Histogram) Observe(v int64) {
	// Binary search for the first bound >= v (inlined sort.Search to keep
	// the hot path free of func-value indirection).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Snapshot copies the current bucket counts. The snapshot is internally
// consistent enough for operator use (counts and sum are read without a
// global lock, so a concurrent Observe may be half-reflected).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction; shared, not copied
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// SnapshotInto refills s from the histogram, reusing s.Counts when its
// capacity suffices. Repeated calls against the same histogram allocate
// nothing, which is what lets the flight recorder (internal/obs/tsdb)
// sample windowed quantiles on its steady-state path at zero allocs.
func (h *Histogram) SnapshotInto(s *HistogramSnapshot) {
	s.Bounds = h.bounds // immutable after construction; shared, not copied
	if cap(s.Counts) < len(h.counts) {
		s.Counts = make([]uint64, len(h.counts))
	}
	s.Counts = s.Counts[:len(h.counts)]
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
}

// HistogramSnapshot is an immutable copy of a histogram's state, in the
// instrument's raw unit (nanoseconds for latency histograms).
type HistogramSnapshot struct {
	// Bounds are the ascending bucket upper bounds; the final bucket
	// (Counts[len(Bounds)]) is +Inf.
	Bounds []int64
	// Counts are per-bucket (not cumulative) observation counts,
	// len(Bounds)+1.
	Counts []uint64
	// Sum is the sum of all observations.
	Sum int64
	// Count is the number of observations.
	Count uint64
}

// Clone deep-copies the snapshot (Bounds stay shared: immutable).
func (s HistogramSnapshot) Clone() HistogramSnapshot {
	c := s
	c.Counts = make([]uint64, len(s.Counts))
	copy(c.Counts, s.Counts)
	return c
}

// Merge folds another snapshot with identical bounds into s. Mismatched
// bounds are ignored (families always share bounds per name).
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if len(o.Counts) != len(s.Counts) {
		return
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Sum += o.Sum
	s.Count += o.Count
}

// Mean returns the average observation (0 when empty).
func (s HistogramSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / int64(s.Count)
}

// Quantile extracts the q-quantile (0 < q <= 1) by locating the bucket
// holding the q*Count-th observation and interpolating linearly inside
// it. Observations in the +Inf bucket report the last finite bound (a
// conservative floor). Returns 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: the last finite bound is the best floor.
			return s.Bounds[len(s.Bounds)-1]
		}
		upper := float64(s.Bounds[i])
		lower := float64(0)
		if i > 0 {
			lower = float64(s.Bounds[i-1])
		}
		frac := (rank - prev) / float64(c)
		return int64(lower + (upper-lower)*frac)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// QuantileDuration is Quantile for nanosecond histograms.
func (s HistogramSnapshot) QuantileDuration(q float64) time.Duration {
	return time.Duration(s.Quantile(q))
}

// --- standard bucket layouts ----------------------------------------------

// ExponentialBounds returns n ascending bounds start, start*factor, ...
func ExponentialBounds(start int64, factor float64, n int) []int64 {
	bounds := make([]int64, 0, n)
	v := float64(start)
	for i := 0; i < n; i++ {
		bounds = append(bounds, int64(math.Round(v)))
		v *= factor
	}
	return bounds
}

// LatencyBounds is the default latency layout: 1 µs to ~16.8 s, doubling
// (25 buckets + +Inf). It spans sub-epoch installs through multi-second
// epoch-commit waits.
func LatencyBounds() []int64 {
	return ExponentialBounds(int64(time.Microsecond), 2, 25)
}

// CountBounds is the default count layout (per-epoch transaction counts):
// 1 to ~524k, doubling.
func CountBounds() []int64 {
	return ExponentialBounds(1, 2, 20)
}

// SizeBounds is the default byte-size layout (WAL appends, messages):
// 64 B to ~16 MiB, quadrupling.
func SizeBounds() []int64 {
	return ExponentialBounds(64, 4, 10)
}

// --- family assembly helpers ----------------------------------------------

// CounterSeries builds a scalar series.
func CounterSeries(v uint64, labels ...Label) Series {
	return Series{Labels: labels, Value: float64(v)}
}

// GaugeSeries builds a scalar series from a gauge reading.
func GaugeSeries(v int64, labels ...Label) Series {
	return Series{Labels: labels, Value: float64(v)}
}

// HistSeries builds a histogram series.
func HistSeries(s HistogramSnapshot, labels ...Label) Series {
	return Series{Labels: labels, Hist: &s}
}

// WithLabel returns the families with one more label appended to every
// series (e.g. tagging a server's families with server="3").
func WithLabel(fams []Family, key, value string) []Family {
	for fi := range fams {
		for si := range fams[fi].Series {
			fams[fi].Series[si].Labels = append(fams[fi].Series[si].Labels, Label{Key: key, Value: value})
		}
	}
	return fams
}

// Merge combines families with the same name (appending their series)
// and returns the result sorted by name. Help/Kind/Unit come from the
// first family seen under each name.
func Merge(groups ...[]Family) []Family {
	byName := make(map[string]*Family)
	var order []string
	for _, fams := range groups {
		for _, f := range fams {
			if existing, ok := byName[f.Name]; ok {
				existing.Series = append(existing.Series, f.Series...)
				continue
			}
			cp := f
			cp.Series = append([]Series(nil), f.Series...)
			byName[f.Name] = &cp
			order = append(order, f.Name)
		}
	}
	sort.Strings(order)
	out := make([]Family, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}
