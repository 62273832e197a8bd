package catalog

import (
	"fmt"
	"sort"
	"time"
)

// LatencySample accumulates latency observations. Not safe for concurrent
// use; each load-driver goroutine owns one and they are merged at the end.
// It keeps every sample rather than using the metrics histograms the soak
// workloads do (latencies, catalog.go): metrics.LatencyBounds doubles per
// bucket, which would coarsen every figure's p99 column.
type LatencySample struct {
	samples []time.Duration
}

// Add records one observation.
func (l *LatencySample) Add(d time.Duration) { l.samples = append(l.samples, d) }

// Merge folds another sample set into l.
func (l *LatencySample) Merge(o *LatencySample) { l.samples = append(l.samples, o.samples...) }

// Latency summarizes a sample set.
type Latency struct {
	N                  int
	Mean               time.Duration
	P50, P95, P99, Max time.Duration
}

// Summarize computes the latency summary (destructively sorts).
func (l *LatencySample) Summarize() Latency {
	if len(l.samples) == 0 {
		return Latency{}
	}
	sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
	var sum time.Duration
	for _, d := range l.samples {
		sum += d
	}
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(l.samples)-1))
		return l.samples[i]
	}
	return Latency{
		N:    len(l.samples),
		Mean: sum / time.Duration(len(l.samples)),
		P50:  pct(0.50),
		P95:  pct(0.95),
		P99:  pct(0.99),
		Max:  l.samples[len(l.samples)-1],
	}
}

// Result is the outcome of one benchmark run at one parameter point.
type Result struct {
	Engine     string
	Label      string
	Txns       uint64
	Aborts     uint64
	Duration   time.Duration
	Throughput float64 // committed transactions per second
	Latency    Latency
}

// StageBreakdown is the Figure-10 decomposition: per-stage share of the
// transaction lifecycle.
type StageBreakdown struct {
	Engine string
	Label  string
	// Stages maps stage name to fraction of total time (sums to 1).
	Stages []Stage
}

// Stage is one named share.
type Stage struct {
	Name     string
	Fraction float64
	Mean     time.Duration
	// P50, P95, and P99 are stage-latency percentiles, populated when the
	// engine exposes full distributions (ALOHA's per-stage histograms via
	// Cluster.Metrics); they stay zero for engines that track sums only.
	P50, P95, P99 time.Duration
}

func (b StageBreakdown) String() string {
	s := fmt.Sprintf("%-8s %-12s", b.Engine, b.Label)
	for _, st := range b.Stages {
		if st.P99 != 0 {
			s += fmt.Sprintf("  %s=%.1f%% (p50 %s / p95 %s / p99 %s)",
				st.Name, st.Fraction*100,
				st.P50.Round(time.Microsecond), st.P95.Round(time.Microsecond),
				st.P99.Round(time.Microsecond))
			continue
		}
		s += fmt.Sprintf("  %s=%.1f%% (%s)", st.Name, st.Fraction*100, st.Mean.Round(time.Microsecond))
	}
	return s
}
