package catalog

import (
	"fmt"
	"time"
)

// N returns the number of observations.
func (l *LatencySample) N() int { return len(l.samples) }

// String renders a human-readable single line.
func (r Result) String() string {
	return fmt.Sprintf("%-8s %-14s %9.0f txn/s  mean %8s  p99 %8s  (n=%d, aborts=%d)",
		r.Engine, r.Label, r.Throughput, r.Latency.Mean.Round(10*time.Microsecond),
		r.Latency.P99.Round(10*time.Microsecond), r.Txns, r.Aborts)
}
