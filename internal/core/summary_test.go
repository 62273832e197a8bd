package core

import (
	"reflect"
	"testing"
	"time"

	"alohadb/internal/metrics"
)

func onServer(server string, more ...metrics.Label) []metrics.Label {
	return append(more, metrics.Label{Key: "server", Value: server})
}

// TestSummarize pins how /debug/obs reads its scalars off the families
// /metrics serves: counters and gauges sum across series (one per server
// in an embedded cluster), an absent family reads zero, and a stage p99 is
// HistogramSnapshot.Quantile over the merged histogram, in seconds.
func TestSummarize(t *testing.T) {
	h := metrics.NewHistogram(metrics.LatencyBounds())
	for i := 0; i < 100; i++ {
		d := 500 * time.Microsecond
		if i >= 90 {
			d = 5 * time.Millisecond
		}
		h.ObserveDuration(d)
	}
	hist := h.Snapshot()
	got := summarize([]metrics.Family{
		{Name: FamTxnsCommitted, Kind: metrics.KindCounter, Series: []metrics.Series{
			metrics.CounterSeries(40, onServer("0")...), metrics.CounterSeries(2, onServer("1")...)}},
		{Name: FamCommittedEpoch, Kind: metrics.KindGauge, Series: []metrics.Series{metrics.GaugeSeries(7)}},
		{Name: FamStageInstall, Kind: metrics.KindHistogram, Unit: metrics.UnitSeconds, Series: []metrics.Series{
			metrics.HistSeries(hist, onServer("0")...), metrics.HistSeries(hist, onServer("1")...)}},
	})
	if got.TxnsCommitted != 42 || got.CommittedEpoch != 7 || got.TxnsAborted != 0 || got.P99Wait != 0 {
		t.Errorf("scalars = %+v", got)
	}
	merged := hist.Clone()
	merged.Merge(hist)
	// The p99 sits inside the (4.096ms, 8.192ms] bucket, not at its edge.
	if want := float64(merged.Quantile(0.99)) / 1e9; got.P99Install != want || want <= 0.004096 || want >= 0.008192 {
		t.Errorf("p99 install = %v, want %v inside the bucket", got.P99Install, want)
	}
}

// TestSummarizeAbortReasons pins the abort breakdown: reasons group by
// their label across servers, zero-count reasons are dropped, and an
// absent family leaves the map nil.
func TestSummarizeAbortReasons(t *testing.T) {
	reason := func(r string) metrics.Label { return metrics.Label{Key: "reason", Value: r} }
	got := summarize([]metrics.Family{
		{Name: FamTxnAbortReason, Kind: metrics.KindCounter, Series: []metrics.Series{
			metrics.CounterSeries(3, onServer("0", reason("constraint"))...),
			metrics.CounterSeries(7, onServer("0", reason("chaos-injected"))...),
			metrics.CounterSeries(2, onServer("1", reason("chaos-injected"))...),
			metrics.CounterSeries(0, onServer("1", reason("other"))...)}},
	})
	if want := map[string]float64{"constraint": 3, "chaos-injected": 9}; !reflect.DeepEqual(got.AbortReasons, want) {
		t.Errorf("abort reasons = %v, want %v", got.AbortReasons, want)
	}
	if got := summarize(nil); got.AbortReasons != nil {
		t.Errorf("absent family: abort reasons = %v, want nil", got.AbortReasons)
	}
}
