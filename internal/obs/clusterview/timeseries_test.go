package clusterview

import (
	"math"
	"strings"
	"testing"

	"alohadb/internal/obs/tsdb"
)

// doc builds a recorder document with one commit_rate series sampled at
// the given tick timestamps.
func doc(server int, intervalMS int64, ticks []int64, values []float64) tsdb.Doc {
	return tsdb.Doc{
		Server:     server,
		IntervalMS: intervalMS,
		Retention:  len(ticks),
		Ticks:      ticks,
		Series: []tsdb.SeriesDoc{
			{Name: "commit_rate", Kind: "rate", Unit: "txn/s", Samples: values},
		},
	}
}

func TestMergeTimeseriesRaggedRings(t *testing.T) {
	// Server 0 has four samples, server 1 joined late and has two; a
	// third server is unreachable (no doc at all). The merged series must
	// cover exactly the buckets somebody reported — no fabricated points.
	d0 := doc(0, 500, []int64{1000, 1500, 2000, 2500}, []float64{100, 110, 120, 130})
	d1 := doc(1, 500, []int64{2010, 2510}, []float64{50, 60})

	merged := MergeTimeseries([]tsdb.Doc{d0, d1})
	if len(merged) != 1 {
		t.Fatalf("series = %d, want 1", len(merged))
	}
	s := merged[0]
	if s.Name != "commit_rate" || s.Kind != "rate" {
		t.Fatalf("unexpected series header %+v", s)
	}
	if len(s.Points) != 4 {
		t.Fatalf("points = %d, want 4 (no fabricated buckets): %+v", len(s.Points), s.Points)
	}
	// First two buckets come from server 0 alone; the last two sum both.
	wantVals := []float64{100, 110, 170, 190}
	wantServers := []int{1, 1, 2, 2}
	for i, p := range s.Points {
		if p.Value != wantVals[i] || p.Servers != wantServers[i] {
			t.Fatalf("point %d = %+v, want value %v servers %d", i, p, wantVals[i], wantServers[i])
		}
	}
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].UnixMS <= s.Points[i-1].UnixMS {
			t.Fatalf("points not time-ordered: %+v", s.Points)
		}
	}
}

func TestMergeTimeseriesGapsNotFabricated(t *testing.T) {
	// A NaN sample is a recorder gap; a bucket where every server gapped
	// must be absent from the merged series, not zero-filled.
	d := doc(0, 500, []int64{1000, 1500, 2000}, []float64{100, math.NaN(), 120})
	merged := MergeTimeseries([]tsdb.Doc{d})
	if len(merged) != 1 || len(merged[0].Points) != 2 {
		t.Fatalf("want 2 points (gap dropped), got %+v", merged)
	}
	if merged[0].Points[0].Value != 100 || merged[0].Points[1].Value != 120 {
		t.Fatalf("unexpected values %+v", merged[0].Points)
	}
}

func TestMergeTimeseriesGaugeTakesWorst(t *testing.T) {
	d0 := tsdb.Doc{Server: 0, IntervalMS: 500, Ticks: []int64{1000},
		Series: []tsdb.SeriesDoc{{Name: "visibility_lag_epochs", Kind: "gauge", Samples: []float64{2}}}}
	d1 := tsdb.Doc{Server: 1, IntervalMS: 500, Ticks: []int64{1200},
		Series: []tsdb.SeriesDoc{{Name: "visibility_lag_epochs", Kind: "gauge", Samples: []float64{7}}}}
	merged := MergeTimeseries([]tsdb.Doc{d0, d1})
	if len(merged) != 1 || len(merged[0].Points) != 1 {
		t.Fatalf("unexpected merge %+v", merged)
	}
	if p := merged[0].Points[0]; p.Value != 7 || p.Servers != 2 {
		t.Fatalf("gauge merge = %+v, want max 7 from 2 servers", p)
	}
}

func TestMergeTimeseriesEmpty(t *testing.T) {
	if got := MergeTimeseries(nil); got != nil {
		t.Fatalf("nil docs should merge to nil, got %+v", got)
	}
}

func TestAnomalyCrossLinkToEpochPaths(t *testing.T) {
	d := doc(1, 500, []int64{1000, 1500}, []float64{100, 20})
	d.Annotations = []tsdb.Annotation{{
		Series: "commit_rate", Kind: tsdb.AnomalyDrop, Active: true,
		StartMS: 1500, Baseline: 100, Observed: 20,
		FromEpoch: 10, ToEpoch: 14, GatingStage: "fsync",
	}}
	snap := ClusterSnapshot{
		Servers: []ServerStatus{{Reachable: true, Timeseries: &d}},
		EpochPaths: []EpochPath{
			{Epoch: 9, GatingServer: 0, GatingStage: "install"},
			{Epoch: 11, GatingServer: 2, GatingStage: "ack-wait"},
			{Epoch: 12, GatingServer: 2, GatingStage: "ack-wait"},
			{Epoch: 13, GatingServer: 0, GatingStage: "broadcast"},
			{Epoch: 15, GatingServer: 1, GatingStage: "seal"},
		},
	}
	mergeTimeseries(&snap)
	if len(snap.Anomalies) != 1 {
		t.Fatalf("anomalies = %d, want 1", len(snap.Anomalies))
	}
	a := snap.Anomalies[0]
	if a.Server != 1 || a.Series != "commit_rate" {
		t.Fatalf("annotation not carried: %+v", a)
	}
	// Epochs 11 and 12 (gated by server 2's ack-wait) dominate the window
	// [10,14]; epochs 9 and 15 lie outside it.
	if a.ClusterGatingServer != 2 || a.ClusterGatingStage != "ack-wait" {
		t.Fatalf("cross-link = server %d stage %q, want server 2 ack-wait",
			a.ClusterGatingServer, a.ClusterGatingStage)
	}

	// With no covering paths the link degrades to unknown, keeping the
	// local attribution.
	snap.EpochPaths = []EpochPath{{Epoch: 99, GatingServer: 0, GatingStage: "install"}}
	mergeTimeseries(&snap)
	if a := snap.Anomalies[0]; a.ClusterGatingServer != -1 || a.ClusterGatingStage != "" || a.GatingStage != "fsync" {
		t.Fatalf("uncovered window should keep local gating only: %+v", a)
	}
}

func TestSparkline(t *testing.T) {
	got := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if got != "▁▂▃▄▅▆▇█" {
		t.Fatalf("ramp = %q", got)
	}
	if got := Sparkline([]float64{1, math.NaN(), 3}, 3); got[0] == ' ' || !strings.Contains(got, " ") {
		t.Fatalf("NaN should render as a gap: %q", got)
	}
	if Sparkline(nil, 8) != "" {
		t.Fatal("empty input should render empty")
	}
	// Flat series renders mid-ramp, not a divide-by-zero artifact.
	if got := Sparkline([]float64{5, 5, 5}, 3); strings.ContainsRune(got, ' ') || len([]rune(got)) != 3 {
		t.Fatalf("flat series = %q", got)
	}
}
