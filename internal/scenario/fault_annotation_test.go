package scenario_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"alohadb/internal/chaos"
	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/obs/tsdb"
	"alohadb/internal/scenario"
	"alohadb/internal/transport"
)

// TestFaultAnnotation is the flight recorder's end-to-end acceptance
// path: a scenario run with an injected mid-run network fault must open a
// /debug/timeseries anomaly annotation over the degraded window,
// cross-linked to the epoch journal's gating attribution, and the merged
// cluster view must carry it.
func TestFaultAnnotation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault-injection run")
	}
	const servers = 3

	var annotated []tsdb.Annotation
	faulted := &scenario.Scenario{
		Name:    "fault-annotation",
		Summary: "annotation acceptance: steady closed loop with a mid-run delay fault",
		Shape: func(p scenario.Params) scenario.EnvConfig {
			return scenario.EnvConfig{
				Servers:       servers,
				EpochDuration: 2 * time.Millisecond,
				SwitchTimeout: time.Second,
				Registry:      functor.NewRegistry(),
				Ops:           true,
				// Fast sample clock so the ~1.3s degraded window spans
				// many ticks beyond the detector's cold-start floor.
				Timeseries:         true,
				TimeseriesInterval: 50 * time.Millisecond,
				StallThreshold:     10 * time.Second,
				WrapNet: func(inner transport.Network) transport.Network {
					// Probability-free wrap: the body schedules the only
					// fault (deterministic link delays) itself.
					return chaos.Wrap(inner, chaos.Config{Seed: p.Seed})
				},
			}
		},
		Run: func(ctx context.Context, env *scenario.Env) error {
			c := env.Cluster
			// Closed-loop batches: throughput tracks commit latency, so
			// delayed links genuinely collapse the commit rate instead
			// of queueing fire-and-forget submissions for later.
			drive := func(until time.Time) {
				i := 0
				for time.Now().Before(until) && ctx.Err() == nil {
					var hs []*core.TxnHandle
					for j := 0; j < 16; j++ {
						h, err := c.Server(i%servers).Submit(ctx, core.Txn{Writes: []core.Write{
							{Key: kv.Key("acct-" + string(rune('a'+i%24))), Functor: functor.Add(1)},
						}})
						if err == nil {
							hs = append(hs, h)
						}
						i++
					}
					for _, h := range hs {
						_, _, _ = h.Await(ctx)
					}
				}
			}
			drive(time.Now().Add(1600 * time.Millisecond))
			cn := env.Net.(*chaos.Network)
			for from := 0; from < servers; from++ {
				for to := 0; to < servers; to++ {
					if from != to {
						cn.DelayLink(transport.NodeID(from), transport.NodeID(to), 30*time.Millisecond)
					}
				}
			}
			drive(time.Now().Add(1300 * time.Millisecond))
			cn.HealAll()
			drive(time.Now().Add(300 * time.Millisecond))
			err := env.Quiesce(ctx)

			for _, rec := range env.Recorders {
				annotated = append(annotated, rec.Doc().Annotations...)
			}
			// The merged cluster view must carry the same anomalies,
			// cross-linked to the merged epoch critical paths.
			snap := env.Scraper().Scrape(ctx)
			if len(snap.Anomalies) == 0 {
				t.Error("cluster view carries no anomaly annotations after the fault")
			}
			linked := false
			for _, a := range snap.Anomalies {
				if a.FromEpoch > 0 && (a.ClusterGatingStage != "" || a.GatingStage != "") {
					linked = true
				}
			}
			if !linked {
				t.Errorf("no anomaly cross-linked to an epoch gating stage: %+v", snap.Anomalies)
			}
			return err
		},
	}
	if _, err := scenario.Run(context.Background(), []*scenario.Scenario{faulted}, scenario.RunOptions{
		Out: testWriter{t},
	}); err != nil {
		t.Fatalf("faulted run: %v", err)
	}

	// The recorder annotated the degraded window with real epochs.
	found := false
	for _, a := range annotated {
		if a.Series == "commit_rate" && a.Kind == tsdb.AnomalyDrop && a.FromEpoch > 0 {
			found = true
			if a.GatingStage == "" {
				t.Errorf("drop annotation has no journal gating cross-link: %+v", a)
			}
		}
	}
	if !found {
		t.Fatalf("no commit_rate drop annotation over the fault window; got %+v", annotated)
	}
}

// testWriter routes runner output through the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
