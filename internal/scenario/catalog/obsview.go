package catalog

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"alohadb/internal/kv"
	"alohadb/internal/obs"
	"alohadb/internal/obs/clusterview"
	"alohadb/internal/scenario"
)

// registerObsView registers the observability boot: a cluster with the
// full stack (ops listeners, skew profiler, flight recorders),
// a light workload, then assertions over the same scrape surface
// aloha-top renders. With a long -window it is also the live target for
// `aloha-top -servers <the logged addresses>`.
func registerObsView(r *scenario.Registry) {
	r.MustRegister(&scenario.Scenario{
		Name:    "obs-view",
		Summary: "full observability stack boot, asserted through the merged cluster view aloha-top renders; prints the slowest epochs",
		Attrs:   []string{"smoke", "obs"},
		Shape: func(p scenario.Params) scenario.EnvConfig {
			return scenario.EnvConfig{
				Servers:       3,
				EpochDuration: 3 * time.Millisecond,
				Skew:          &obs.SkewConfig{SampleEvery: 4, TopK: 16},
				Ops:           true,
				// Fast recorder clock so even the quick matrix's window
				// spans several samples of every series.
				Timeseries:         true,
				TimeseriesInterval: 50 * time.Millisecond,
			}
		},
		Run: runObsView,
	})
}

func runObsView(ctx context.Context, env *scenario.Env) error {
	servers := env.Cluster.NumServers()
	env.Logf("ops listeners: aloha-top -servers %s", strings.Join(env.OpsAddrs, ","))
	rng := rand.New(rand.NewSource(env.Seed))
	load := &appendLoad{writeKeys: func(rng *rand.Rand) []kv.Key {
		return []kv.Key{kv.Key(fmt.Sprintf("obs:k%02d", rng.Intn(16)))}
	}}
	load.register(env.Registry, env.Oracle)
	drive := func(d time.Duration) {
		for deadline := time.Now().Add(d); time.Now().Before(deadline) && ctx.Err() == nil; time.Sleep(500 * time.Microsecond) {
			load.write(ctx, env.Cluster.Server(int(load.tags.Load()+1)%servers), rng, env.Oracle)
		}
	}

	// Two scrapes bracket the second half of the workload, as
	// `aloha-top -once` does, so the delta carries real commit rates and the
	// epoch floor can be checked for monotonicity.
	drive(env.Window / 2)
	prev := env.Scraper().Scrape(ctx)
	drive(env.Window / 2)
	if err := settle(ctx, env); err != nil {
		return err
	}
	snap := clusterview.Delta(prev, env.Scraper().Scrape(ctx))
	env.Logf("obs: %d txns; scrape: %d servers, frontier %d..%d, %.0f commits/s, %d epoch paths, %d series",
		load.tags.Load(), snap.ReachableServers, snap.MinCommittedEpoch, snap.MaxCommittedEpoch, snap.AggTxnRate,
		len(snap.EpochPaths), len(snap.Timeseries))
	if snap.ReachableServers != servers {
		return fmt.Errorf("scrape reached %d of %d servers", snap.ReachableServers, servers)
	}
	if snap.MinCommittedEpoch == 0 {
		return fmt.Errorf("commit frontier never advanced")
	}
	if snap.MinCommittedEpoch < prev.MinCommittedEpoch {
		return fmt.Errorf("min committed epoch moved backwards: %d -> %d", prev.MinCommittedEpoch, snap.MinCommittedEpoch)
	}
	if snap.ActiveStalls != 0 {
		return fmt.Errorf("healthy cluster reports %d active stalls", snap.ActiveStalls)
	}
	if len(snap.EpochPaths) == 0 {
		return fmt.Errorf("no merged epoch critical paths in the cluster view")
	}
	for _, p := range snap.EpochPaths {
		if p.GatingStage == "" {
			return fmt.Errorf("epoch %d's critical path names no gating stage", p.Epoch)
		}
	}
	hasCommitRate := false
	for _, s := range snap.Timeseries {
		hasCommitRate = hasCommitRate || s.Name == "commit_rate"
	}
	if !hasCommitRate {
		return fmt.Errorf("merged timeseries carries no commit_rate series")
	}
	if env.Skew.Snapshot().Observed == 0 {
		return fmt.Errorf("skew profiler observed no accesses")
	}
	fmt.Fprintf(env.Out, "slowest epochs (critical path):\n")
	clusterview.RenderEpochs(env.Out, snap.EpochPaths, 10)
	return nil
}
