package catalog

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/obs"
	"alohadb/internal/scenario"
	"alohadb/internal/tstamp"
)

// registerMigrate registers the two live-migration scenarios: the quick
// oracle-checked split of one hot key, and the hot-spot recovery run that
// measures throughput before and after a profiler-guided split.
func registerMigrate(r *scenario.Registry) {
	r.MustRegister(&scenario.Scenario{
		Name:    "migrate-split",
		Summary: "profiler-guided live split of a hot key, oracle-checked across the handoff",
		Attrs:   []string{"migration", "smoke", "obs"},
		Shape: func(p scenario.Params) scenario.EnvConfig {
			return scenario.EnvConfig{
				Servers:           3,
				EpochDuration:     2 * time.Millisecond,
				Retention:         8,
				Skew:              &obs.SkewConfig{SampleEvery: 1, TopK: 8},
				Watchdog:          true,
				WatchdogThreshold: 5 * time.Second,
			}
		},
		Run: runMigrateSplit,
	})
	// Not smoke: eight measurement phases of at least a second each.
	r.MustRegister(&scenario.Scenario{
		Name:    "migrate-recover",
		Summary: "hot-spot recovery: live split of a one-partition hot spot via the skew top-K, throughput back to >= 0.9 of baseline",
		Attrs:   []string{"migration", "obs"},
		// Ops listeners so aloha-top can watch the split happen (ownership
		// generation, migration counters, per-partition skew). Retention is
		// bounded: the workload appends tens of thousands of versions per key,
		// and unbounded chains make every epoch seal (a copy-on-write merge of
		// the full chain) grow linearly with phase count, which would skew the
		// before/after throughput comparison.
		Shape: func(p scenario.Params) scenario.EnvConfig {
			return scenario.EnvConfig{
				Servers:       3,
				EpochDuration: 5 * time.Millisecond,
				Registry:      functor.NewRegistry(),
				Retention:     8,
				Skew:          &obs.SkewConfig{SampleEvery: 1, TopK: 32},
				Ops:           true,
			}
		},
		Run: runMigrateRecover,
	})
}

// runMigrateRecover is the hot-spot recovery check: measure baseline
// throughput under a balanced Zipfian workload, induce a hot spot whose
// keys all live on one partition, split the hot range live (the skew
// top-K feeds MoveKey), and verify post-split throughput recovers to
// within minRatio of the baseline with zero write errors. Two scrapes of
// the ops listeners bracket the split: every server must have adopted the
// post-split ownership map and the cluster's epoch floor must not move
// backwards across it. Fails when the split moves nothing or throughput
// stays depressed.
func runMigrateRecover(ctx context.Context, env *scenario.Env) error {
	const (
		writers  = 6
		minRatio = 0.9
	)
	c := env.Cluster
	servers := c.NumServers()
	// Eight phases (warm-up, 3x baseline, hot, 3x recovered); below a second
	// each the rates are too noisy to compare.
	phase := env.Window / 8
	if phase < time.Second {
		phase = time.Second
	}
	env.Logf("ops listeners: aloha-top -servers %s", strings.Join(env.OpsAddrs, ","))

	// Two key sets with the same Zipfian popularity profile, differing
	// only in placement: spread[r] (popularity rank r) hashes to partition
	// r%servers — the balanced layout — while hot[r] all hash to partition
	// 0, so the hot phase drives one server far above the others. The live
	// split must recover the balanced layout's throughput.
	const setSize = 16
	craft := func(prefix string, part func(rank int) int) ([]kv.Key, error) {
		keys := make([]kv.Key, 0, setSize)
		for i := 0; len(keys) < setSize && i < 100_000; i++ {
			k := kv.Key(fmt.Sprintf("%s%05d", prefix, i))
			if kv.PartitionOf(k, servers) == part(len(keys)) {
				keys = append(keys, k)
			}
		}
		if len(keys) < setSize {
			return nil, fmt.Errorf("could not craft key set %q", prefix)
		}
		return keys, nil
	}
	spread, err := craft("spread-", func(rank int) int { return rank % servers })
	if err != nil {
		return err
	}
	hot, err := craft("hot-", func(int) int { return 0 })
	if err != nil {
		return err
	}

	// measure drives closed-loop writers for one phase and returns the
	// committed install rate plus the error count. mkPick builds one
	// key picker per writer from its seeded rng.
	measure := func(mkPick func(rng *rand.Rand) func() kv.Key) (float64, int) {
		var ops, errs atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(env.Seed + int64(w)))
				pick := mkPick(rng)
				srv := c.Server(w % servers)
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
					h, err := srv.Submit(sctx, core.Txn{Writes: []core.Write{
						{Key: pick(), Functor: functor.Add(1)},
					}})
					switch {
					case err != nil:
						errs.Add(1)
					default:
						if aborted, _ := h.Installed(); aborted {
							errs.Add(1)
							cancel()
							continue
						}
						ops.Add(1)
						// Await every 64th txn: without pacing, installs outrun
						// the functor processors and the growing compute
						// backlog bleeds CPU into later phases, skewing the
						// before/after comparison. (A tighter interval would
						// epoch-bind the writers and hide placement entirely.)
						if n%64 == 0 {
							_, _, _ = h.Await(sctx)
						}
					}
					cancel()
				}
			}(w)
		}
		time.Sleep(phase)
		close(stop)
		wg.Wait()
		// Settle before the next window so leftover compute work from this
		// one cannot bleed into its measurement.
		c.DrainProcessors()
		return float64(ops.Load()) / phase.Seconds(), int(errs.Load())
	}

	// Mildly Zipfian (s=1.1, v=8): rank 0 draws ~3x the tail, but no single
	// key dominates — a steeper curve would serialize on the head key's
	// version chain and hide the partition imbalance the split fixes.
	zipfPick := func(keys []kv.Key) func(rng *rand.Rand) func() kv.Key {
		return func(rng *rand.Rand) func() kv.Key {
			z := rand.NewZipf(rng, 1.1, 8, uint64(len(keys)-1))
			return func() kv.Key { return keys[z.Uint64()] }
		}
	}
	// measureMedian runs three windows and takes the median rate and the
	// worst error count: single windows on a shared CI machine can swing
	// >10% from GC pauses and scheduler noise alone.
	measureMedian := func(mkPick func(rng *rand.Rand) func() kv.Key) (float64, int) {
		rates := make([]float64, 3)
		errs := 0
		for i := range rates {
			r, e := measure(mkPick)
			rates[i] = r
			if e > errs {
				errs = e
			}
		}
		sort.Float64s(rates)
		return rates[1], errs
	}

	// Warm up to chain steady state (retention-bounded view lengths, GC
	// heap settled) before measuring anything: fresh empty chains would
	// flatter the first phase measured and nothing else.
	measure(zipfPick(spread))

	baseline, berrs := measureMedian(zipfPick(spread))
	env.Logf("baseline (balanced layout) %.0f ops/s (%d errors)", baseline, berrs)

	hotRate, herrs := measure(zipfPick(hot))
	env.Logf("hot spot (all on partition 0) %.0f ops/s (%d errors)", hotRate, herrs)
	before := env.Scraper().Scrape(ctx)

	// Forced split: the skew profiler's top-K orders the hot keys by
	// observed traffic; move rank r to partition r%servers, reproducing
	// the balanced layout live. Handoffs execute inside the timed epoch
	// barriers.
	snap := env.Skew.Snapshot()
	var tickets []*core.MoveTicket
	rank := 0
	for _, hk := range snap.TopKeys {
		k := kv.Key(hk.Key)
		// The top-K spans both phases; split only the hot range (an
		// operator targets the misplaced range, not every warm key).
		if !strings.HasPrefix(string(k), "hot-") ||
			int(c.PlacementTable().Route(k, tstamp.MaxEpoch)) != 0 {
			continue
		}
		to := rank % servers
		rank++
		if to == 0 {
			continue
		}
		t, err := c.Rebalancer().MoveKey(k, to)
		if err != nil {
			return fmt.Errorf("move %q: %w", k, err)
		}
		tickets = append(tickets, t)
	}
	if len(tickets) == 0 {
		return fmt.Errorf("skew top-K surfaced no partition-0 keys to split")
	}
	var handoff tstamp.Epoch
	for _, t := range tickets {
		wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		e, err := t.Wait(wctx)
		cancel()
		if err != nil {
			return fmt.Errorf("handoff: %w", err)
		}
		handoff = e
	}
	env.Logf("split %d hot keys off partition 0 (generation %d, handoff epoch %d)",
		len(tickets), c.PlacementTable().Generation(), handoff)
	after := env.Scraper().Scrape(ctx)
	if before.ReachableServers != servers || after.ReachableServers != servers {
		return fmt.Errorf("scrapes around the split reached %d and %d of %d servers",
			before.ReachableServers, after.ReachableServers, servers)
	}
	for _, sv := range after.Servers {
		if sv.PlacementGen < 1 {
			return fmt.Errorf("server %s still at placement generation %d after the split", sv.Addr, sv.PlacementGen)
		}
	}
	if after.MinCommittedEpoch < before.MinCommittedEpoch {
		return fmt.Errorf("min committed epoch moved backwards across the split: %d -> %d",
			before.MinCommittedEpoch, after.MinCommittedEpoch)
	}

	recovered, rerrs := measureMedian(zipfPick(hot))
	ratio := 0.0
	if baseline > 0 {
		ratio = recovered / baseline
	}
	ok := ratio >= minRatio && rerrs == 0
	env.Logf("recovered %.0f ops/s (%d errors), ratio %.2f of baseline, ok=%v",
		recovered, rerrs, ratio, ok)
	if !ok {
		return fmt.Errorf("post-split throughput %.0f ops/s is %.2f of baseline %.0f ops/s (want >= %.2f, errors %d)",
			recovered, ratio, baseline, minRatio, rerrs)
	}
	return nil
}

// runMigrateSplit hammers a hot key, finds it through the skew profiler
// (not by construction), splits it off its partition live, and proves the
// history stays clean across the epoch-fenced handoff.
func runMigrateSplit(ctx context.Context, env *scenario.Env) error {
	keys := make([]kv.Key, 16)
	for i := range keys {
		keys[i] = kv.Key(fmt.Sprintf("mg:k%02d", i))
	}
	hot := keys[0]
	rng := rand.New(rand.NewSource(env.Seed))
	// Zipf-ish: most writes land on the hot key.
	load := &appendLoad{writeKeys: func(rng *rand.Rand) []kv.Key {
		if rng.Float64() > 0.7 {
			return []kv.Key{keys[1+rng.Intn(len(keys)-1)]}
		}
		return []kv.Key{hot}
	}}
	load.register(env.Registry, env.Oracle)
	drive := func(until time.Time) error {
		for ; time.Now().Before(until) && ctx.Err() == nil; time.Sleep(300 * time.Microsecond) {
			n := int(load.tags.Load() + 1)
			load.write(ctx, env.Cluster.Server(n%env.Cluster.NumServers()), rng, env.Oracle)
		}
		return ctx.Err()
	}

	// Phase 1: build up heat so the profiler, not the test, names the
	// hot key.
	half := env.Window / 2
	if err := drive(time.Now().Add(half)); err != nil {
		return err
	}
	snap := env.Skew.Snapshot()
	if len(snap.TopKeys) == 0 {
		return fmt.Errorf("skew profiler ranked no keys")
	}
	hottest := kv.Key(snap.TopKeys[0].Key)
	if hottest != hot {
		return fmt.Errorf("profiler ranked %q hottest, want %q", hottest, hot)
	}
	cur := int(env.Cluster.PlacementTable().Route(hottest, tstamp.MaxEpoch))
	to := (cur + 1) % env.Cluster.NumServers()
	ticket, err := env.Cluster.Rebalancer().MoveKey(hottest, to)
	if err != nil {
		return fmt.Errorf("enqueue split: %w", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	epoch, err := ticket.Wait(wctx)
	cancel()
	if err != nil {
		return fmt.Errorf("handoff never completed: %w", err)
	}
	env.Logf("split %s: server %d -> %d at epoch %d", hottest, cur, to, epoch)

	// Phase 2: keep writing through and past the handoff.
	if err := drive(time.Now().Add(half)); err != nil {
		return err
	}
	if got := int(env.Cluster.PlacementTable().Route(hottest, tstamp.MaxEpoch)); got != to {
		return fmt.Errorf("after the split %s routes to %d, want %d", hottest, got, to)
	}
	if err := settle(ctx, env); err != nil {
		return err
	}
	if err := observeFinals(ctx, env, keys); err != nil {
		return err
	}
	_, committed, _, _, _ := env.Oracle.Counts()
	env.Logf("migration survived %d txns (%d committed)", load.tags.Load(), committed)
	if committed == 0 {
		return fmt.Errorf("no transaction committed in a %s window", env.Window)
	}
	return nil
}
