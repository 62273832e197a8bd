package catalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"alohadb/internal/chaos"
	"alohadb/internal/chaos/oracle"
	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/scenario"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
	"alohadb/internal/wal"
)

// appendFunctor is the name the tag-append load registers its handler under.
const appendFunctor = "append"

// appendLoad is the tag-append workload the chaos scenarios, feed-fanout,
// obs-view and migrate-split share: writers append a unique tag to the
// keys writeKeys picks, readers snapshot-read the keys readKeys picks, both
// record into the env's oracle, and the handler runs through the oracle's
// compute witness. Every random choice derives from the env's seed.
type appendLoad struct {
	// keys is every key the load touches: final values are read from all
	// of them, and migrations move them.
	keys             []kv.Key
	writers, readers int
	writeKeys        func(rng *rand.Rand) []kv.Key
	readKeys         func(rng *rand.Rand) []kv.Key
	// requires gives 6 % of transactions a Requires on a key that never
	// exists (the second-round abort path); await awaits the functors of
	// 15 % of the committed ones.
	requires, await bool
	// linkChaos severs and heals random links of the env's chaos network,
	// and migrate moves random keys between servers, until writers finish.
	linkChaos, migrate bool
	// handler is the functor every write runs (appendTag when nil).
	handler functor.Handler

	lat        *latencies
	tags       atomic.Int64
	readErrs   atomic.Int64
	migrations atomic.Int64
}

// register readies the load: its handler, installed through h's compute
// witness, and its submit-latency histogram.
func (d *appendLoad) register(reg *functor.Registry, h *oracle.History) {
	fn := d.handler
	if fn == nil {
		fn = appendTag
	}
	reg.MustRegister(appendFunctor, h.Witness(fn))
	d.lat = newLatencies()
}

// run drives one phase of ops transactions per writer (zero: until the
// window closes), settles the cluster and reads every final value into the
// oracle.
func (d *appendLoad) run(ctx context.Context, env *scenario.Env, ops int) error {
	d.register(env.Registry, env.Oracle)
	d.drive(ctx, env, 0, ops)()
	if err := settle(ctx, env); err != nil {
		return err
	}
	return observeFinals(ctx, env, d.keys)
}

// drive runs the writers to completion while readers and the fault
// goroutines run freely, and returns the function that stops and reaps
// those: chaos-crash calls it only after killing the cluster, so readers
// are in flight when the servers vanish.
func (d *appendLoad) drive(ctx context.Context, env *scenario.Env, phase, ops int) (stopAux func()) {
	c := env.Cluster
	n := c.NumServers()
	stop := make(chan struct{})
	var aux sync.WaitGroup
	goAux := func(seed int64, f func(rng *rand.Rand)) {
		aux.Add(1)
		go func() {
			defer aux.Done()
			f(rand.New(rand.NewSource(seed)))
		}()
	}
	// pause sleeps for p and reports whether the aux goroutines go on.
	pause := func(p time.Duration) bool {
		select {
		case <-stop:
			return false
		case <-time.After(p):
			return true
		}
	}
	if cn, ok := env.Net.(*chaos.Network); ok && d.linkChaos {
		goAux(env.Seed*104729+int64(phase), func(rng *rand.Rand) {
			defer cn.HealAll()
			for pause(time.Duration(2+rng.Intn(20)) * time.Millisecond) {
				from, to := transport.NodeID(rng.Intn(n)), transport.NodeID(rng.Intn(n))
				if from == to {
					continue
				}
				both := rng.Float64() < 0.3
				cn.Sever(from, to)
				if both {
					cn.Sever(to, from)
				}
				if !pause(time.Duration(3+rng.Intn(25)) * time.Millisecond) {
					return
				}
				cn.Heal(from, to)
				if both {
					cn.Heal(to, from)
				}
			}
		})
	}
	if d.migrate && n > 1 {
		goAux(env.Seed*31337+int64(phase), func(rng *rand.Rand) {
			for pause(time.Duration(8+rng.Intn(16)) * time.Millisecond) {
				// The handoff executes inside the next epoch barrier.
				k := d.keys[rng.Intn(len(d.keys))]
				cur := int(c.PlacementTable().Route(k, tstamp.MaxEpoch))
				ticket, err := c.Rebalancer().MoveKey(k, (cur+1+rng.Intn(n-1))%n)
				if err != nil {
					continue
				}
				wctx, cancel := context.WithTimeout(ctx, 2*time.Second)
				if _, err := ticket.Wait(wctx); err == nil {
					d.migrations.Add(1)
				}
				cancel()
			}
		})
	}
	for r := 0; r < d.readers; r++ {
		srv := c.Server(r % n)
		goAux(env.Seed*7919+int64(1000*phase+r), func(rng *rand.Rand) {
			for pause(time.Duration(rng.Intn(2500)) * time.Microsecond) {
				keys := d.readKeys(rng)
				// Loopback reads are sub-millisecond, and a reader caught
				// by a crash must not pin the run for long.
				rctx, cancel := context.WithTimeout(ctx, 600*time.Millisecond)
				vals, snap, err := srv.ReadMany(rctx, keys)
				cancel()
				if err != nil {
					d.readErrs.Add(1)
					continue
				}
				env.Oracle.Observe(r, snap, keys, vals)
			}
		})
	}
	deadline := time.Now().Add(env.Window)
	var writers sync.WaitGroup
	for w := 0; w < d.writers; w++ {
		rng := rand.New(rand.NewSource(env.Seed*1000003 + int64(1000*phase+w)))
		writers.Add(1)
		go func() {
			defer writers.Done()
			for op := 0; ctx.Err() == nil && (op < ops || ops == 0 && time.Now().Before(deadline)); op++ {
				time.Sleep(time.Duration(rng.Intn(1500)) * time.Microsecond)
				d.write(ctx, c.Server(w%n), rng, env.Oracle)
			}
		}()
	}
	writers.Wait()
	return func() {
		close(stop)
		aux.Wait()
	}
}

// write submits one transaction and records it in the oracle.
func (d *appendLoad) write(ctx context.Context, srv *core.Server, rng *rand.Rand, h *oracle.History) {
	tag := fmt.Sprintf("t%d", d.tags.Add(1))
	keys := d.writeKeys(rng)
	txn := core.Txn{}
	for _, k := range keys {
		txn.Writes = append(txn.Writes, core.Write{Key: k, Functor: functor.User(appendFunctor, []byte(tag+";"), nil)})
	}
	if d.requires && rng.Float64() < 0.06 {
		txn.Requires = []kv.Key{kv.Key("missing-" + tag)}
	}
	h.Begin(tag, keys)
	sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	start := time.Now()
	results, handles, err := srv.SubmitBatch(sctx, []core.Txn{txn})
	d.lat.observe(time.Since(start))
	var res core.TxnResult
	if err == nil {
		res = results[0]
	}
	finishSubmit(h, tag, res, err)
	if err == nil && !res.Aborted && d.await && rng.Float64() < 0.15 {
		actx, acancel := context.WithTimeout(ctx, time.Second)
		_, _, _ = handles[0].Await(actx)
		acancel()
	}
}

// summary reports what the oracle recorded and what the load saw.
func (d *appendLoad) summary(h *oracle.History) string {
	total, committed, aborted, indeterminate, discarded := h.Counts()
	return fmt.Sprintf("%d txns (%d committed, %d aborted, %d indeterminate, %d discarded), %d reads (%d failed), %d recomputed, %d migrations, submit p99 %s",
		total, committed, aborted, indeterminate, discarded, h.Reads(), d.readErrs.Load(), h.Recomputed(),
		d.migrations.Load(), d.lat.p99().Round(time.Microsecond))
}

// pickKeys samples n distinct keys.
func pickKeys(rng *rand.Rand, keys []kv.Key, n int) []kv.Key {
	out := make([]kv.Key, 0, n)
	for _, j := range rng.Perm(len(keys))[:min(n, len(keys))] {
		out = append(out, keys[j])
	}
	return out
}

// chaosLoad is the chaos scenarios' workload: 6 writers of one- and
// two-key transactions and 3 readers of two to four keys over 12 keys,
// with missing-key requirements, awaits and link chaos.
func chaosLoad() *appendLoad {
	keys := make([]kv.Key, 12)
	for i := range keys {
		keys[i] = kv.Key(fmt.Sprintf("ck%02d", i))
	}
	return &appendLoad{
		keys:    keys,
		writers: 6,
		readers: 3,
		writeKeys: func(rng *rand.Rand) []kv.Key {
			if rng.Float64() < 0.45 {
				return pickKeys(rng, keys, 2)
			}
			return pickKeys(rng, keys, 1)
		},
		readKeys:  func(rng *rand.Rand) []kv.Key { return pickKeys(rng, keys, 2+rng.Intn(3)) },
		requires:  true,
		await:     true,
		linkChaos: true,
	}
}

// chaosShape is the chaos scenarios' cluster: chaosEnv's three servers at
// 3 ms epochs under the given fault mix.
func chaosShape(seed int64, probs chaos.Probabilities) scenario.EnvConfig {
	cfg := chaosEnv(3, seed)
	cfg.EpochDuration = 3 * time.Millisecond
	cfg.WrapNet = wrapChaos(seed, probs)
	return cfg
}

// opsPerWriter scales a chaos run with its window: 60 transactions per
// writer per second, within [20, 2000], so a seed and window replay the
// same amount of work.
func opsPerWriter(window time.Duration) int {
	return min(max(int(60*window.Seconds()), 20), 2000)
}

// chaosScenario is one shaped chaos scenario: the chaos load, adjusted by
// tune, on chaosShape's cluster over transport; tested fails a run that
// exercised nothing.
func chaosScenario(name, summary string, attrs []string, probs chaos.Probabilities, transport string,
	tune func(*appendLoad), tested func(*appendLoad, chaos.Stats) error) *scenario.Scenario {
	return &scenario.Scenario{
		Name:    name,
		Summary: summary,
		Attrs:   attrs,
		Timeout: 5 * time.Minute,
		Shape: func(p scenario.Params) scenario.EnvConfig {
			cfg := chaosShape(p.Seed, probs)
			cfg.Transport = transport
			return cfg
		},
		Run: func(ctx context.Context, env *scenario.Env) error {
			d := chaosLoad()
			tune(d)
			if err := d.run(ctx, env, opsPerWriter(env.Window)); err != nil {
				return err
			}
			faults := env.Net.(*chaos.Network).Stats()
			env.Logf("%s; faults: %v", d.summary(env.Oracle), faults)
			return tested(d, faults)
		},
	}
}

func registerChaos(r *scenario.Registry) {
	faulted := func(_ *appendLoad, faults chaos.Stats) error {
		if faults.Injected() == 0 {
			return errors.New("no fault was injected: the run tested nothing")
		}
		return nil
	}
	r.MustRegister(chaosScenario("chaos-quick",
		"oracle-checked fault injection with link chaos on the in-memory transport",
		[]string{"chaos", "smoke"}, chaos.DefaultProbabilities(), "mem", func(*appendLoad) {}, faulted))
	// TCP RPCs are slower: the in-memory fault mix would mostly measure
	// retry latency.
	r.MustRegister(chaosScenario("chaos-tcp",
		"oracle-checked fault injection over real TCP sockets",
		[]string{"chaos", "net"}, lightProbs(), "tcp", func(d *appendLoad) { d.linkChaos = false }, faulted))
	r.MustRegister(chaosScenario("chaos-migrate",
		"live key migration racing the workload under faults",
		[]string{"chaos", "migration"}, chaos.DefaultProbabilities(), "mem", func(d *appendLoad) { d.migrate = true },
		func(d *appendLoad, _ chaos.Stats) error {
			if d.migrations.Load() == 0 {
				return errors.New("no migration completed: the run tested nothing")
			}
			return nil
		}))
	r.MustRegister(&scenario.Scenario{
		Name:    "chaos-crash",
		Summary: "mid-run cluster crash with WAL recovery and gray-band reclassification",
		Attrs:   []string{"chaos", "crash"},
		Timeout: 5 * time.Minute,
		Run:     runChaosCrash,
	})
}

// runChaosCrash drives half the chaos load, crashes the cluster abruptly,
// recovers every server from its WAL, and drives the rest on the recovered
// cluster. The oracle spans the crash, so a lost committed epoch or a
// resurrected rolled-back write fails the run.
func runChaosCrash(ctx context.Context, env *scenario.Env) error {
	dir, err := os.MkdirTemp("", "aloha-scn-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d := chaosLoad()
	reg := functor.NewRegistry()
	d.register(reg, env.Oracle)
	// build starts one phase's cluster over the WAL directory, with faults
	// drawn from a seed derived per phase.
	build := func(phase int, stores []*mvstore.Store, start tstamp.Epoch) (*scenario.Env, error) {
		cfg := chaosShape(env.Seed+int64(phase)*0x9e3779b9, chaos.DefaultProbabilities())
		// Longer epochs widen the uncommitted window at the crash, so the
		// discard path is exercised.
		cfg.EpochDuration = 8 * time.Millisecond
		cfg.Registry, cfg.Stores, cfg.StartEpoch = reg, stores, start
		cfg.DurabilityFactory = func(id int) (core.DurabilityHook, error) {
			return wal.Open(wal.LogPath(dir, id))
		}
		ph, err := scenario.BuildEnv(cfg)
		if err == nil {
			ph.Seed, ph.Window, ph.Oracle = env.Seed, env.Window, env.Oracle
		}
		return ph, err
	}
	ops := opsPerWriter(env.Window)
	ph, err := build(0, nil, 0)
	if err != nil {
		return err
	}
	stopAux := d.drive(ctx, ph, 0, ops/2)
	stalls := ph.StallsTotal()
	// The crash closes the servers out from under the epoch manager and the
	// still-running readers, then the manager. WAL handles are abandoned:
	// closing them would flush buffered tails and fake a clean shutdown.
	servers := ph.Cluster.NumServers()
	var wg sync.WaitGroup
	for i := 0; i < servers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ph.Cluster.Server(i).Close()
		}()
	}
	wg.Wait()
	stopAux()
	before := ph.Net.(*chaos.Network).Stats()
	ph.Close()

	stores := make([]*mvstore.Store, servers)
	minLast, maxLast := tstamp.MaxEpoch, tstamp.Epoch(0)
	for i := range stores {
		st, last, err := wal.Recover(wal.LogPath(dir, i))
		if err != nil {
			return fmt.Errorf("recover server %d: %w", i, err)
		}
		stores[i], minLast, maxLast = st, min(minLast, last), max(maxLast, last)
	}
	if maxLast == 0 {
		return errors.New("recovery found no committed epoch: the crash tested nothing")
	}
	// Epochs whose commit marker reached only part of the cluster are the
	// gray band: durable on some partitions, rolled back on others. The
	// oracle reclassifies the transactions the crash caught.
	env.Oracle.CrashRecovered(minLast, maxLast)
	if ph, err = build(1, stores, maxLast+1); err != nil {
		return err
	}
	defer ph.Close()
	d.drive(ctx, ph, 1, ops-ops/2)()
	if err := settle(ctx, ph); err != nil {
		return err
	}
	if err := observeFinals(ctx, ph, d.keys); err != nil {
		return err
	}
	env.Logf("%s; 1 crash, recovered at epoch %d (gray band %d); faults: %v before the crash, %v after",
		d.summary(env.Oracle), maxLast, maxLast-minLast, before, ph.Net.(*chaos.Network).Stats())
	if stalls += ph.StallsTotal(); stalls > 0 {
		return fmt.Errorf("watchdog recorded %d stall episode(s)", stalls)
	}
	return nil
}
