package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// ScenarioConfig parameterizes one chaos run: a workload of unique-tag
// append transactions driven against a chaos-wrapped cluster, recorded
// into an oracle.History and checked at the end. Every random choice —
// the fault schedule and the workload — derives from Seed, so a failing
// run replays from its seed alone.
type ScenarioConfig struct {
	Seed int64
	// Servers is the cluster size (default 3).
	Servers int
	// Keys is the number of distinct keys (default 12).
	Keys int
	// Writers and OpsPerWriter size the write load (defaults 6 and 60).
	Writers      int
	OpsPerWriter int
	// Readers is the number of snapshot-reader clients (default 3).
	Readers int
	// EpochDuration shortens epochs so a run crosses many commit
	// boundaries (default 3 ms).
	EpochDuration time.Duration
	// Probabilities overrides the message-level fault mix (default
	// DefaultProbabilities).
	Probabilities *Probabilities
	// LinkChaos adds a goroutine that severs and heals random directed
	// links throughout the run.
	LinkChaos bool
	// Migrate adds a goroutine that live-migrates random workload keys
	// between servers throughout the run, exercising the epoch-fenced
	// placement handoff under the same faults and oracle as everything
	// else.
	Migrate bool
	// Crash runs the workload in two phases with an abrupt cluster crash
	// and WAL recovery in between. Requires Dir.
	Crash bool
	// TCP runs the cluster over real TCP sockets instead of the in-memory
	// transport.
	TCP bool
	// Dir is the WAL directory (required when Crash is set).
	Dir string
}

func (cfg *ScenarioConfig) defaults() {
	if cfg.Servers <= 0 {
		cfg.Servers = 3
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 12
	}
	if cfg.Writers <= 0 {
		cfg.Writers = 6
	}
	if cfg.OpsPerWriter <= 0 {
		cfg.OpsPerWriter = 60
	}
	if cfg.Readers <= 0 {
		cfg.Readers = 3
	}
	if cfg.EpochDuration <= 0 {
		cfg.EpochDuration = 3 * time.Millisecond
	}
}

// Report summarizes one scenario: what the workload did, what the
// injector did to it, and what the oracle concluded.
type Report struct {
	Seed          int64
	Txns          int
	Committed     int
	Aborted       int
	Indeterminate int
	Discarded     int
	Reads         int
	ReadErrors    int
	FinalKeys     int
	// Recomputed counts extra invocations of already-computed functors
	// (legal: at-most-once is an effect guarantee, not an invocation
	// count; concurrent computation and post-crash replay both recompute).
	Recomputed uint64
	// Migrations counts live key moves that completed their handoff
	// mid-workload (Migrate scenarios).
	Migrations int
	Faults     Stats
	Crashes    int
	// GrayEpochs is the width of the recovery gray band: epochs whose
	// commit marker reached only part of the cluster before the crash.
	GrayEpochs int
	Violations []oracle.Violation
}

// OK reports whether the oracle found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %d txns (%d committed, %d aborted, %d indeterminate, %d discarded), %d reads (%d failed), %d recomputed",
		r.Seed, r.Txns, r.Committed, r.Aborted, r.Indeterminate, r.Discarded, r.Reads, r.ReadErrors, r.Recomputed)
	if r.Migrations > 0 {
		fmt.Fprintf(&b, ", %d migrations", r.Migrations)
	}
	if r.Crashes > 0 {
		fmt.Fprintf(&b, ", %d crash (gray band %d)", r.Crashes, r.GrayEpochs)
	}
	fmt.Fprintf(&b, "; faults: %v", r.Faults)
	if r.OK() {
		b.WriteString("; oracle: PASS")
	} else {
		fmt.Fprintf(&b, "; oracle: FAIL (%d violations)", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "\n  %v", v)
		}
	}
	return b.String()
}

// computeCounter wraps the workload handler to witness the at-most-once
// invariant (paper §IV): a functor may be *invoked* more than once — by
// concurrent on-demand readers or post-crash replay — but every
// invocation must produce the identical value, so the resolution CAS
// yields one effect. Divergent results would mean duplicated or
// misordered effects and are reported as violations.
type computeCounter struct {
	mu          sync.Mutex
	invocations map[string]int
	results     map[string]string
	divergent   []string
}

func newComputeCounter() *computeCounter {
	return &computeCounter{invocations: make(map[string]int), results: make(map[string]string)}
}

func (c *computeCounter) wrap(h functor.Handler) functor.Handler {
	return func(fc *functor.Context) (*functor.Resolution, error) {
		res, err := h(fc)
		id := fmt.Sprintf("%s@%d", fc.Key, fc.Version)
		fp := "<error>"
		if err == nil && res != nil {
			fp = string(res.Value)
		}
		c.mu.Lock()
		c.invocations[id]++
		if prev, seen := c.results[id]; seen {
			if prev != fp {
				c.divergent = append(c.divergent, fmt.Sprintf("%s: %q vs %q", id, prev, fp))
			}
		} else {
			c.results[id] = fp
		}
		c.mu.Unlock()
		return res, err
	}
}

func (c *computeCounter) recomputed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for _, inv := range c.invocations {
		if inv > 1 {
			n += uint64(inv - 1)
		}
	}
	return n
}

// appendTags is the workload functor: append this transaction's unique
// tag to the key's previous value. Self-read only, so recomputation is
// deterministic from the key's own chain.
func appendTags(fc *functor.Context) (*functor.Resolution, error) {
	prev := fc.Reads[fc.Key]
	out := make([]byte, 0, len(prev.Value)+len(fc.Arg))
	out = append(out, prev.Value...)
	out = append(out, fc.Arg...)
	return functor.ValueResolution(out), nil
}

func addStats(dst *Stats, s Stats) {
	dst.Calls += s.Calls
	dst.Sends += s.Sends
	dst.DropsCall += s.DropsCall
	dst.DropsResp += s.DropsResp
	dst.DropsSend += s.DropsSend
	dst.Duplicates += s.Duplicates
	dst.Delays += s.Delays
	dst.LinkDenied += s.LinkDenied
}

// RunScenario drives one seeded chaos scenario end to end and returns the
// oracle's verdict. The same seed reproduces the same fault schedule and
// workload decisions.
func RunScenario(cfg ScenarioConfig) (*Report, error) {
	cfg.defaults()
	if cfg.Crash && cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: Crash requires Dir")
	}
	probs := DefaultProbabilities()
	if cfg.Probabilities != nil {
		probs = *cfg.Probabilities
	}
	counter := newComputeCounter()
	reg := functor.NewRegistry()
	reg.MustRegister("chaos-append", counter.wrap(appendTags))
	hist := oracle.New()
	keys := make([]kv.Key, cfg.Keys)
	for i := range keys {
		keys[i] = kv.Key(fmt.Sprintf("ck%02d", i))
	}
	rep := &Report{Seed: cfg.Seed}
	var tagSeq atomic.Int64
	var readErrs atomic.Int64
	var migrations atomic.Int64

	build := func(phase int, stores []*mvstore.Store, start tstamp.Epoch) (*core.Cluster, *Network, error) {
		// The shared env builder owns transport and cluster construction;
		// the injector slots in through the WrapNet hook. The env's own
		// lifecycle helpers go unused on purpose: chaos teardown is
		// explicit (a crash is precisely not an orderly Close).
		var net *Network
		ecfg := scenario.EnvConfig{
			Servers:       cfg.Servers,
			EpochDuration: cfg.EpochDuration,
			Registry:      reg,
			// The abort retry budget bounds submit latency; the switch
			// timeout is only a backstop against a wedged revoke.
			SwitchTimeout:     time.Second,
			AbortRetries:      10,
			AbortRetryBackoff: 2 * time.Millisecond,
			Stores:            stores,
			StartEpoch:        start,
			// Each phase gets a derived sub-seed so the post-crash network
			// has its own (still seed-determined) schedule.
			WrapNet: func(inner transport.Network) transport.Network {
				net = Wrap(inner, Config{Seed: cfg.Seed + int64(phase)*0x9e3779b9, Probabilities: probs, LogCap: -1})
				return net
			},
		}
		if cfg.TCP {
			ecfg.Transport = "tcp"
		}
		if cfg.Crash {
			dir := cfg.Dir
			ecfg.DurabilityFactory = func(id int) (core.DurabilityHook, error) {
				return wal.Open(wal.LogPath(dir, id))
			}
		}
		env, err := scenario.BuildEnv(ecfg)
		if err != nil {
			return nil, nil, err
		}
		return env.Cluster, net, nil
	}

	// runPhase drives writers to completion while readers and the link
	// saboteur run freely, then returns a stopAux that halts and reaps
	// them. The crash path invokes it only after killing the cluster, so
	// readers are genuinely in flight when the servers vanish.
	runPhase := func(c *core.Cluster, net *Network, ops, phase int) (stopAux func()) {
		stop := make(chan struct{})
		var aux sync.WaitGroup
		if cfg.LinkChaos {
			aux.Add(1)
			go func() {
				defer aux.Done()
				rng := rand.New(rand.NewSource(cfg.Seed*104729 + int64(phase)))
				for {
					select {
					case <-stop:
						net.HealAll()
						return
					case <-time.After(time.Duration(2+rng.Intn(20)) * time.Millisecond):
					}
					from := transport.NodeID(rng.Intn(cfg.Servers))
					to := transport.NodeID(rng.Intn(cfg.Servers))
					if from == to {
						continue
					}
					both := rng.Float64() < 0.3
					net.Sever(from, to)
					if both {
						net.Sever(to, from)
					}
					select {
					case <-stop:
						net.HealAll()
						return
					case <-time.After(time.Duration(3+rng.Intn(25)) * time.Millisecond):
					}
					net.Heal(from, to)
					if both {
						net.Heal(to, from)
					}
				}
			}()
		}
		if cfg.Migrate && cfg.Servers > 1 {
			aux.Add(1)
			go func() {
				defer aux.Done()
				rng := rand.New(rand.NewSource(cfg.Seed*31337 + int64(phase)))
				for {
					select {
					case <-stop:
						return
					case <-time.After(time.Duration(8+rng.Intn(16)) * time.Millisecond):
					}
					// Move a random workload key off its current owner; the
					// handoff executes inside the next epoch barrier.
					k := keys[rng.Intn(len(keys))]
					cur := int(c.PlacementTable().Route(k, tstamp.MaxEpoch))
					to := (cur + 1 + rng.Intn(cfg.Servers-1)) % cfg.Servers
					ticket, err := c.Rebalancer().MoveKey(k, to)
					if err != nil {
						continue
					}
					wctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					if _, err := ticket.Wait(wctx); err == nil {
						migrations.Add(1)
					}
					cancel()
				}
			}()
		}
		for r := 0; r < cfg.Readers; r++ {
			aux.Add(1)
			go func(r int) {
				defer aux.Done()
				rng := rand.New(rand.NewSource(cfg.Seed*7919 + int64(1000*phase+r)))
				srv := c.Server(r % cfg.Servers)
				for {
					select {
					case <-stop:
						return
					default:
					}
					time.Sleep(time.Duration(rng.Intn(2500)) * time.Microsecond)
					rkeys := pickKeys(rng, keys, 2+rng.Intn(3))
					// A short timeout: loopback reads are sub-millisecond,
					// and a reader caught by the crash must not pin the
					// run for long.
					rctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
					vals, snap, err := srv.ReadMany(rctx, rkeys)
					cancel()
					if err != nil {
						readErrs.Add(1)
						continue
					}
					hist.Observe(r, snap, rkeys, vals)
				}
			}(r)
		}
		var writers sync.WaitGroup
		for w := 0; w < cfg.Writers; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				rng := rand.New(rand.NewSource(cfg.Seed*1000003 + int64(1000*phase+w)))
				srv := c.Server(w % cfg.Servers)
				for op := 0; op < ops; op++ {
					time.Sleep(time.Duration(rng.Intn(1500)) * time.Microsecond)
					tag := fmt.Sprintf("t%d", tagSeq.Add(1))
					nk := 1
					if rng.Float64() < 0.45 {
						nk = 2
					}
					wkeys := pickKeys(rng, keys, nk)
					txn := core.Txn{}
					for _, k := range wkeys {
						txn.Writes = append(txn.Writes, core.Write{
							Key:     k,
							Functor: functor.User("chaos-append", []byte(tag+";"), nil),
						})
					}
					// Occasionally require a key that can't exist, forcing
					// the second-round abort path under faults.
					if rng.Float64() < 0.06 {
						txn.Requires = []kv.Key{kv.Key("missing-" + tag)}
					}
					hist.Begin(tag, wkeys)
					sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					results, handles, err := srv.SubmitBatch(sctx, []core.Txn{txn})
					switch {
					case err != nil:
						// SubmitBatch fails before any install fan-out
						// (no timestamp assigned): the tag cannot surface.
						hist.Finish(tag, tstamp.Zero, oracle.StatusAborted)
					case results[0].Aborted && results[0].AbortIncomplete:
						hist.Finish(tag, results[0].Version, oracle.StatusIndeterminate)
					case results[0].Aborted:
						hist.Finish(tag, results[0].Version, oracle.StatusAborted)
					default:
						hist.Finish(tag, results[0].Version, oracle.StatusCommitted)
						if rng.Float64() < 0.15 {
							actx, acancel := context.WithTimeout(context.Background(), time.Second)
							_, _, _ = handles[0].Await(actx)
							acancel()
						}
					}
					cancel()
				}
			}(w)
		}
		writers.Wait()
		return func() {
			close(stop)
			aux.Wait()
		}
	}

	// finish quiesces the cluster and records the final per-key values.
	finish := func(c *core.Cluster, net *Network) error {
		net.SetEnabled(false)
		net.HealAll()
		// Wait on the engine's own commit frontier rather than sleeping a
		// guessed number of epoch durations: once every server has
		// committed past the epoch that was current here, all workload
		// writes are visible.
		if err := scenario.WaitCommitted(c, 10*time.Second); err != nil {
			return err
		}
		c.DrainProcessors()
		for _, k := range keys {
			var (
				v     kv.Value
				found bool
				err   error
			)
			for attempt := 0; attempt < 5; attempt++ {
				fctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				v, found, err = c.Server(0).Get(fctx, k)
				cancel()
				if err == nil {
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			if err != nil {
				return fmt.Errorf("chaos: final read of %q: %w", k, err)
			}
			hist.ObserveFinal(k, v, found)
		}
		return nil
	}

	c, net, err := build(0, nil, 0)
	if err != nil {
		return nil, err
	}
	if cfg.Crash {
		half := cfg.OpsPerWriter / 2
		stopAux := runPhase(c, net, half, 0)
		// Abrupt crash: close the servers out from under the epoch
		// manager and the still-running readers, then stop the manager.
		// WAL handles are abandoned, not closed — Close would flush
		// buffered tails and fake a clean shutdown. The final epoch's
		// transactions typically die uncommitted here; the oracle
		// reclassifies them from the recovered marker bounds.
		rep.Crashes++
		crashClose(c)
		stopAux()
		addStats(&rep.Faults, net.Stats())
		net.Close()
		stores := make([]*mvstore.Store, cfg.Servers)
		minLast, maxLast := tstamp.Epoch(0), tstamp.Epoch(0)
		for i := range stores {
			st, last, err := wal.Recover(wal.LogPath(cfg.Dir, i))
			if err != nil {
				return nil, fmt.Errorf("chaos: recover server %d: %w", i, err)
			}
			stores[i] = st
			if i == 0 || last < minLast {
				minLast = last
			}
			if last > maxLast {
				maxLast = last
			}
		}
		// Epochs whose marker reached only part of the cluster are the
		// gray band: durable on some partitions, rolled back on others.
		hist.CrashRecovered(minLast, maxLast)
		rep.GrayEpochs = int(maxLast - minLast)
		c2, net2, err := build(1, stores, maxLast+1)
		if err != nil {
			return nil, err
		}
		runPhase(c2, net2, cfg.OpsPerWriter-half, 1)()
		if err := finish(c2, net2); err != nil {
			c2.Close()
			net2.Close()
			return nil, err
		}
		c2.Close()
		addStats(&rep.Faults, net2.Stats())
		net2.Close()
	} else {
		runPhase(c, net, cfg.OpsPerWriter, 0)()
		if err := finish(c, net); err != nil {
			c.Close()
			net.Close()
			return nil, err
		}
		c.Close()
		addStats(&rep.Faults, net.Stats())
		net.Close()
	}

	rep.Violations = hist.Check()
	counter.mu.Lock()
	for _, d := range counter.divergent {
		rep.Violations = append(rep.Violations, oracle.Violation{
			Kind:   "nondeterministic-compute",
			Detail: d,
		})
	}
	counter.mu.Unlock()
	rep.Recomputed = counter.recomputed()
	total, committed, aborted, indeterminate, discarded := hist.Counts()
	rep.Txns = total
	rep.Committed = committed
	rep.Aborted = aborted
	rep.Indeterminate = indeterminate
	rep.Discarded = discarded
	rep.Reads = hist.Reads()
	rep.ReadErrors = int(readErrs.Load())
	rep.Migrations = int(migrations.Load())
	rep.FinalKeys = len(keys)
	return rep, nil
}

// crashClose kills the servers first — out from under the epoch manager
// and any in-flight work — then stops the manager. Cluster.Close would do
// the reverse (an orderly drain), which is exactly what a crash isn't.
func crashClose(c *core.Cluster) {
	var wg sync.WaitGroup
	for i := 0; i < c.NumServers(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = c.Server(i).Close()
		}(i)
	}
	wg.Wait()
	_ = c.Close()
}

// pickKeys samples n distinct keys.
func pickKeys(rng *rand.Rand, keys []kv.Key, n int) []kv.Key {
	if n >= len(keys) {
		n = len(keys)
	}
	idx := rng.Perm(len(keys))[:n]
	out := make([]kv.Key, n)
	for i, j := range idx {
		out[i] = keys[j]
	}
	return out
}
