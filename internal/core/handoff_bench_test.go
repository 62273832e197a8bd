package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// BenchmarkEpochHandoff times what it costs to get one epoch's functors from
// the commit to computed: one server, N preloaded keys, one single-ADD
// transaction per key installed in batches of 1,000, then the measured
// AdvanceEpoch + DrainProcessors. ns/functor must not depend on N — a queue
// that re-copies what it holds per batch reads four times higher at 256 k
// than at 16 k (scripts/commit-guard.sh compares the two).
func BenchmarkEpochHandoff(b *testing.B) {
	const batch = 1000
	for _, items := range []int{16_000, 256_000} {
		b.Run(fmt.Sprintf("items=%dk", items/1000), func(b *testing.B) {
			c, err := NewCluster(ClusterConfig{Servers: 1, ManualEpochs: true})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			pairs := make([]kv.Pair, items)
			for i := range pairs {
				pairs[i] = kv.Pair{Key: kv.Key(fmt.Sprintf("key:%07d", i)), Value: kv.EncodeInt64(0)}
			}
			if err := c.Load(pairs); err != nil {
				b.Fatal(err)
			}
			if err := c.Start(); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			txns := make([]Txn, batch)
			var handoff time.Duration
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < items; lo += batch {
					for j := range txns {
						txns[j] = Txn{Writes: []Write{{Key: pairs[lo+j].Key, Functor: functor.Add(1)}}}
					}
					if _, _, err := c.Server(0).SubmitBatch(ctx, txns); err != nil {
						b.Fatal(err)
					}
				}
				start := time.Now()
				if _, err := c.AdvanceEpoch(); err != nil {
					b.Fatal(err)
				}
				c.DrainProcessors()
				handoff += time.Since(start)
			}
			b.ReportMetric(float64(handoff.Nanoseconds())/float64(b.N*items), "ns/functor")
		})
	}
}

// BenchmarkHandoffSteadyState pins the hand-off's steady state at zero
// allocations: 4,096 prepared items over 2 shards are buffered as one epoch,
// taken, handed to the workers and drained. After the first rounds every
// chunk and every per-epoch segment slice comes off the processor's free
// list.
func BenchmarkHandoffSteadyState(b *testing.B) {
	const n = 4096
	c, err := NewCluster(ClusterConfig{Servers: 1, ManualEpochs: true, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	s := c.Server(0)
	// The items are written straight into an epoch no commit will take, so the
	// take below stands in for one every round, and sealed here: the first
	// round computes them, which leaves the workers the hand-off alone.
	e := s.CurrentEpoch() + 8
	items := make([]workItem, n)
	for i := range items {
		k := kv.Key(fmt.Sprintf("key:%04d", i))
		chain, rec, err := s.store.Stage(k, tstamp.Make(e, uint32(i+1), 0), functor.Add(1))
		if err != nil {
			b.Fatal(err)
		}
		chain.Seal(tstamp.End(e))
		items[i] = workItem{key: k, chain: chain, rec: rec, installed: time.Now(), shard: s.proc.shardOf(k)}
	}
	round := func() {
		s.bufferWork(items)
		s.proc.handoff(s.epochs.takeBuffered(e))
		s.proc.drainWait()
	}
	round()
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
