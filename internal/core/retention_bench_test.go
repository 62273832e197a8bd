package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
)

// BenchmarkEpochCommitRetention times one epoch switch with retention on,
// 100 keys written per epoch, over stores of two sizes: what a commit costs
// must follow what the epoch wrote, not what the store holds. ns/op is the
// AdvanceEpoch call alone (scripts/commit-guard.sh compares the two).
func BenchmarkEpochCommitRetention(b *testing.B) {
	const perEpoch, retention, warmup = 100, 4, 2 * (4 + 2)
	for _, keys := range []int{1_000, 200_000} {
		b.Run(fmt.Sprintf("keys=%dk", keys/1000), func(b *testing.B) {
			c, err := NewCluster(ClusterConfig{Servers: 1, ManualEpochs: true})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			c.SetRetention(retention)
			names := make([]kv.Key, keys)
			pairs := make([]kv.Pair, keys)
			for i := range names {
				names[i] = kv.Key(fmt.Sprintf("key:%07d", i))
				pairs[i] = kv.Pair{Key: names[i], Value: kv.EncodeInt64(0)}
			}
			if err := c.Load(pairs); err != nil {
				b.Fatal(err)
			}
			if err := c.Start(); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			txns := make([]Txn, perEpoch)
			var switching time.Duration
			// The warm-up epochs take the one pass over the loaded store
			// (the seed filed at Start) out of the measurement.
			for i := -warmup; i < b.N; i++ {
				for j := range txns {
					k := names[((i+warmup)*perEpoch+j)%keys]
					txns[j] = Txn{Writes: []Write{{Key: k, Functor: functor.Add(1)}}}
				}
				if _, _, err := c.Server(0).SubmitBatch(ctx, txns); err != nil {
					b.Fatal(err)
				}
				c.DrainProcessors()
				start := time.Now()
				if _, err := c.AdvanceEpoch(); err != nil {
					b.Fatal(err)
				}
				if i >= 0 {
					switching += time.Since(start)
				}
			}
			b.ReportMetric(float64(switching.Nanoseconds())/float64(b.N), "ns/op")
		})
	}
}
