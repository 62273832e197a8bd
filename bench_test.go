// Benchmarks of single engine paths: the built-in f-types (Table I), the
// optimistic dependent-transaction mode and prefix scans. The paper's
// evaluation figures (§V) are the figure-N scenarios of
// `go run ./cmd/aloha-bench run bench` (see EXPERIMENTS.md).
//
//	go test -bench=. -benchmem
package alohadb_test

import (
	"context"
	"testing"
	"time"

	"alohadb"
	"alohadb/internal/core"
	"alohadb/internal/functor"
)

const benchServers = 2

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// BenchmarkTableI exercises the built-in f-types of Table I end to end:
// each iteration installs one functor of each kind; every installed
// functor is computed before the clock stops.
func BenchmarkTableI(b *testing.B) {
	c, err := core.NewCluster(core.ClusterConfig{Servers: 1, EpochDuration: 2 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := core.Txn{Writes: []core.Write{
			{Key: "t:value", Functor: functor.Value([]byte("v"))},
			{Key: "t:add", Functor: functor.Add(1)},
			{Key: "t:sub", Functor: functor.Sub(1)},
			{Key: "t:max", Functor: functor.Max(int64(i))},
			{Key: "t:min", Functor: functor.Min(int64(-i))},
		}}
		if _, err := c.Server(0).Submit(ctx, txn); err != nil {
			b.Fatal(err)
		}
	}
	c.DrainProcessors()
	b.StopTimer()
}

// BenchmarkOCC measures the optimistic dependent-transaction mode
// (§IV-E): snapshot read, validated write, full processing per iteration.
func BenchmarkOCC(b *testing.B) {
	db, err := alohadb.Open(alohadb.Config{
		Servers:       benchServers,
		EpochDuration: 3 * time.Millisecond,
		Preload: func(emit func(alohadb.Pair) error) error {
			return emit(alohadb.Pair{Key: "occ:k", Value: alohadb.EncodeInt64(0)})
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := db.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		h, err := db.Submit(ctx, alohadb.Txn{Writes: []alohadb.Write{
			{Key: "occ:k", Functor: alohadb.OCCWrite(alohadb.EncodeInt64(int64(i)), snap, nil)},
		}})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := h.Await(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanPrefix measures serializable analytic scans over a loaded
// prefix at a committed snapshot.
func BenchmarkScanPrefix(b *testing.B) {
	db, err := alohadb.Open(alohadb.Config{
		Servers:       benchServers,
		EpochDuration: 3 * time.Millisecond,
		Preload: func(emit func(alohadb.Pair) error) error {
			for i := 0; i < 500; i++ {
				if err := emit(alohadb.Pair{
					Key:   alohadb.Key("scan:" + itoa(i%100) + ":" + itoa(i/100)),
					Value: alohadb.EncodeInt64(int64(i)),
				}); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	snap, err := db.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	// Let the snapshot's epoch commit before timing.
	if _, err := db.ScanPrefix(ctx, "scan:", snap); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := db.ScanPrefix(ctx, "scan:", snap)
		if err != nil {
			b.Fatal(err)
		}
		if len(m) != 500 {
			b.Fatalf("scan returned %d keys", len(m))
		}
	}
}
