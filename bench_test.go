// Benchmarks mirroring the paper's evaluation (§V): one benchmark family
// per figure. Each measures the figure's workload at benchmark-friendly
// scale; the full parameter sweeps with printed rows live in
// cmd/aloha-bench (see EXPERIMENTS.md).
//
//	go test -bench=. -benchmem
package alohadb_test

import (
	"context"
	"testing"
	"time"

	"alohadb"
	"alohadb/internal/calvin"
	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/scenario/catalog"
	"alohadb/internal/workload/tpcc"
	"alohadb/internal/workload/ycsb"
)

const benchServers = 2

func benchTPCCConfig(scaled bool, perHost int) tpcc.Config {
	return tpcc.Config{
		Servers:              benchServers,
		Scaled:               scaled,
		WarehousesPerServer:  perHost,
		DistrictsPerServer:   perHost,
		Items:                1000,
		CustomersPerDistrict: 30,
		AbortRate:            0.01,
	}
}

// benchAlohaTPCC pumps b.N NewOrder transactions through ALOHA-DB.
func benchAlohaTPCC(b *testing.B, cfg tpcc.Config, payment bool) {
	b.Helper()
	c, err := catalog.NewAlohaTPCC(cfg, 5*time.Millisecond, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	g, err := tpcc.NewGenerator(cfg, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	const batch = 16
	txns := make([]core.Txn, batch)
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		for i := range txns {
			if payment {
				txns[i] = tpcc.AlohaPayment(g.NextPayment())
			} else {
				txns[i] = tpcc.AlohaNewOrder(cfg, g.NextNewOrder())
			}
		}
		if _, _, err := c.Server(0).SubmitBatch(ctx, txns); err != nil {
			b.Fatal(err)
		}
	}
	c.DrainProcessors()
	b.StopTimer()
}

// benchCalvinTPCC pumps b.N NewOrder transactions through Calvin.
func benchCalvinTPCC(b *testing.B, cfg tpcc.Config, payment bool) {
	b.Helper()
	c, err := catalog.NewCalvinTPCC(cfg, 5*time.Millisecond, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	gcfg := cfg
	gcfg.AbortRate = 0 // Calvin cannot abort (§V-A2)
	g, err := tpcc.NewGenerator(gcfg, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 16
	txns := make([]calvin.Txn, batch)
	b.ResetTimer()
	var last []*calvin.Handle
	for done := 0; done < b.N; done += batch {
		for i := range txns {
			if payment {
				txns[i] = tpcc.CalvinPayment(g.NextPayment())
			} else {
				txns[i] = tpcc.CalvinNewOrder(gcfg, g.NextNewOrder())
			}
		}
		handles, err := c.SubmitMany(0, txns)
		if err != nil {
			b.Fatal(err)
		}
		last = handles
	}
	for _, h := range last {
		h.Wait()
	}
	b.StopTimer()
}

// BenchmarkFigure6 measures the throughput-vs-latency workload: NewOrder
// under TPC-C and scaled TPC-C on both engines (the figure's four series).
func BenchmarkFigure6(b *testing.B) {
	b.Run("Aloha-TPCC-1W", func(b *testing.B) { benchAlohaTPCC(b, benchTPCCConfig(false, 1), false) })
	b.Run("Aloha-STPCC-1D", func(b *testing.B) { benchAlohaTPCC(b, benchTPCCConfig(true, 1), false) })
	b.Run("Calvin-TPCC-1W", func(b *testing.B) { benchCalvinTPCC(b, benchTPCCConfig(false, 1), false) })
	b.Run("Calvin-STPCC-1D", func(b *testing.B) { benchCalvinTPCC(b, benchTPCCConfig(true, 1), false) })
}

// BenchmarkFigure7 measures the density knob: 1 vs 10 warehouses per host
// for NewOrder and Payment (the figure's contention axis endpoints).
func BenchmarkFigure7(b *testing.B) {
	b.Run("Aloha-NewOrder-1W", func(b *testing.B) { benchAlohaTPCC(b, benchTPCCConfig(false, 1), false) })
	b.Run("Aloha-NewOrder-10W", func(b *testing.B) { benchAlohaTPCC(b, benchTPCCConfig(false, 10), false) })
	b.Run("Aloha-Payment-1W", func(b *testing.B) { benchAlohaTPCC(b, benchTPCCConfig(false, 1), true) })
	b.Run("Calvin-NewOrder-1W", func(b *testing.B) { benchCalvinTPCC(b, benchTPCCConfig(false, 1), false) })
	b.Run("Calvin-NewOrder-10W", func(b *testing.B) { benchCalvinTPCC(b, benchTPCCConfig(false, 10), false) })
	b.Run("Calvin-Payment-1W", func(b *testing.B) { benchCalvinTPCC(b, benchTPCCConfig(false, 1), true) })
}

// BenchmarkFigure8 measures scale-out: the same NewOrder stream on 1, 2,
// and 4 servers.
func BenchmarkFigure8(b *testing.B) {
	for _, servers := range []int{1, 2, 4} {
		cfg := tpcc.Config{
			Servers:              servers,
			WarehousesPerServer:  1,
			Items:                1000,
			CustomersPerDistrict: 30,
			AbortRate:            0.01,
		}
		b.Run("Aloha-"+itoa(servers), func(b *testing.B) { benchAlohaTPCC(b, cfg, false) })
		b.Run("Calvin-"+itoa(servers), func(b *testing.B) { benchCalvinTPCC(b, cfg, false) })
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

func benchYCSBCfg(ci float64) ycsb.Config {
	return ycsb.Config{
		Partitions:       benchServers,
		KeysPerPartition: 100_000,
		ContentionIndex:  ci,
		Distributed:      true,
		Seed:             1,
	}
}

// BenchmarkFigure9 measures the microbenchmark under low, medium, and high
// contention on both engines.
func BenchmarkFigure9(b *testing.B) {
	for _, ci := range []float64{0.0001, 0.01, 0.1} {
		cfg := benchYCSBCfg(ci)
		b.Run("Aloha-CI"+fmtCI(ci), func(b *testing.B) {
			c, err := catalog.NewAlohaYCSB(cfg, 5*time.Millisecond, 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			g, err := ycsb.NewGenerator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			const batch = 16
			txns := make([]core.Txn, batch)
			b.ResetTimer()
			for done := 0; done < b.N; done += batch {
				for i := range txns {
					txns[i] = ycsb.Aloha(g.Next())
				}
				if _, _, err := c.Server(0).SubmitBatch(ctx, txns); err != nil {
					b.Fatal(err)
				}
			}
			c.DrainProcessors()
			b.StopTimer()
		})
		b.Run("Calvin-CI"+fmtCI(ci), func(b *testing.B) {
			c, err := catalog.NewCalvinYCSB(cfg, 5*time.Millisecond, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			g, err := ycsb.NewGenerator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			const batch = 16
			txns := make([]calvin.Txn, batch)
			var last []*calvin.Handle
			b.ResetTimer()
			for done := 0; done < b.N; done += batch {
				for i := range txns {
					txns[i] = ycsb.Calvin(g.Next())
				}
				handles, err := c.SubmitMany(0, txns)
				if err != nil {
					b.Fatal(err)
				}
				last = handles
			}
			for _, h := range last {
				h.Wait()
			}
			b.StopTimer()
		})
	}
}

func fmtCI(ci float64) string {
	switch ci {
	case 0.0001:
		return "0.0001"
	case 0.001:
		return "0.001"
	case 0.01:
		return "0.01"
	case 0.1:
		return "0.1"
	default:
		return "x"
	}
}

// BenchmarkFigure10 measures the full transaction lifecycle (issue to
// functors fully processed) whose stage decomposition the figure reports;
// ns/op is the end-to-end latency the stages partition.
func BenchmarkFigure10(b *testing.B) {
	for _, ci := range []float64{0.0001, 0.1} {
		cfg := benchYCSBCfg(ci)
		b.Run("Aloha-CI"+fmtCI(ci), func(b *testing.B) {
			c, err := catalog.NewAlohaYCSB(cfg, 5*time.Millisecond, 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			g, err := ycsb.NewGenerator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := c.Server(0).Submit(ctx, ycsb.Aloha(g.Next()))
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := h.Await(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure11 measures latency as a function of epoch duration: each
// iteration is one fully processed transaction, so ns/op tracks the mean
// latency the figure plots (slope ~0.5 epochs for ALOHA-DB).
func BenchmarkFigure11(b *testing.B) {
	for _, epochMS := range []int{5, 10, 20} {
		d := time.Duration(epochMS) * time.Millisecond
		cfg := benchYCSBCfg(0.001)
		b.Run("Aloha-epoch"+itoa(epochMS)+"ms", func(b *testing.B) {
			c, err := catalog.NewAlohaYCSB(cfg, d, 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			g, err := ycsb.NewGenerator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := c.Server(0).Submit(ctx, ycsb.Aloha(g.Next()))
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := h.Await(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
