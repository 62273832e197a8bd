package catalog

import (
	"context"
	"fmt"
	"time"

	"alohadb/internal/calvin"
	"alohadb/internal/core"
	"alohadb/internal/scenario"
	"alohadb/internal/workload/tpcc"
	"alohadb/internal/workload/ycsb"
)

// scale is a figure run's parameter set: which sweeps to visit and how
// much data to load. Quick shrinks data sizes and point counts so all six
// figures run in minutes on a laptop; full (`run -full`) is the paper's
// (§V-A). Those are the two the CLI reaches; tests shrink the data further.
type scale struct {
	// full selects the paper's sweeps, client counts and 1M-key partitions.
	full bool
	// servers is the cluster size for Figures 6, 7, 9, 10, 11 (paper: 8).
	servers int
	// items and customers set the TPC-C data scale.
	items     int
	customers int
}

var (
	quickScale = scale{servers: 4, items: 2000, customers: 60}
	fullScale  = scale{full: true, servers: 8, items: 100_000, customers: 3000}
)

// figureWorkers is the per-server processing pool of every figure cluster.
// The simulated network's injected latency releases the CPU, so generous
// worker pools let functor computations overlap round trips, as the
// paper's thread-pool processors do.
const figureWorkers = 8

// figureScenario wraps one figure sweep as a bench scenario. The sweep
// prints its text rows to env.Out.
func figureScenario(n, summary string, sweep func(*scenario.Env, scale) ([]Result, error)) *scenario.Scenario {
	return &scenario.Scenario{
		Name:    "figure-" + n,
		Summary: "paper figure " + n + ": " + summary,
		Attrs:   []string{"bench"},
		Timeout: 10 * time.Minute,
		Run: func(ctx context.Context, env *scenario.Env) error {
			sc := quickScale
			if env.Full {
				sc = fullScale
			}
			_, err := sweep(env, sc)
			return err
		},
	}
}

// pointWindow is the measurement window per parameter point: a quarter of
// the scenario window, since the sweeps visit several points per figure
// (`run -window 1600ms` gives the 400 ms points of the quick sweep,
// `-full -window 8s` the paper's 2 s).
func pointWindow(env *scenario.Env) time.Duration {
	d := env.Window / 4
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// streamSeed is the seed base of one parameter point's client streams:
// the run's seed, so that -seed changes every stream and repeated runs
// (§V-A3) draw different transactions, mixed with a salt naming the point
// and engine. Client i draws from base+i.
func streamSeed(env *scenario.Env, salt int) int64 {
	return env.Seed*1_000_003 + int64(salt)
}

func (sc scale) tpccConfig(scaled bool, perHost int) tpcc.Config {
	cfg := tpcc.Config{
		Servers:              sc.servers,
		Scaled:               scaled,
		Items:                sc.items,
		CustomersPerDistrict: sc.customers,
		AbortRate:            0.01,
	}
	if scaled {
		cfg.DistrictsPerServer = perHost
	} else {
		cfg.WarehousesPerServer = perHost
	}
	return cfg
}

// alohaNewOrderStream builds per-client NewOrder generators for ALOHA-DB.
func alohaNewOrderStream(cfg tpcc.Config, seedBase int64) func(client int) func() core.Txn {
	return func(cli int) func() core.Txn {
		g, err := tpcc.NewGenerator(cfg, cli%cfg.Servers, seedBase+int64(cli))
		if err != nil {
			panic(err)
		}
		return func() core.Txn { return tpcc.AlohaNewOrder(cfg, g.NextNewOrder()) }
	}
}

func alohaPaymentStream(cfg tpcc.Config, seedBase int64) func(client int) func() core.Txn {
	return func(cli int) func() core.Txn {
		g, err := tpcc.NewGenerator(cfg, cli%cfg.Servers, seedBase+int64(cli))
		if err != nil {
			panic(err)
		}
		return func() core.Txn { return tpcc.AlohaPayment(g.NextPayment()) }
	}
}

// calvinNewOrderStream builds per-client generators for Calvin. Calvin's
// deterministic design cannot abort, so its stream carries no invalid
// items (§V-A2).
func calvinNewOrderStream(cfg tpcc.Config, seedBase int64) func(client int) func() calvin.Txn {
	cfg.AbortRate = 0
	return func(cli int) func() calvin.Txn {
		g, err := tpcc.NewGenerator(cfg, cli%cfg.Servers, seedBase+int64(cli))
		if err != nil {
			panic(err)
		}
		return func() calvin.Txn { return tpcc.CalvinNewOrder(cfg, g.NextNewOrder()) }
	}
}

func calvinPaymentStream(cfg tpcc.Config, seedBase int64) func(client int) func() calvin.Txn {
	return func(cli int) func() calvin.Txn {
		g, err := tpcc.NewGenerator(cfg, cli%cfg.Servers, seedBase+int64(cli))
		if err != nil {
			panic(err)
		}
		return func() calvin.Txn { return tpcc.CalvinPayment(g.NextPayment()) }
	}
}

// alohaYCSBStream and calvinYCSBStream build per-client microbenchmark
// generators; both engines draw the same stream from the same seed base.
func alohaYCSBStream(cfg ycsb.Config, seedBase int64) func(client int) func() core.Txn {
	return func(cli int) func() core.Txn {
		g, err := ycsb.NewGenerator(withSeed(cfg, seedBase+int64(cli)))
		if err != nil {
			panic(err)
		}
		return func() core.Txn { return ycsb.Aloha(g.Next()) }
	}
}

func calvinYCSBStream(cfg ycsb.Config, seedBase int64) func(client int) func() calvin.Txn {
	return func(cli int) func() calvin.Txn {
		g, err := ycsb.NewGenerator(withSeed(cfg, seedBase+int64(cli)))
		if err != nil {
			panic(err)
		}
		return func() calvin.Txn { return ycsb.Calvin(g.Next()) }
	}
}

func withSeed(cfg ycsb.Config, seed int64) ycsb.Config {
	cfg.Seed = seed
	return cfg
}

// runAlohaTPCC measures one (config, clients) point on ALOHA-DB. sample
// selects the latency-coupled closed loop (Figure 6) vs the saturation
// mode used for peak-throughput figures.
func runAlohaTPCC(env *scenario.Env, cfg tpcc.Config, label string, clients int, sample bool,
	stream func(tpcc.Config, int64) func(int) func() core.Txn) (Result, error) {
	ae, err := NewAlohaTPCC(cfg, 0, figureWorkers, env.Tracer)
	if err != nil {
		return Result{}, err
	}
	defer ae.Close()
	res, err := RunAloha(AlohaRun{
		Cluster:       ae.Cluster,
		NewTxn:        stream(cfg, streamSeed(env, clients*101)),
		Clients:       clients,
		BatchSize:     16,
		Duration:      pointWindow(env),
		SampleLatency: sample,
	})
	res.Label = label
	return res, err
}

// runCalvinTPCC measures one (config, clients) point on Calvin.
func runCalvinTPCC(env *scenario.Env, cfg tpcc.Config, label string, clients int,
	stream func(tpcc.Config, int64) func(int) func() calvin.Txn) (Result, error) {
	c, err := NewCalvinTPCC(cfg, 0, figureWorkers)
	if err != nil {
		return Result{}, err
	}
	defer c.Close()
	res, err := RunCalvin(CalvinRun{
		Cluster:   c,
		NewTxn:    stream(cfg, streamSeed(env, clients*103)),
		Clients:   clients,
		BatchSize: 16,
		Duration:  pointWindow(env),
	})
	res.Label = label
	return res, err
}

// ycsbConfig builds the microbenchmark configuration for a CI point.
func (sc scale) ycsbConfig(ci float64) ycsb.Config {
	keys := 100_000
	if sc.full {
		keys = 1_000_000
	}
	return ycsb.Config{
		Partitions:       sc.servers,
		KeysPerPartition: keys,
		ContentionIndex:  ci,
		Distributed:      sc.servers >= 2,
	}
}

// ycsbPoint is one microbenchmark measurement on both engines.
type ycsbPoint struct {
	ci      float64
	clients int
	window  time.Duration
	// epoch overrides both engines' epoch length (zero: each one's default).
	epoch time.Duration
	// sample and jitter are AlohaRun's SampleLatency and PaceJitter.
	sample bool
	jitter time.Duration
}

// runYCSBPoint measures one contention-index point on both engines.
func runYCSBPoint(env *scenario.Env, sc scale, p ycsbPoint) (Result, Result, error) {
	cfg := sc.ycsbConfig(p.ci)
	seedBase := streamSeed(env, p.clients*107)
	ae, err := NewAlohaYCSB(cfg, p.epoch, figureWorkers, env.Tracer)
	if err != nil {
		return Result{}, Result{}, err
	}
	ares, err := RunAloha(AlohaRun{
		Cluster:       ae.Cluster,
		NewTxn:        alohaYCSBStream(cfg, seedBase),
		Clients:       p.clients,
		BatchSize:     16,
		Duration:      p.window,
		SampleLatency: p.sample,
		PaceJitter:    p.jitter,
	})
	ae.Close()
	if err != nil {
		return Result{}, Result{}, err
	}
	ares.Label = fmt.Sprintf("CI=%g", p.ci)

	cc, err := NewCalvinYCSB(cfg, p.epoch, figureWorkers)
	if err != nil {
		return Result{}, Result{}, err
	}
	cres, err := RunCalvin(CalvinRun{
		Cluster:   cc,
		NewTxn:    calvinYCSBStream(cfg, seedBase),
		Clients:   p.clients,
		BatchSize: 16,
		Duration:  p.window,
	})
	cc.Close()
	if err != nil {
		return Result{}, Result{}, err
	}
	cres.Label = ares.Label
	return ares, cres, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
