package catalog

import (
	"time"

	"alohadb/internal/calvin"
	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/placement"
	"alohadb/internal/scenario"
	"alohadb/internal/trace"
	"alohadb/internal/transport"
	"alohadb/internal/workload/tpcc"
	"alohadb/internal/workload/ycsb"
)

// Engine epoch defaults, per §V-A2: ALOHA-DB 25 ms unified epochs, Calvin
// 20 ms sequencer batches.
const (
	AlohaEpoch  = 25 * time.Millisecond
	CalvinEpoch = 20 * time.Millisecond
)

// Simulated data-center network: the paper's testbed is EC2 instances on
// a low-latency network (§III-A); we model a ~200 µs RTT with jitter.
// Injected latency releases the CPU while a message is "in flight", so
// the engines' different abilities to overlap communication — ALOHA-DB
// never holds anything across an RTT, Calvin holds hot locks across its
// read-broadcast exchange — show up exactly as they do on real hardware.
const (
	SimLatency = 100 * time.Microsecond
	SimJitter  = 40 * time.Microsecond
)

// NewAlohaTPCC assembles a started ALOHA-DB cluster loaded with the TPC-C
// database for the configuration. tracer may be nil (tracing off). The
// caller closes the env, which closes the cluster and its mesh.
func NewAlohaTPCC(cfg tpcc.Config, epochDur time.Duration, workers int, tracer *trace.Tracer) (*scenario.Env, error) {
	reg := functor.NewRegistry()
	tpcc.RegisterAlohaHandlers(reg)
	if epochDur <= 0 {
		epochDur = AlohaEpoch
	}
	return scenario.BuildEnv(scenario.EnvConfig{
		Servers:        cfg.Servers,
		NetLatency:     SimLatency,
		NetJitter:      SimJitter,
		EpochDuration:  epochDur,
		Registry:       reg,
		Workers:        workers,
		Router:         placement.NewStatic(cfg.Servers, cfg.Partitioner()),
		DependencyRule: cfg.DependencyRule(),
		Tracer:         tracer,
		Load: func(c *core.Cluster) error {
			return cfg.Load(func(p kv.Pair) error {
				return c.Load([]kv.Pair{p})
			})
		},
	})
}

// NewCalvinTPCC assembles a started Calvin cluster loaded with the TPC-C
// database.
func NewCalvinTPCC(cfg tpcc.Config, epochDur time.Duration, workers int) (*calvin.Cluster, error) {
	procs := calvin.NewProcRegistry()
	tpcc.RegisterCalvinProcs(procs)
	if epochDur <= 0 {
		epochDur = CalvinEpoch
	}
	c, err := calvin.NewCluster(calvin.Config{
		Partitions:    cfg.Servers,
		EpochDuration: epochDur,
		Workers:       workers,
		Partitioner:   calvin.Partitioner(cfg.Partitioner()),
		Procs:         procs,
		Network:       transport.NewMemNetwork(transport.WithLatency(SimLatency, SimJitter)),
	})
	if err != nil {
		return nil, err
	}
	if err := c.Load(cfg.LoadPairs()); err != nil {
		c.Close()
		return nil, err
	}
	if err := c.Start(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// NewAlohaYCSB assembles a started ALOHA-DB cluster for the
// microbenchmark. No preload is needed: ADD functors treat an absent key
// as a zero counter, so untouched keys cost nothing (the paper's 1M-key
// partitions are realized lazily). tracer may be nil (tracing off). The
// caller closes the env, which closes the cluster and its mesh.
func NewAlohaYCSB(cfg ycsb.Config, epochDur time.Duration, workers int, tracer *trace.Tracer) (*scenario.Env, error) {
	if epochDur <= 0 {
		epochDur = AlohaEpoch
	}
	return scenario.BuildEnv(scenario.EnvConfig{
		Servers:       cfg.Partitions,
		NetLatency:    SimLatency,
		NetJitter:     SimJitter,
		EpochDuration: epochDur,
		Workers:       workers,
		Router:        placement.NewStatic(cfg.Partitions, ycsb.Partitioner),
		Tracer:        tracer,
	})
}

// NewCalvinYCSB assembles a started Calvin cluster for the microbenchmark.
func NewCalvinYCSB(cfg ycsb.Config, epochDur time.Duration, workers int) (*calvin.Cluster, error) {
	procs := calvin.NewProcRegistry()
	ycsb.RegisterCalvinProcs(procs)
	if epochDur <= 0 {
		epochDur = CalvinEpoch
	}
	c, err := calvin.NewCluster(calvin.Config{
		Partitions:    cfg.Partitions,
		EpochDuration: epochDur,
		Workers:       workers,
		Partitioner:   calvin.Partitioner(ycsb.Partitioner),
		Procs:         procs,
		Network:       transport.NewMemNetwork(transport.WithLatency(SimLatency, SimJitter)),
	})
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}
