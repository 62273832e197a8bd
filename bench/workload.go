package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/placement"
	"alohadb/internal/transport"
	"alohadb/internal/wal"
	"alohadb/internal/workload/tpcc"
	"alohadb/internal/workload/ycsb"
)

// Load shape shared by every workload. Engine knobs not named here are
// left at their zero value, so a later change of a default is measured
// rather than masked.
const (
	servers       = 2
	epochDuration = 25 * time.Millisecond // fixed; adaptive epochs off
	satBatch      = 16                    // transactions per SubmitBatch in the sat phase
	hashClients   = 4                     // client streams covered by streamHash

	// Injected one-way delay of the in-memory transport (mem workloads).
	memLatency = 100 * time.Microsecond
	memJitter  = 40 * time.Microsecond

	ycsbRetention = 16 // epochs of history ycsb-hot keeps (Cluster.SetRetention)

	// Read rates of the mixed workload's open-loop (lat) phase.
	latGetRate      = 1000 // GetCommitted per second
	latReadManyRate = 20   // ReadMany per second
)

var tpccConfig = tpcc.Config{
	Servers:              servers,
	WarehousesPerServer:  1,
	Items:                20_000,
	CustomersPerDistrict: 600,
	AbortRate:            0.01,
}

var ycsbConfig = ycsb.Config{
	Partitions:      servers,
	KeysPerTxn:      10,
	ContentionIndex: 0.1, // 10 hot keys per partition
	Distributed:     true,
}

// spec is one benchmark workload. Both rates are frozen, so that every
// commit is offered the same work.
//
// latRate is the open-loop write rate of the lat stage: latency is measured
// apart from saturation throughput, at a load the seed commit carries
// without a growing backlog.
//
// satRate sizes the closed-loop work: a repetition of d submits the
// satRate × d transactions the seed commit gets through in about d on a
// fresh cluster. It is an amount of work, not a pace: the clients submit as
// fast as they are acknowledged.
//
// BENCHMARK.json holds each workload's reason (its why names the lat rate).
type spec struct {
	name    string
	latRate int
	satRate int
	ycsb    bool // YCSB-like ADD transactions; otherwise TPC-C
	mix     bool // NewOrder:Payment 1:1 instead of NewOrder only
	tcp     bool // TCP loopback with the binary codec; otherwise the in-memory mesh
	durable bool // one wal.Log per server on the commit path
	reader  bool // one reader on server 0 beside the writers
}

var specs = []*spec{
	{
		name:    "neworder-mem",
		latRate: 1000,
		satRate: 9500,
	},
	{
		name:    "neworder-tcp",
		latRate: 1000,
		satRate: 12000,
		tcp:     true,
	},
	{
		name:    "ycsb-hot",
		latRate: 500,
		satRate: 9000,
		ycsb:    true,
	},
	{
		name:    "mixed-durable-tcp",
		latRate: 1000,
		satRate: 17500,
		mix:     true,
		tcp:     true,
		durable: true,
		reader:  true,
	},
}

func findSpec(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// instance is one built, loaded and started cluster.
type instance struct {
	cluster *core.Cluster
	net     transport.Network
	logs    []*wal.Log
	walDir  string
}

// build assembles the cluster for sp with core.NewCluster, preloads it and
// starts epochs. dir receives the WAL files of a durable workload.
func build(sp *spec, dir string) (*instance, error) {
	in := &instance{walDir: dir}
	if sp.tcp {
		core.RegisterMessages()
		in.net = transport.NewTCPNetwork(map[transport.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	} else {
		in.net = transport.NewMemNetwork(transport.WithLatency(memLatency, memJitter))
	}
	cfg := core.ClusterConfig{
		Servers:       servers,
		EpochDuration: epochDuration,
		Network:       in.net,
	}
	if sp.ycsb {
		cfg.Router = placement.NewStatic(servers, ycsb.Partitioner)
	} else {
		cfg.Registry = functor.NewRegistry()
		tpcc.RegisterAlohaHandlers(cfg.Registry)
		cfg.Router = placement.NewStatic(servers, tpccConfig.Partitioner())
		cfg.DependencyRule = tpccConfig.DependencyRule()
	}
	if sp.durable {
		cfg.DurabilityFactory = func(id int) (core.DurabilityHook, error) {
			l, err := wal.Open(wal.LogPath(dir, id))
			if err != nil {
				return nil, err
			}
			in.logs = append(in.logs, l)
			return l, nil
		}
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		in.close()
		return nil, err
	}
	in.cluster = c
	if sp.ycsb {
		// No preload: ADD treats an absent key as a zero counter.
		c.SetRetention(ycsbRetention)
	} else if err := tpccConfig.Load(func(p kv.Pair) error { return c.Load([]kv.Pair{p}) }); err != nil {
		in.close()
		return nil, err
	}
	if err := c.Start(); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// close stops the cluster, its network and its logs (a clean shutdown: the
// logs are flushed, so recovery afterwards sees every committed epoch).
func (in *instance) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if in.cluster != nil {
		keep(in.cluster.Close())
		in.cluster = nil
	}
	if in.net != nil {
		keep(in.net.Close())
		in.net = nil
	}
	for _, l := range in.logs {
		keep(l.Close())
	}
	in.logs = nil
	return first
}

type opKind uint8

const (
	opYCSB opKind = iota
	opNewOrder
	opPayment
)

// opMeta is what the correctness checks need to know about a transaction.
type opMeta struct {
	kind    opKind
	w, d    int
	amount  int64 // Payment only
	invalid bool  // NewOrder that must abort in phase 1 (unused item)
}

// op is one generated transaction.
type op struct {
	opMeta
	txn core.Txn
}

// newStream returns client's deterministic transaction stream for sp:
// the generator is seeded with seed*1000+client and bound to the server
// the client submits to, which owns its home warehouse (the paper's
// convention, §V-A1: one stock line of each NewOrder is supplied by a
// warehouse on another server).
func newStream(sp *spec, seed int64, client int) (func() op, error) {
	genSeed := seed*1000 + int64(client)
	if sp.ycsb {
		cfg := ycsbConfig
		cfg.Seed = genSeed
		g, err := ycsb.NewGenerator(cfg)
		if err != nil {
			return nil, err
		}
		return func() op { return op{txn: ycsb.Aloha(g.Next()), opMeta: opMeta{kind: opYCSB}} }, nil
	}
	g, err := tpcc.NewGenerator(tpccConfig, client%servers, genSeed)
	if err != nil {
		return nil, err
	}
	payment := false
	return func() op {
		if sp.mix {
			payment = !payment
		}
		if payment {
			p := g.NextPayment()
			return op{txn: tpcc.AlohaPayment(p), opMeta: opMeta{kind: opPayment, w: p.W, d: p.D, amount: p.Amount}}
		}
		no := g.NextNewOrder()
		return op{txn: tpcc.AlohaNewOrder(tpccConfig, no), opMeta: opMeta{kind: opNewOrder, w: no.W, d: no.D, invalid: no.InvalidItem}}
	}, nil
}

// streamHash digests the first n transactions of each of hashClients
// client streams: keys, encoded functors and phase-1 requirements. The same
// seed must give the same digest on every machine and run.
func streamHash(sp *spec, seed int64, n int) (string, error) {
	h := sha256.New()
	var buf []byte
	for client := 0; client < hashClients; client++ {
		next, err := newStream(sp, seed, client)
		if err != nil {
			return "", err
		}
		for i := 0; i < n; i++ {
			o := next()
			buf = buf[:0]
			buf = binary.AppendUvarint(buf, uint64(len(o.txn.Writes)))
			for _, w := range o.txn.Writes {
				buf = binary.AppendUvarint(buf, uint64(len(w.Key)))
				buf = append(buf, w.Key...)
				buf = functor.AppendFunctor(buf, w.Functor)
			}
			buf = binary.AppendUvarint(buf, uint64(len(o.txn.Requires)))
			for _, k := range o.txn.Requires {
				buf = binary.AppendUvarint(buf, uint64(len(k)))
				buf = append(buf, k...)
			}
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// describe states the injected conditions a reader of the output needs to
// interpret the numbers.
func (sp *spec) describe() string {
	s := fmt.Sprintf("%d servers in-process, epoch %v fixed", servers, epochDuration)
	if sp.tcp {
		s += ", TCP loopback, binary codec"
	} else {
		s += fmt.Sprintf(", in-memory mesh with injected one-way delay %v±%v", memLatency, memJitter)
	}
	if sp.durable {
		s += ", wal.Log per server with its default policy (one flush+fsync per committed epoch)"
	}
	if sp.ycsb {
		s += fmt.Sprintf(", retention %d epochs", ycsbRetention)
	}
	return s + fmt.Sprintf("; lat stage open loop at %d txn/s; sat repetitions of %d txn per second of window, each on a fresh cluster", sp.latRate, sp.satRate)
}
