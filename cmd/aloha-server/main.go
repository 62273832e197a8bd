// Command aloha-server runs one ALOHA-DB node (combined front-end and
// back-end) in a multi-process TCP deployment. Start every server plus one
// aloha-em epoch manager, all sharing the same -peers list.
//
// Example three-node cluster on one machine:
//
//	aloha-server -id 0 -peers localhost:7000,localhost:7001,localhost:7002 -em localhost:7100 &
//	aloha-server -id 1 -peers localhost:7000,localhost:7001,localhost:7002 -em localhost:7100 &
//	aloha-server -id 2 -peers localhost:7000,localhost:7001,localhost:7002 -em localhost:7100 &
//	aloha-em -peers localhost:7000,localhost:7001,localhost:7002 -em localhost:7100
//
// Clients connect through aloha-client using the same -peers list.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/obs"
	"alohadb/internal/obs/tsdb"
	"alohadb/internal/placement"
	"alohadb/internal/trace"
	"alohadb/internal/transport"
	"alohadb/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id      = flag.Int("id", 0, "this server's index in the peer list")
		peers   = flag.String("peers", "", "comma-separated server addresses, index-ordered")
		emAddr  = flag.String("em", "", "epoch manager address")
		workers = flag.Int("workers", 0, "functor processor pool size (0 = default)")
		walPath = flag.String("wal", "", "write-ahead log path (empty disables durability)")
		opsAddr = flag.String("metrics-addr", "", "ops HTTP listener (/metrics, /healthz, /debug/obs, /debug/pprof, /debug/traces); empty disables")

		traceSample = flag.Float64("trace-sample", 0, "trace sample rate in [0,1] (0 disables sampling)")
		traceSlow   = flag.Duration("trace-slow", 0, "always capture transactions slower than this (0 disables)")

		placementMap = flag.String("placement-map", "", "JSON ownership map installed at boot (same format as /debug/placement; give every server the same file). Live rebalancing runs through the embedded Rebalancer in single-process clusters; multi-process servers adopt newer maps from WrongOwner responses as they coordinate.")

		stallThreshold = flag.Duration("epoch-stall-threshold", 5*time.Second, "flight recorder stall rule: declare a stall when the committed epoch stops advancing this long (0 turns the rule off)")
		skewSample     = flag.Int("skew-sample", 0, "hot-key profiler: sample every Nth key access (0 disables profiling)")
		skewTopK       = flag.Int("skew-topk", 0, "hot-key profiler: tracked heavy-hitter count (0 = default)")
		walMaxFsyncAge = flag.Duration("wal-fsync-max-age", 0, "readiness: fail /healthz when the last WAL fsync is older than this (0 disables; needs -wal)")

		tsInterval = flag.Duration("timeseries-interval", 500*time.Millisecond, "metrics flight recorder sample interval, served at /debug/timeseries (at most a quarter of -epoch-stall-threshold; must be positive)")
	)
	flag.Parse()
	if *tsInterval <= 0 {
		return fmt.Errorf("aloha-server: -timeseries-interval must be positive, got %s", *tsInterval)
	}

	addrs, emID, err := buildAddressBook(*peers, *emAddr)
	if err != nil {
		return err
	}
	_ = emID
	if *id < 0 || *id >= emID {
		return fmt.Errorf("aloha-server: -id %d out of range for %d peers", *id, emID)
	}

	core.RegisterMessages()
	net := transport.NewTCPNetwork(addrs)
	defer net.Close()

	tracer := trace.New(trace.Config{SampleRate: *traceSample, SlowThreshold: *traceSlow})
	var skew *obs.Skew
	if *skewSample > 0 {
		skew = obs.NewSkew(obs.SkewConfig{SampleEvery: *skewSample, TopK: *skewTopK, Partitions: emID})
	}
	cfg := core.ServerConfig{
		ID:         *id,
		NumServers: emID,
		Registry:   functor.NewRegistry(),
		Workers:    *workers,
		Tracer:     tracer,
		Skew:       skew,
	}
	var walLog *wal.Log
	if *walPath != "" {
		walLog, err = wal.Open(*walPath)
		if err != nil {
			return err
		}
		defer walLog.Close()
		cfg.Durability = walLog
	}
	srv, err := core.NewServer(cfg, net)
	if err != nil {
		return err
	}
	defer srv.Close()

	if *placementMap != "" {
		m, err := placement.LoadMap(*placementMap)
		if err != nil {
			return fmt.Errorf("aloha-server: -placement-map: %w", err)
		}
		srv.PlacementTable().Install(m)
		fmt.Printf("aloha-server %d placement map generation %d (%d moves)\n",
			*id, m.Gen, len(m.Moves))
	}

	// The recorder samples sources the two setters fill, so it is built
	// after them.
	srv.SetQueueDepthSource(net.SendQueueDepths)
	srv.SetMaxQueueDepthSource(net.MaxSendQueueDepth)
	rec := srv.NewRecorder(tsdb.Config{Interval: *tsInterval, StallThreshold: *stallThreshold})
	rec.Start()
	defer rec.Stop()
	fmt.Printf("aloha-server %d listening on %s (epoch manager at %s)\n",
		*id, addrs[transport.NodeID(*id)], *emAddr)

	var ops *http.Server
	if *opsAddr != "" {
		ops = &http.Server{Addr: *opsAddr, Handler: core.OpsHandler(core.Ops{
			Server: srv, Net: net, Recorder: rec, FsyncMaxAge: *walMaxFsyncAge})}
		go func() {
			if err := ops.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "aloha-server: ops listener: %v\n", err)
			}
		}()
		fmt.Printf("aloha-server %d ops endpoint on http://%s/metrics\n", *id, *opsAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	if ops != nil {
		ops.Close()
	}
	return nil
}

// buildAddressBook lays out node IDs: servers 0..n-1, the epoch manager at
// n, clients above.
func buildAddressBook(peers, em string) (map[transport.NodeID]string, int, error) {
	if peers == "" {
		return nil, 0, fmt.Errorf("missing -peers")
	}
	list := strings.Split(peers, ",")
	book := make(map[transport.NodeID]string, len(list)+1)
	for i, addr := range list {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			return nil, 0, fmt.Errorf("empty address at index %d", i)
		}
		book[transport.NodeID(i)] = addr
	}
	if em != "" {
		book[transport.NodeID(len(list))] = strings.TrimSpace(em)
	}
	return book, len(list), nil
}
