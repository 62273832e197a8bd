package scenario

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"alohadb/internal/chaos/oracle"
	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/obs"
	"alohadb/internal/obs/clusterview"
	"alohadb/internal/obs/tsdb"
	"alohadb/internal/placement"
	"alohadb/internal/trace"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

// EnvConfig declares a scenario's cluster shape. BuildEnv turns it into a
// started cluster plus the observability stack, so no scenario carries a
// hand-rolled cluster builder.
type EnvConfig struct {
	// Servers is the cluster size. Required.
	Servers int
	// Transport selects "mem" (default) or "tcp" (real loopback sockets).
	Transport string
	// NetLatency/NetJitter add simulated one-way delay to the in-memory
	// transport ("mem" only).
	NetLatency time.Duration
	NetJitter  time.Duration
	// WrapNet, when set, decorates the freshly built transport before the
	// cluster attaches — the chaos injector's hook. The wrapped network is
	// what Env.Net exposes, so bodies can reach fault controls through a
	// type assertion without this package importing the chaos package.
	WrapNet func(transport.Network) transport.Network

	// EpochDuration, ManualEpochs, SwitchTimeout: see core.ClusterConfig.
	EpochDuration time.Duration
	ManualEpochs  bool
	SwitchTimeout time.Duration

	// Registry, Router, DependencyRule, Workers, Tracer, AbortRetries,
	// AbortRetryBackoff, Stores, StartEpoch, DurabilityFactory: see
	// core.ClusterConfig.
	AbortRetries      int
	AbortRetryBackoff time.Duration
	Workers           int
	Registry          *functor.Registry
	Router            placement.Router
	DependencyRule    func(k kv.Key) (kv.Key, bool)
	Tracer            *trace.Tracer
	Stores            []*mvstore.Store
	StartEpoch        tstamp.Epoch
	DurabilityFactory func(serverID int) (core.DurabilityHook, error)

	// Retention bounds per-key version history (Cluster.SetRetention);
	// zero keeps the default unbounded chains. Hot-key workloads set it so
	// hour-long soaks don't grow one key's chain without bound.
	Retention int

	// Skew, when set, attaches a shared hot-key profiler (Partitions
	// defaults to Servers).
	Skew *obs.SkewConfig
	// Watchdog attaches one epoch-progress watchdog per server; the
	// runner's zero-stall gate and the /debug/stall endpoint need it.
	Watchdog bool
	// WatchdogThreshold overrides the stall threshold (default 2s; chaos
	// shapes use a larger one so injected faults below the epoch switch
	// timeout never count as stalls).
	WatchdogThreshold time.Duration
	// Ops starts one loopback HTTP ops listener per server — the
	// core.OpsHandler surface aloha-server exposes, /debug/obs included —
	// so clusterview can scrape the env. Implies Watchdog.
	Ops bool

	// Timeseries attaches one metrics flight recorder per server (served
	// at /debug/timeseries when Ops is also set). Implies Watchdog — the
	// recorder's stall source reads it.
	Timeseries bool
	// TimeseriesInterval overrides the recorder sample interval (default
	// 500ms; fault-injection scenarios use a faster clock so short
	// degraded windows clear the detector's baseline).
	TimeseriesInterval time.Duration

	// Load runs between construction and Start, while bulk Load is still
	// legal; scenario preloads (TPC-C tables, account balances) go here.
	Load func(c *core.Cluster) error
}

// Env is the pre-wired world a scenario body runs in.
type Env struct {
	// Name and Seed identify the run; Window, Soak and Full tell the body
	// how long, how hard and at what scale to drive it (see Params).
	Name   string
	Seed   int64
	Window time.Duration
	Soak   bool
	Full   bool

	// Cluster is started and loaded (nil for scenarios that build their
	// own clusters per phase).
	Cluster *core.Cluster
	// Net is the cluster's transport, after WrapNet decoration.
	Net transport.Network
	// Registry is the cluster's handler registry (EnvConfig.Registry, or a
	// fresh one). A body may register handlers on it before it submits work
	// that names them — ones that must close over Oracle, for instance.
	Registry *functor.Registry
	// Skew is the shared profiler (nil unless configured).
	Skew *obs.Skew
	// Watchdogs holds one started watchdog per server (empty unless
	// configured).
	Watchdogs []*obs.Watchdog
	// OpsAddrs lists the per-server ops listener addresses (empty unless
	// Ops was set).
	OpsAddrs []string
	// Recorders holds one started flight recorder per server (empty
	// unless Timeseries was configured).
	Recorders []*tsdb.Recorder
	// Oracle is a fresh history oracle; bodies that run tag-append
	// workloads record into it and the runner reports its verdict (for a
	// nil Shape too, so bodies that build their own clusters use it).
	Oracle *oracle.History
	// Out receives scenario-body reporting (figure rows, progress lines).
	Out io.Writer
	// Tracer is the run's tracer (nil when tracing is off). A shaped env's
	// cluster already carries it; bodies that build their own clusters
	// hand it to them.
	Tracer *trace.Tracer

	httpSrvs []*http.Server
	logf     func(format string, args ...any)
}

// Logf writes one line of run output through the runner's writer.
func (e *Env) Logf(format string, args ...any) {
	if e.logf != nil {
		e.logf(format, args...)
	}
}

// Scraper returns a clusterview scraper over the env's ops listeners.
func (e *Env) Scraper() *clusterview.Scraper {
	return &clusterview.Scraper{Addrs: e.OpsAddrs}
}

// StallsTotal sums stall episodes across every watchdog; the runner gates
// soak and smoke runs on it staying zero.
func (e *Env) StallsTotal() uint64 {
	var n uint64
	for _, wd := range e.Watchdogs {
		n += wd.Status().StallsTotal
	}
	return n
}

// Close tears the env down: recorders, watchdogs, ops listeners, cluster
// and network. Safe to call more than once.
func (e *Env) Close() {
	for _, rec := range e.Recorders {
		rec.Stop()
	}
	e.Recorders = nil
	for _, wd := range e.Watchdogs {
		wd.Stop()
	}
	e.Watchdogs = nil
	for _, hs := range e.httpSrvs {
		hs.Close()
	}
	e.httpSrvs = nil
	if e.Cluster != nil {
		e.Cluster.Close()
		e.Cluster = nil
	}
	if e.Net != nil {
		e.Net.Close()
		e.Net = nil
	}
}

// BuildEnv constructs and starts the declared cluster shape. On success
// the caller owns the env and must Close it.
func BuildEnv(cfg EnvConfig) (*Env, error) {
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("scenario: env needs at least one server")
	}
	env := &Env{Oracle: oracle.New(), Out: io.Discard}

	var inner transport.Network
	switch cfg.Transport {
	case "", "mem":
		inner = transport.NewMemNetwork(transport.WithLatency(cfg.NetLatency, cfg.NetJitter))
	case "tcp":
		core.RegisterMessages()
		addrs := make(map[transport.NodeID]string, cfg.Servers)
		for i := 0; i < cfg.Servers; i++ {
			addrs[transport.NodeID(i)] = "127.0.0.1:0"
		}
		inner = transport.NewTCPNetwork(addrs)
	default:
		return nil, fmt.Errorf("scenario: unknown transport %q", cfg.Transport)
	}
	netw := inner
	if cfg.WrapNet != nil {
		netw = cfg.WrapNet(inner)
	}
	env.Net = netw

	var skew *obs.Skew
	if cfg.Skew != nil {
		sc := *cfg.Skew
		if sc.Partitions == 0 {
			sc.Partitions = cfg.Servers
		}
		skew = obs.NewSkew(sc)
	}
	env.Skew = skew
	env.Registry = cfg.Registry
	if env.Registry == nil {
		env.Registry = functor.NewRegistry()
	}

	c, err := core.NewCluster(core.ClusterConfig{
		Servers:           cfg.Servers,
		EpochDuration:     cfg.EpochDuration,
		ManualEpochs:      cfg.ManualEpochs,
		Router:            cfg.Router,
		Registry:          env.Registry,
		Workers:           cfg.Workers,
		Network:           netw,
		DurabilityFactory: cfg.DurabilityFactory,
		Stores:            cfg.Stores,
		StartEpoch:        cfg.StartEpoch,
		DependencyRule:    cfg.DependencyRule,
		Tracer:            cfg.Tracer,
		SwitchTimeout:     cfg.SwitchTimeout,
		AbortRetries:      cfg.AbortRetries,
		AbortRetryBackoff: cfg.AbortRetryBackoff,
		Skew:              skew,
	})
	if err != nil {
		env.Close()
		return nil, err
	}
	env.Cluster = c
	if cfg.Retention > 0 {
		c.SetRetention(tstamp.Epoch(cfg.Retention))
	}
	if cfg.Load != nil {
		if err := cfg.Load(c); err != nil {
			env.Close()
			return nil, err
		}
	}

	if cfg.Watchdog || cfg.Ops || cfg.Timeseries {
		threshold := cfg.WatchdogThreshold
		if threshold <= 0 {
			threshold = 2 * time.Second
		}
		for i := 0; i < cfg.Servers; i++ {
			wd := c.Server(i).NewWatchdog(obs.WatchdogConfig{Threshold: threshold})
			wd.Start()
			env.Watchdogs = append(env.Watchdogs, wd)
		}
	}
	if cfg.Timeseries {
		// Recorders after watchdogs: the stall source reads the watchdog
		// the setter above installed. The migration gauge is a cluster
		// singleton, attached to server 0 so merged rings don't multiply it.
		for i := 0; i < cfg.Servers; i++ {
			var extra []tsdb.Source
			if i == 0 {
				extra = append(extra, c.MigrationSource())
			}
			rec := c.Server(i).NewRecorder(tsdb.Config{Interval: cfg.TimeseriesInterval}, extra...)
			rec.Start()
			env.Recorders = append(env.Recorders, rec)
		}
	}
	if cfg.Ops {
		if err := env.startOps(c); err != nil {
			env.Close()
			return nil, err
		}
	}

	if err := c.Start(); err != nil {
		env.Close()
		return nil, err
	}
	return env, nil
}

// startOps brings up one loopback ops listener per server serving
// core.OpsHandler, the surface aloha-server's -metrics-addr serves.
func (e *Env) startOps(c *core.Cluster) error {
	e.OpsAddrs = make([]string, c.NumServers())
	for i := range e.OpsAddrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		e.OpsAddrs[i] = ln.Addr().String()
		// The EM is in-process, so every server's document carries its
		// journal mirror (the clusterview merge dedups EM records by epoch).
		ops := core.Ops{Server: c.Server(i), EM: c.EpochManager(), Rebalancer: c.Rebalancer(), Net: e.Net}
		if i < len(e.Recorders) {
			ops.Recorder = e.Recorders[i]
		}
		hs := &http.Server{Handler: core.OpsHandler(ops)}
		e.httpSrvs = append(e.httpSrvs, hs)
		go func() { _ = hs.Serve(ln) }()
	}
	return nil
}

// Quiesce settles the env's cluster: it waits until every server has
// committed the epoch that was current at the call — any transaction
// submitted before drew a timestamp at or below it, so past that frontier
// its effects are visible everywhere — and then drains the functor
// processors. It gives up after 10 s or at ctx's end (a wedged manager).
// Bodies call it before final-state checks.
func (e *Env) Quiesce(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	target := e.Cluster.CurrentEpoch()
	for {
		frontier := tstamp.MaxEpoch
		for i := 0; i < e.Cluster.NumServers(); i++ {
			frontier = min(frontier, e.Cluster.Server(i).CommittedEpoch())
		}
		if frontier >= target {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("scenario: commit frontier stuck at %d, want >= %d: %w", frontier, target, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	e.Cluster.DrainProcessors()
	return nil
}
