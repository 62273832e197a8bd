package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"alohadb/internal/epoch"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/metrics"
	"alohadb/internal/mvstore"
	"alohadb/internal/obs"
	"alohadb/internal/placement"
	"alohadb/internal/trace"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

// ClusterConfig configures an embedded ALOHA-DB cluster: N combined FE/BE
// servers plus an epoch manager, wired over an in-memory (default) or
// caller-supplied network.
type ClusterConfig struct {
	// Servers is the number of FE/BE nodes. Required.
	Servers int
	// EpochDuration is the unified epoch length (default 25 ms, §V-A2).
	EpochDuration time.Duration
	// ManualEpochs disables the timer: epochs advance only via
	// AdvanceEpoch. Deterministic tests use this.
	ManualEpochs bool
	// Router is the base key→server placement shared by every server; nil
	// means hash placement. The rebalancer overlays it with epoch-versioned
	// ownership maps at runtime.
	Router placement.Router
	// Registry holds user-defined functor handlers, shared by all servers.
	Registry *functor.Registry
	// Workers is the per-server processor pool size (default
	// max(2, GOMAXPROCS)).
	Workers int
	// Network overrides the transport (default: in-memory, zero latency).
	Network transport.Network
	// NetLatency/NetJitter configure the default in-memory network's
	// simulated one-way delay. Ignored when Network is set.
	NetLatency time.Duration
	NetJitter  time.Duration
	// DurabilityFactory, when set, builds the durability hook for each
	// server: its write-ahead log (wal.Open).
	DurabilityFactory func(serverID int) (DurabilityHook, error)
	// Stores, when set, seeds each server with a pre-populated store
	// (crash recovery). Length must equal Servers.
	Stores []*mvstore.Store
	// StartEpoch is the first served epoch (default 1). Recovery restarts
	// at the epoch after the last durably committed one.
	StartEpoch tstamp.Epoch
	// DependencyRule declares schema-level key dependencies (§IV-E); see
	// ServerConfig.DependencyRule.
	DependencyRule func(k kv.Key) (kv.Key, bool)
	// Tracer, when set, is shared by every server and the epoch manager;
	// spans carry the originating node so one cluster-wide snapshot shows
	// cross-server traces whole. Nil disables tracing.
	Tracer *trace.Tracer
	// SwitchTimeout bounds how long the epoch manager waits for revoke
	// acks before switching anyway (liveness escape hatch for crash-stop
	// scenarios, §III-C); zero waits forever. Fault-injection tests set it
	// so a wedged server cannot stall epochs for the whole cluster.
	SwitchTimeout time.Duration
	// AbortRetries bounds the second-round abort redelivery; see
	// ServerConfig.
	AbortRetries int
	// Skew, when set, is the shared hot-key profiler sampled by every
	// server's install and local-read paths; its families join Metrics().
	// Nil disables profiling (see ServerConfig.Skew).
	Skew *obs.Skew
}

// Cluster is an embedded multi-server ALOHA-DB instance. It is the unit the
// examples, tests, and benchmarks run against; the TCP deployment assembles
// the same pieces across processes (see cmd/aloha-server).
type Cluster struct {
	cfg     ClusterConfig
	net     transport.Network
	ownNet  bool
	servers []*Server
	em      *epoch.Manager
	started bool
	loadSeq []uint32
	// loadFn is the functor a loaded value is logged as, reused across
	// pairs: loads run on one goroutine before Start, and a durability
	// hook encodes what it is handed before it returns.
	loadFn functor.Functor
	// table is the cluster's own routing view (base placement plus newest
	// ownership map); Load and the rebalancer route through it instead of
	// peeking at a server's internals.
	table *placement.Table
	reb   *Rebalancer
}

// NewCluster builds the cluster but does not start epochs; call Load for
// initial data, then Start.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("core: cluster needs at least one server")
	}
	if cfg.Registry == nil {
		cfg.Registry = functor.NewRegistry()
	}
	if cfg.Router == nil {
		cfg.Router = placement.NewStatic(cfg.Servers, nil)
	}
	c := &Cluster{cfg: cfg, loadSeq: make([]uint32, cfg.Servers), table: placement.NewTable(cfg.Router)}
	if cfg.Network != nil {
		c.net = cfg.Network
	} else {
		c.net = transport.NewMemNetwork(transport.WithLatency(cfg.NetLatency, cfg.NetJitter))
		c.ownNet = true
	}
	if cfg.Stores != nil && len(cfg.Stores) != cfg.Servers {
		return nil, fmt.Errorf("core: %d seeded stores for %d servers", len(cfg.Stores), cfg.Servers)
	}
	for i := 0; i < cfg.Servers; i++ {
		var hook DurabilityHook
		if cfg.DurabilityFactory != nil {
			var err error
			hook, err = cfg.DurabilityFactory(i)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("core: durability for server %d: %w", i, err)
			}
		}
		srv, err := NewServer(ServerConfig{
			ID:             i,
			NumServers:     cfg.Servers,
			Router:         cfg.Router,
			Registry:       cfg.Registry,
			Workers:        cfg.Workers,
			Durability:     hook,
			DependencyRule: cfg.DependencyRule,
			Tracer:         cfg.Tracer,
			AbortRetries:   cfg.AbortRetries,
			Skew:           cfg.Skew,
		}, c.net)
		if err != nil {
			c.Close()
			return nil, err
		}
		if cfg.Stores != nil {
			srv.store = cfg.Stores[i]
		}
		c.servers = append(c.servers, srv)
	}
	c.em = epoch.New(epoch.Config{
		Duration:      cfg.EpochDuration,
		SwitchTimeout: cfg.SwitchTimeout,
		StartEpoch:    cfg.StartEpoch,
	})
	// The manager traces as node Servers, matching the TCP address-book
	// convention that places the EM right after the server IDs.
	c.em.SetTracer(cfg.Tracer.ForNode(cfg.Servers))
	for _, srv := range c.servers {
		if err := c.em.Register(srv); err != nil {
			c.Close()
			return nil, err
		}
	}
	c.reb = newRebalancer(c)
	c.em.SetBarrier(c.reb.barrier)
	return c, nil
}

// Load bulk-inserts initial data as epoch-0 VALUE functors, before Start.
// Epoch 0 commits when the cluster starts, making the data visible to every
// epoch-1 transaction.
func (c *Cluster) Load(pairs []kv.Pair) error {
	if c.started {
		return fmt.Errorf("core: Load after Start")
	}
	for _, p := range pairs {
		if err := c.loadOne(p.Key, functor.TypeValue, p.Value, nil); err != nil {
			return err
		}
	}
	return nil
}

// loadOne installs one epoch-0 write of f-type t and argument arg. fn is the
// functor when the caller holds one; a plain value comes without, and a
// durability hook is handed c.loadFn to log it.
func (c *Cluster) loadOne(k kv.Key, t functor.Type, arg []byte, fn *functor.Functor) error {
	// Loads are epoch-0 writes: route them at epoch 0 through the cluster's
	// own table rather than through some server's current-owner view (which
	// would chase post-load moves and used to reach into server internals).
	owner := int(c.table.Route(k, 0))
	srv := c.servers[owner]
	c.loadSeq[owner]++
	ts := tstamp.Make(0, c.loadSeq[owner], uint16(owner))
	if srv.durability != nil {
		if fn == nil {
			c.loadFn = functor.Functor{Type: t, Arg: arg}
			fn = &c.loadFn
		}
		if err := srv.durability.LogInstall(ts, k, fn); err != nil {
			return fmt.Errorf("core: load %q: %w", k, err)
		}
	}
	// A loaded value or tombstone is a write whose outcome is known: loads
	// cannot be aborted by a second round, so it is born final like a
	// deferred write (sparing the first epoch a burst of on-demand computes)
	// and, like one, costs the store no functor and no chain.
	if t == functor.TypeValue || t == functor.TypeDeleted {
		kind, value := deferredOutcome(functor.DependentWrite{Value: arg, Delete: t == functor.TypeDeleted})
		if _, fresh := srv.store.PutFinal(k, ts, kind, value, true); !fresh {
			return fmt.Errorf("core: load %q: %w", k, mvstore.ErrVersionExists)
		}
		return nil
	}
	// Bulk loads seal immediately: epoch 0 commits at Start, and load
	// order is ascending per key, so each seal publishes in place.
	chain, _, err := srv.store.Stage(k, ts, fn)
	if err != nil {
		return fmt.Errorf("core: load %q: %w", k, err)
	}
	chain.Seal(tstamp.End(0))
	return nil
}

// Start commits epoch 0 and begins serving: with ManualEpochs the caller
// drives AdvanceEpoch; otherwise a timer advances epochs every
// EpochDuration.
func (c *Cluster) Start() error {
	if c.started {
		return fmt.Errorf("core: cluster already started")
	}
	c.started = true
	start := c.em.Run
	if c.cfg.ManualEpochs {
		start = c.em.Start
	}
	if err := start(); err != nil {
		return err
	}
	// What the stores held before the first epoch (a bulk load, a recovered
	// log, a checkpoint) was sealed by no commit: file it once.
	for _, srv := range c.servers {
		if srv.retention.Load() != 0 {
			srv.seedRetirement()
		}
	}
	return nil
}

// AdvanceEpoch performs one manual epoch switch.
func (c *Cluster) AdvanceEpoch() (tstamp.Epoch, error) { return c.em.Advance() }

// CurrentEpoch returns the granted epoch.
func (c *Cluster) CurrentEpoch() tstamp.Epoch { return c.em.Current() }

// EpochManager exposes the manager for harness instrumentation.
func (c *Cluster) EpochManager() *epoch.Manager { return c.em }

// Tracer returns the cluster's shared tracer (nil when tracing is off).
func (c *Cluster) Tracer() *trace.Tracer { return c.cfg.Tracer }

// Traces snapshots the recent sampled traces (nil when tracing is off).
func (c *Cluster) Traces() []trace.Trace { return c.cfg.Tracer.Traces() }

// SlowTraces snapshots the slow-captured traces (nil when tracing is off).
func (c *Cluster) SlowTraces() []trace.Trace { return c.cfg.Tracer.SlowTraces() }

// Server returns node i, which acts as a front-end for clients.
func (c *Cluster) Server(i int) *Server { return c.servers[i] }

// NumServers returns the cluster size.
func (c *Cluster) NumServers() int { return len(c.servers) }

// Stats aggregates all servers' counters (flat compatibility view).
func (c *Cluster) Stats() Stats {
	var total Stats
	for _, srv := range c.servers {
		total.Add(srv.Stats())
	}
	return total
}

// Metrics returns the cluster's self-describing metric snapshot: every
// server's families (one series per server, labeled server="i"), the
// epoch manager's switch-duration histogram and current-epoch gauge, and
// the transport's message/byte/latency counters. Families with the same
// name are merged; the result is sorted by name and safe to render with
// metrics.WriteText or to inspect programmatically.
func (c *Cluster) Metrics() []metrics.Family {
	groups := make([][]metrics.Family, 0, len(c.servers)+2)
	for _, srv := range c.servers {
		groups = append(groups, srv.MetricFamilies())
	}
	groups = append(groups, c.em.MetricFamilies())
	if inst, ok := c.net.(transport.Instrumented); ok {
		groups = append(groups, inst.NetMetrics().MetricFamilies())
	}
	if c.cfg.Skew != nil {
		groups = append(groups, c.cfg.Skew.MetricFamilies())
	}
	if c.reb != nil {
		groups = append(groups, c.reb.MetricFamilies())
	}
	return metrics.Merge(groups...)
}

// Rebalancer exposes the cluster's live-migration orchestrator.
func (c *Cluster) Rebalancer() *Rebalancer { return c.reb }

// PlacementTable exposes the cluster-level routing view (base placement
// plus the newest installed ownership map).
func (c *Cluster) PlacementTable() *placement.Table { return c.table }

// DrainProcessors blocks until every server's processor queue is empty.
// Tests and benchmarks use it to establish "all functors computed"
// barriers.
func (c *Cluster) DrainProcessors() {
	for _, srv := range c.servers {
		srv.proc.drainWait()
	}
}

// Close stops epochs, servers, and (if owned) the network.
func (c *Cluster) Close() error {
	if c.em != nil {
		c.em.Stop()
	}
	var firstErr error
	for _, srv := range c.servers {
		if err := srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.ownNet && c.net != nil {
		if err := c.net.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// --- remote epoch manager ---------------------------------------------------

// RemoteParticipant relays the epoch protocol to a server over the
// transport; the EM process registers one per server (TCP deployment).
type RemoteParticipant struct {
	conn transport.Conn
	node transport.NodeID
	acks *ackTable
}

var _ epoch.Participant = (*RemoteParticipant)(nil)

// Grant implements epoch.Participant.
func (p *RemoteParticipant) Grant(e tstamp.Epoch) {
	_ = p.conn.Send(context.Background(), p.node, MsgGrant{E: e})
}

// Revoke implements epoch.Participant.
func (p *RemoteParticipant) Revoke(e tstamp.Epoch, ack func()) {
	p.acks.put(e, p.node, ack)
	_ = p.conn.Send(context.Background(), p.node, MsgRevoke{E: e})
}

// Committed implements epoch.Participant.
func (p *RemoteParticipant) Committed(e tstamp.Epoch) {
	_ = p.conn.Send(context.Background(), p.node, MsgCommitted{E: e})
}

// ackTable holds each node's outstanding revoke ack. Only the newest
// revoke's ack is kept: the manager revokes e+1 only after epoch e's switch
// ended, acked or timed out, so a node that never acks (crashed) costs one
// entry, not one per epoch.
type ackTable struct {
	mu   sync.Mutex
	acks map[transport.NodeID]pendingAck
}

type pendingAck struct {
	e   tstamp.Epoch
	ack func()
}

func newAckTable() *ackTable {
	return &ackTable{acks: make(map[transport.NodeID]pendingAck)}
}

func (t *ackTable) put(e tstamp.Epoch, node transport.NodeID, ack func()) {
	t.mu.Lock()
	t.acks[node] = pendingAck{e: e, ack: ack}
	t.mu.Unlock()
}

// take returns and forgets node's ack for epoch e; nil when the ack is not
// outstanding (a duplicate, or superseded by a newer revoke).
func (t *ackTable) take(e tstamp.Epoch, node transport.NodeID) func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.acks[node]
	if !ok || p.e != e {
		return nil
	}
	delete(t.acks, node)
	return p.ack
}

// EMNode hosts the epoch manager on its own transport node, driving remote
// servers through the message protocol. Used by cmd/aloha-em.
type EMNode struct {
	Manager *epoch.Manager
	conn    transport.Conn
	acks    *ackTable
}

// NewEMNode attaches the epoch manager to the network at nodeID and
// registers a remote participant for every server node listed.
func NewEMNode(net transport.Network, nodeID transport.NodeID, servers []transport.NodeID, cfg epoch.Config) (*EMNode, error) {
	n := &EMNode{Manager: epoch.New(cfg), acks: newAckTable()}
	conn, err := net.Node(nodeID, n.handle)
	if err != nil {
		return nil, err
	}
	n.conn = conn
	for _, sid := range servers {
		p := &RemoteParticipant{conn: conn, node: sid, acks: n.acks}
		if err := n.Manager.Register(p); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return n, nil
}

func (n *EMNode) handle(_ context.Context, from transport.NodeID, msg any) (any, error) {
	switch m := msg.(type) {
	case MsgRevokeAck:
		if fn := n.acks.take(m.E, from); fn != nil {
			fn()
		}
		return nil, nil
	case MsgPing:
		// Stall-capture peer probe (see Server.ProbePeers): the EM reports
		// the epoch it currently grants in both positions.
		e := uint64(n.Manager.Current())
		return MsgPong{Node: int(n.conn.Local()), CommittedEpoch: e, CurrentEpoch: e}, nil
	default:
		return nil, fmt.Errorf("core: epoch manager: unexpected message %T", msg)
	}
}

// Close detaches the EM node.
func (n *EMNode) Close() error {
	n.Manager.Stop()
	return n.conn.Close()
}
