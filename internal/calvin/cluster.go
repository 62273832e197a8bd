package calvin

import (
	"context"
	"fmt"
	"sync"
	"time"

	"alohadb/internal/kv"
	"alohadb/internal/transport"
)

// DefaultEpoch is Calvin's sequencer batching interval, 20 ms as
// configured in the paper's evaluation (§V-A2).
const DefaultEpoch = 20 * time.Millisecond

// Config configures a Calvin cluster.
type Config struct {
	// Partitions is the number of partition nodes. Required.
	Partitions int
	// EpochDuration is the sequencer batching interval (default 20 ms).
	EpochDuration time.Duration
	// Workers is the execution pool size per partition (default 4).
	Workers int
	// Partitioner places keys (default: hash).
	Partitioner Partitioner
	// Procs registers the deterministic stored procedures.
	Procs *ProcRegistry
	// Network overrides the transport (default: in-memory).
	Network transport.Network
}

// Handle tracks one submitted transaction to completion on all
// participants.
type Handle struct {
	done       chan struct{}
	issuedAt   time.Time
	finishedAt time.Time
	remaining  int
}

// Done returns a channel closed at completion.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Cluster is an embedded Calvin deployment: N partitions plus a sequencer
// node, mirroring core.Cluster's shape so the benchmark harness drives
// both engines identically.
type Cluster struct {
	cfg        Config
	net        transport.Network
	ownNet     bool
	partitions []*partition
	seq        *sequencer
	started    bool
}

// NewCluster builds the cluster; call Load, then Start.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Partitions <= 0 {
		return nil, fmt.Errorf("calvin: cluster needs at least one partition")
	}
	if cfg.EpochDuration <= 0 {
		cfg.EpochDuration = DefaultEpoch
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Partitioner == nil {
		cfg.Partitioner = hashPartitioner
	}
	if cfg.Procs == nil {
		cfg.Procs = NewProcRegistry()
	}
	c := &Cluster{cfg: cfg}
	if cfg.Network != nil {
		c.net = cfg.Network
	} else {
		c.net = transport.NewMemNetwork()
		c.ownNet = true
	}
	for i := 0; i < cfg.Partitions; i++ {
		p, err := newPartition(i, cfg.Partitions, cfg.Partitioner, cfg.Procs, cfg.Workers, c.net)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.partitions = append(c.partitions, p)
	}
	seq, err := newSequencer(c.net, cfg.Partitions, cfg.EpochDuration)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.seq = seq
	return c, nil
}

// Load bulk-inserts initial data directly into the partitions' stores.
// The cluster must be quiescent (no in-flight transactions).
func (c *Cluster) Load(pairs []kv.Pair) error {
	for _, p := range pairs {
		owner := c.cfg.Partitioner(p.Key, c.cfg.Partitions)
		c.partitions[owner].load(p.Key, p.Value)
	}
	return nil
}

// Start begins sequencing: the sequencer flushes a batch every
// EpochDuration.
func (c *Cluster) Start() error {
	if c.started {
		return fmt.Errorf("calvin: cluster already started")
	}
	c.started = true
	c.seq.run()
	return nil
}

// SubmitMany enqueues a batch of transactions (one RPC to the sequencer,
// matching the batching convention of §V-A2).
func (c *Cluster) SubmitMany(origin int, txns []Txn) ([]*Handle, error) {
	if !c.started {
		return nil, fmt.Errorf("calvin: cluster not started")
	}
	if origin < 0 || origin >= len(c.partitions) {
		return nil, fmt.Errorf("calvin: origin %d out of range", origin)
	}
	p := c.partitions[origin]
	now := time.Now()
	wires := make([]wireTxn, len(txns))
	handles := make([]*Handle, len(txns))
	for i, txn := range txns {
		id := c.seq.nextID(origin)
		participants := c.participantCount(txn)
		h := &Handle{done: make(chan struct{}), issuedAt: now, remaining: participants}
		handles[i] = h
		if participants == 0 {
			h.finishedAt = now
			close(h.done)
		} else {
			p.doneMu.Lock()
			p.pending[id] = h
			p.doneMu.Unlock()
		}
		wires[i] = wireTxn{
			ID:       id,
			Origin:   transport.NodeID(origin),
			ReadSet:  txn.ReadSet,
			WriteSet: txn.WriteSet,
			Proc:     txn.Proc,
			Args:     txn.Args,
			IssuedAt: now,
		}
	}
	c.seq.submit(wires)
	return handles, nil
}

func (c *Cluster) participantCount(txn Txn) int {
	parts := make(map[int]bool)
	for _, k := range txn.ReadSet {
		parts[c.cfg.Partitioner(k, c.cfg.Partitions)] = true
	}
	for _, k := range txn.WriteSet {
		parts[c.cfg.Partitioner(k, c.cfg.Partitions)] = true
	}
	return len(parts)
}

// NumPartitions returns the cluster size.
func (c *Cluster) NumPartitions() int { return len(c.partitions) }

// Get reads a key directly from its partition's store (after transactions
// quiesce; Calvin has no multi-versioning, so there is no snapshot read).
func (c *Cluster) Get(k kv.Key) (kv.Value, bool) {
	p := c.partitions[c.cfg.Partitioner(k, c.cfg.Partitions)]
	p.storeMu.RLock()
	defer p.storeMu.RUnlock()
	v, ok := p.store[k]
	return v, ok
}

// Stats aggregates all partitions' counters.
func (c *Cluster) Stats() Stats {
	var total Stats
	for _, p := range c.partitions {
		total.Add(p.snapshotStats())
	}
	return total
}

// Close shuts the sequencer and partitions down.
func (c *Cluster) Close() error {
	if c.seq != nil {
		c.seq.close()
	}
	for _, p := range c.partitions {
		p.close()
	}
	if c.ownNet && c.net != nil {
		return c.net.Close()
	}
	return nil
}

// sequencer collects submissions and broadcasts one deterministic batch
// per epoch to every partition. A single sequencer node stands in for
// Calvin's replicated per-node sequencers (replication is disabled in the
// paper's evaluation); determinism is preserved because all schedulers see
// the identical order.
type sequencer struct {
	conn  transport.Conn
	parts int
	epoch time.Duration

	mu        sync.Mutex
	buf       []wireTxn
	epochN    uint64
	nextSeq64 uint64
	flushMu   sync.Mutex // serializes batch broadcasts

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	running  bool
}

func newSequencer(net transport.Network, parts int, epoch time.Duration) (*sequencer, error) {
	s := &sequencer{
		parts: parts,
		epoch: epoch,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	conn, err := net.Node(transport.NodeID(parts), s.handle)
	if err != nil {
		return nil, err
	}
	s.conn = conn
	return s, nil
}

// nextID allocates a globally unique transaction ID (origin-tagged).
func (s *sequencer) nextID(origin int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeq64++
	return s.nextSeq64<<8 | uint64(origin&0xff)
}

func (s *sequencer) handle(_ context.Context, from transport.NodeID, msg any) (any, error) {
	m, ok := msg.(MsgSubmit)
	if !ok {
		return nil, fmt.Errorf("calvin: sequencer: unexpected message %T", msg)
	}
	s.mu.Lock()
	s.buf = append(s.buf, m.Txn)
	s.mu.Unlock()
	return nil, nil
}

// submit is the embedded-cluster fast path (no transport hop for the
// sequencer input; the batch broadcast still crosses the transport).
func (s *sequencer) submit(txns []wireTxn) {
	s.mu.Lock()
	s.buf = append(s.buf, txns...)
	s.mu.Unlock()
}

// flush broadcasts the buffered batch to every partition. Delivery is a
// synchronous call per partition so consecutive batches arrive everywhere
// in the same order — the determinism Calvin's correctness rests on.
func (s *sequencer) flush() {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	batch := s.buf
	s.buf = nil
	s.epochN++
	e := s.epochN
	s.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	msg := MsgBatch{Epoch: e, Txns: batch}
	for i := 0; i < s.parts; i++ {
		_, _ = s.conn.Call(context.Background(), transport.NodeID(i), msg)
	}
}

func (s *sequencer) run() {
	s.running = true
	go func() {
		defer close(s.done)
		ticker := time.NewTicker(s.epoch)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				s.flush()
			case <-s.stop:
				return
			}
		}
	}()
}

func (s *sequencer) close() {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.running {
		<-s.done
	}
	s.conn.Close()
}
