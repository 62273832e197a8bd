package core

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/metrics"
	"alohadb/internal/mvstore"
	"alohadb/internal/obs"
	"alohadb/internal/obs/journal"
	"alohadb/internal/obs/tsdb"
	"alohadb/internal/placement"
	"alohadb/internal/trace"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

// ServerConfig configures one combined FE/BE server.
type ServerConfig struct {
	// ID is the server's index in 0..NumServers-1; it doubles as the
	// transport node ID and the timestamp server field.
	ID int
	// NumServers is the cluster size.
	NumServers int
	// Router is the base key→server placement; nil means hash placement
	// (placement.NewStatic(NumServers, nil)). Workloads provide their own
	// (TPC-C partitions by warehouse, scaled TPC-C by item/district). The
	// server overlays it with the epoch-versioned ownership maps installed
	// by the rebalancer.
	Router placement.Router
	// Registry resolves user-defined functor handlers.
	Registry *functor.Registry
	// Workers sets the processor pool size; 0 scales with the machine:
	// max(2, GOMAXPROCS). Work is sharded across workers by key hash, so
	// more workers means more keys computing concurrently (the paper's
	// §IV-C thread pool at multi-core scale). A negative value disables
	// asynchronous processing entirely so that tests can exercise the
	// on-demand (read-triggered) computation path deterministically.
	Workers int
	// Durability, when set, receives the server's durable-state stream
	// (installs, second-round aborts, epoch commits). internal/wal's Log
	// implements it. Fault tolerance is disabled by default, following the
	// paper's evaluation convention (§V-A2).
	Durability DurabilityHook
	// DependencyRule declares schema-level key dependencies for dependent
	// transactions (§IV-E): if it maps key k to a determinate key A, every
	// read of k at timestamp ts first forces A's value watermark to ts,
	// guaranteeing all deferred writes to k have been applied. TPC-C maps
	// order/new-order/order-line rows to their district's next-order-id
	// key this way. Nil disables the mechanism.
	DependencyRule func(k kv.Key) (kv.Key, bool)
	// Tracer, when set, records per-transaction lifecycle spans. Nil (the
	// default) disables tracing at zero per-operation cost.
	Tracer *trace.Tracer
	// AbortRetries bounds how many times a second-round abort message is
	// redelivered when its call fails (default 4). The coordinator holds
	// the transaction's in-flight epoch slot across the retries, so a
	// transiently unreachable partition usually acknowledges the rollback
	// before the epoch commits; when the budget is exhausted the result is
	// flagged AbortIncomplete instead of silently dropped.
	AbortRetries int
	// Skew, when set, samples per-key accesses on the install and local
	// read paths into the hot-key profiler (internal/obs). Nil (the
	// default) disables profiling at zero per-operation cost, the same
	// contract as Tracer.
	Skew *obs.Skew
}

// DurabilityHook receives one server's durable-state stream. Installs and
// aborts may arrive concurrently; LogEpochCommitted(e) is ordered after
// every install and abort of epoch e (the epoch-switch protocol guarantees
// this), making the epoch the atomic durability unit.
type DurabilityHook interface {
	// LogInstall records one installed key-functor pair.
	LogInstall(version tstamp.Timestamp, key kv.Key, fn *functor.Functor) error
	// LogAbort records a second-round abort of the given keys.
	LogAbort(version tstamp.Timestamp, keys []kv.Key) error
	// LogEpochCommitted records that epoch e is fully committed; the hook
	// makes everything up to e durable before it returns. ctx is the
	// server's lifetime context carrying the epoch-commit trace: the call
	// shows up as a span under the server's epoch.commit trace, and the
	// epoch journal times it as the fsync stage.
	LogEpochCommitted(ctx context.Context, e tstamp.Epoch) error
	// LastSyncAge reports the time since everything logged last reached
	// disk; ok is false before the first time. Stall snapshots, the flight
	// recorder and the readiness probe read it.
	LastSyncAge() (age time.Duration, ok bool)
}

// Server is one ALOHA-DB node: a front-end (transaction coordinator) and a
// back-end (one partition of the multi-version store plus the functor
// processor) co-located in one process, as in the paper's deployment.
type Server struct {
	id         int
	n          int
	table      *placement.Table
	registry   *functor.Registry
	store      *mvstore.Store
	gen        *tstamp.Generator
	conn       transport.Conn
	proc       *processor
	stats      serverStats
	durability DurabilityHook
	depRule    func(k kv.Key) (kv.Key, bool)
	tr         *trace.NodeTracer // nil when tracing is disabled
	comb       *combiner         // per-owner remote fetch batcher
	skew       *obs.Skew         // nil when hot-key profiling is disabled
	journal    *journal.Journal  // per-epoch lifecycle journal, always on
	// rec is the flight recorder NewRecorder built, nil before; atomic
	// because a running server may commit epochs while it is built.
	rec atomic.Pointer[tsdb.Recorder]

	// queueDepths, when set, reports per-peer transport send-queue depths
	// for stall snapshots (see SetQueueDepthSource).
	queueDepths func() map[transport.NodeID]int
	// maxQueueDepth, when set, reports the deepest outbound send queue
	// without allocating, for the flight recorder's per-tick sample (see
	// SetMaxQueueDepthSource).
	maxQueueDepth func() int

	// Second-round abort redelivery budget (see ServerConfig.AbortRetries).
	abortRetries int

	// epochs is the server's epoch lifecycle: admission, buffered installs,
	// retire lists and the commit frontier under one lock (epochs.go).
	epochs *epochTable

	// Migration state. moveMu interlocks installs against the barrier-time
	// range seal: installs hold the read side across the ownership check and
	// store Puts, the rebalancer's seal takes the write side, so after a
	// seal returns no install that passed the old fence can still be
	// mid-Put when the range is exported. sealedRanges (guarded by moveMu)
	// lists ranges currently being handed off; installs touching them get a
	// retriable WrongOwner rejection.
	moveMu       sync.RWMutex
	sealedRanges []placement.Range
	// abortStash holds second-round aborts that arrived (forwarded from the
	// old owner) before the range import delivered their records; the import
	// interlocks with handleAbort under stashMu and applies them. Entries
	// evict when their epoch commits.
	stashMu    sync.Mutex
	abortStash map[tstamp.Timestamp][]kv.Key

	// pushCache holds proactively pushed values keyed by (version, key).
	pushMu    sync.Mutex
	pushCache map[pushKey]functor.Read

	// computedMu/computedCh broadcast "some functor finished computing",
	// waking WaitComputed waiters; computedWaiters gates the broadcast so
	// the hot compute path pays nothing when nobody waits.
	computedMu      sync.Mutex
	computedCh      chan struct{}
	computedWaiters atomic.Int32

	// retention is the history horizon in epochs (0 = keep everything); the
	// epoch table's retire lists hold the chains each recent epoch wrote
	// (see retention.go).
	retention atomic.Uint32

	// ctx is cancelled on Close, releasing blocked remote calls/waiters.
	ctx    context.Context
	cancel context.CancelFunc
	closed atomic.Bool
}

type pushKey struct {
	version tstamp.Timestamp
	key     kv.Key
}

// NewServer constructs a server and attaches it to the network.
func NewServer(cfg ServerConfig, net transport.Network) (*Server, error) {
	if cfg.NumServers <= 0 {
		return nil, fmt.Errorf("core: NumServers must be positive")
	}
	if cfg.ID < 0 || cfg.ID >= cfg.NumServers {
		return nil, fmt.Errorf("core: server ID %d out of range [0,%d)", cfg.ID, cfg.NumServers)
	}
	if cfg.Registry == nil {
		cfg.Registry = functor.NewRegistry()
	}
	if cfg.Router == nil {
		cfg.Router = placement.NewStatic(cfg.NumServers, nil)
	}
	switch {
	case cfg.Workers == 0:
		cfg.Workers = defaultWorkers()
	case cfg.Workers < 0:
		cfg.Workers = 0
	}
	if cfg.AbortRetries <= 0 {
		cfg.AbortRetries = 4
	}
	s := &Server{
		id:         cfg.ID,
		n:          cfg.NumServers,
		table:      placement.NewTable(cfg.Router),
		registry:   cfg.Registry,
		store:      mvstore.New(),
		gen:        tstamp.NewGenerator(uint16(cfg.ID)),
		abortStash: make(map[tstamp.Timestamp][]kv.Key),
		pushCache:  make(map[pushKey]functor.Read),
		computedCh: make(chan struct{}),
		durability: cfg.Durability,
		depRule:    cfg.DependencyRule,
		tr:         cfg.Tracer.ForNode(cfg.ID),
		skew:       cfg.Skew,
		journal:    journal.New(cfg.ID),

		abortRetries: cfg.AbortRetries,
	}
	s.stats.init()
	s.comb = newCombiner(s)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	conn, err := net.Node(transport.NodeID(cfg.ID), s.handleMessage)
	if err != nil {
		return nil, fmt.Errorf("core: attach server %d: %w", cfg.ID, err)
	}
	s.conn = conn
	s.proc = newProcessor(s, cfg.Workers)
	s.epochs = newEpochTable(s.gen, s.proc)
	return s, nil
}

// Owner returns the server index currently owning key k under this
// server's routing table (base placement plus the newest ownership map).
func (s *Server) Owner(k kv.Key) int { return s.owner(k) }

// PlacementTable exposes the server's routing table (tests, diagnostics,
// and the rebalancer's direct-call path).
func (s *Server) PlacementTable() *placement.Table { return s.table }

// Stats returns a flat snapshot of the server's counters (compatibility
// view; MetricFamilies carries the full distributions).
func (s *Server) Stats() Stats { return s.stats.snapshot() }

// MetricFamilies returns the server's self-describing metric snapshot:
// engine counters, Figure-10 stage histograms, epoch distributions, and —
// when the durability hook exposes metrics (internal/wal does) — the WAL
// families. Every series is tagged with this server's id.
func (s *Server) MetricFamilies() []metrics.Family {
	fams := s.stats.families()
	// Epoch-position gauges let a cluster scraper compute the minimum
	// sealed epoch across owners without the debug endpoints.
	fams = append(fams,
		metrics.Family{
			Name: FamCommittedEpoch, Help: "Last epoch whose versions are visible on this server.",
			Kind:   metrics.KindGauge,
			Series: []metrics.Series{metrics.GaugeSeries(int64(s.CommittedEpoch()))},
		},
		metrics.Family{
			Name: FamServerEpoch, Help: "Epoch this server currently issues timestamps in.",
			Kind:   metrics.KindGauge,
			Series: []metrics.Series{metrics.GaugeSeries(int64(s.gen.Epoch()))},
		},
		metrics.Family{
			Name: FamPlacementGen, Help: "Generation of the newest installed ownership map.",
			Kind:   metrics.KindGauge,
			Series: []metrics.Series{metrics.GaugeSeries(int64(s.table.Generation()))},
		})
	// How much of the store is still rows: what a change in the store's
	// cost to the collector is explained by first.
	st := s.store.Stats()
	fams = append(fams,
		metrics.Family{
			Name: FamStoreKeys, Help: "Keys in this partition's store by tier: row (one final version, no heap object) or chain.",
			Kind: metrics.KindGauge,
			Series: []metrics.Series{
				metrics.GaugeSeries(int64(st.Rows), metrics.Label{Key: "tier", Value: "row"}),
				metrics.GaugeSeries(int64(st.Chains), metrics.Label{Key: "tier", Value: "chain"}),
			},
		},
		metrics.Family{
			Name: FamStoreRowBytes, Help: "Bytes in the store's row logs, entries of dropped and folded keys included (not reclaimed).",
			Kind:   metrics.KindGauge,
			Series: []metrics.Series{metrics.GaugeSeries(st.RowBytes)},
		},
		metrics.Family{
			Name: FamStoreThaws, Help: "Rows and histories turned into chains because something wrote the key or needed its chain.",
			Kind:   metrics.KindCounter,
			Series: []metrics.Series{metrics.CounterSeries(st.Thaws)},
		},
		metrics.Family{
			Name: FamStoreFolds, Help: "Chains turned into rows or histories because every version of theirs was final and below the watermark.",
			Kind:   metrics.KindCounter,
			Series: []metrics.Series{metrics.CounterSeries(st.Folds)},
		},
		metrics.Family{
			Name: FamStoreFrozen, Help: "Versions below the watermark held in frozen runs, chains' and histories', as bytes rather than records.",
			Kind:   metrics.KindGauge,
			Series: []metrics.Series{metrics.GaugeSeries(st.FrozenVersions)},
		},
		metrics.Family{
			Name: FamStoreFrozenBytes, Help: "Bytes the frozen runs' live versions take.",
			Kind:   metrics.KindGauge,
			Series: []metrics.Series{metrics.GaugeSeries(st.FrozenBytes)},
		},
		metrics.Family{
			Name: FamStoreHistories, Help: "Keys held as a history: a settled history of more than a row holds, one frozen run and no chain.",
			Kind:   metrics.KindGauge,
			Series: []metrics.Series{metrics.GaugeSeries(int64(st.Histories))},
		})
	if src, ok := s.durability.(interface{ MetricFamilies() []metrics.Family }); ok {
		fams = append(fams, src.MetricFamilies()...)
	}
	fams = append(fams, s.journal.MetricFamilies()...)
	return metrics.WithLabel(fams, "server", strconv.Itoa(s.id))
}

// Store exposes the partition's multi-version store to tests and tools.
func (s *Server) Store() *mvstore.Store { return s.store }

// Close stops the processor and detaches from the network.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.cancel()
	s.proc.stop()
	return s.conn.Close()
}

// engineCtx returns the context for engine-internal remote calls and waits
// reached from ctx: the server's lifetime context (so Close, not the
// original caller, unblocks them) carrying ctx's trace. Untraced contexts
// return s.ctx unchanged — no allocation.
func (s *Server) engineCtx(ctx context.Context) context.Context {
	return trace.Detach(s.ctx, ctx)
}

// owner returns the server index currently owning key k: routing at
// MaxEpoch sees every installed move, which is the right placement for
// reads, ensures, pushes, and scans — they always target the live owner.
func (s *Server) owner(k kv.Key) int { return int(s.table.Route(k, tstamp.MaxEpoch)) }

// ownerAt returns the owner of k for a version in epoch e. Installs and
// second-round aborts route here: a transaction of the sealing epoch still
// belongs to the old owner while the next epoch's writes go to the new one
// (the move's From-epoch fence).
func (s *Server) ownerAt(k kv.Key, e tstamp.Epoch) int { return int(s.table.Route(k, e)) }

// --- epoch.Participant ---------------------------------------------------

// Grant implements epoch.Participant: the server may start transactions in
// epoch e. It is a no-op if the straggler path already targeted e.
func (s *Server) Grant(e tstamp.Epoch) { s.epochs.grant(e) }

// Revoke implements epoch.Participant: switch the generator to straggler
// mode in e+1 and ack once no reservation of e is open — at once, or from
// the release that closes the last one.
func (s *Server) Revoke(e tstamp.Epoch, ack func()) {
	s.journal.AckWaitStart(uint64(e), time.Now())
	if ack = s.epochs.revoke(e, ack); ack != nil {
		s.sendAck(e, ack)
	}
}

// Committed implements epoch.Participant: every epoch up to e becomes
// visible and its buffered functor metadata flows to the processor. One
// commit turn runs at a time; a Committed that arrives during one raises
// its target, and a duplicate or an older one changes nothing. So a lost or
// reordered Committed neither strands an epoch's installs nor publishes an
// epoch before the ones below it are sealed.
func (s *Server) Committed(e tstamp.Epoch) {
	from, turn, ok := s.epochs.commit(e)
	// An ack still parked is dropped with the epoch's record: the switch
	// went on without it (SwitchTimeout), and the journal ends its ack wait
	// at the Committed receipt. An epoch whose own Committed was lost is
	// received with this one.
	for now, c := time.Now(), from; c <= e; c++ {
		s.journal.CommittedRecv(uint64(c), now)
	}
	for ; ok; turn, ok = s.epochs.next() {
		if !s.commitTurn(turn) {
			return
		}
	}
}

// commitTurn seals, logs, publishes and hands off one turn's epochs, and
// reports false if the durable marker failed.
func (s *Server) commitTurn(turn commitTurn) bool {
	e := turn.e
	s.stats.txnsPerEpoch.Observe(int64(turn.txns))
	// Each server's commit work is its own trace root: the manager-side
	// epoch.switch span cannot parent it without widening the Participant
	// interface, and the commit path (durability flush + seal + hand-off) is
	// interesting in isolation.
	ctx, commitSpan := s.tr.StartRoot(s.ctx, "epoch.commit")
	commitSpan.SetAttrInt("epoch", int64(e))
	defer commitSpan.End()
	// Seal the epochs' versions (in-epoch -> out-epoch, Figure 4) before
	// advancing visibility: a reader that wakes on the visibility broadcast
	// must find every version of the epoch already reachable. A key written
	// twice in the epoch is sealed twice; the second finds nothing staged.
	segs := turn.segs
	now := time.Now()
	var slow *workItem
	var slowWait time.Duration
	retaining := s.retention.Load() != 0
	var sealed []kv.Key
	items := 0
	for i := range segs {
		items += segs[i].n
		segs[i].each(0, func(it *workItem) {
			if it.chain.Seal(tstamp.End(e)) > 0 && retaining {
				sealed = append(sealed, it.key)
			}
			if !it.installed.IsZero() {
				if w := now.Sub(it.installed); slow == nil || w > slowWait {
					slow, slowWait = it, w
				}
			}
		})
	}
	s.sealedIn(e, sealed...)
	// Each epoch the turn covers is stamped; its functors count at the newest.
	sealDone := time.Now()
	for c := turn.from; c < e; c++ {
		s.journal.SealDone(uint64(c), sealDone, 0)
	}
	s.journal.SealDone(uint64(e), sealDone, items)
	if slow != nil {
		// The functor that waited longest between install and commit: the
		// journal's pointer at what dragged the epoch (a stuck dependent
		// txn, a hot key, a lagging owner). Read before the hand-off: the
		// item is the worker's after it.
		ftype := ""
		if slow.rec.Functor != nil {
			ftype = slow.rec.Functor.Type.String()
		}
		s.journal.Slowest(uint64(e), string(slow.key), ftype, slowWait, uint64(slow.sc.Trace))
	}
	if s.durability != nil {
		// One marker covers every epoch of the turn: recovery takes the
		// highest marker as the frontier.
		dctx, dspan := s.tr.Start(ctx, "wal.commit")
		dstart := time.Now()
		if err := s.durability.LogEpochCommitted(dctx, e); err != nil {
			// Recovery rolls back an epoch without its marker, so publishing
			// e would make observable what is not recoverable. A log's write
			// error is sticky, so no later marker can succeed either: the
			// server stops committing here, and the flight recorder's stall
			// rule names the frozen frontier.
			s.epochs.fail(turn)
			dspan.End()
			log.Printf("core: server %d: epoch %d commit marker: %v; no later epoch becomes visible", s.id, e, err)
			return false
		}
		for d, c := time.Since(dstart), turn.from; c <= e; c++ {
			s.journal.Durable(uint64(c), d)
		}
		dspan.End()
	}
	// Advance visibility to End(e) — after the seal and after the durable
	// marker, so observable implies recoverable: a crash right after a
	// reader saw epoch e can never roll e back (§III-B's atomic visibility
	// extended to the durability boundary).
	s.epochs.publish(e)
	// Finalize after visibility published, stamping the interference
	// markers sampled at this instant: migration range seals in force and
	// whether a stall episode is open.
	s.moveMu.RLock()
	migSeals := len(s.sealedRanges)
	s.moveMu.RUnlock()
	for at, stall, c := time.Now(), s.rec.Load().StallActive(), turn.from; c <= e; c++ {
		s.journal.Visible(uint64(c), at, migSeals, stall)
	}
	// Sealed, then visible, then computable: only now do the workers get the
	// epochs' segments.
	s.proc.handoff(segs)
	s.evictPushCache(e)
	s.evictAbortStash(e)
	s.retire(e)
	return true
}

// evictAbortStash drops stashed forwarded aborts whose epoch has committed:
// by then any migration import of that epoch has run (imports happen inside
// the epoch barrier, before Committed), so an entry still stashed was for a
// record this server never received — the abort already took effect at the
// exporting owner before the chain was streamed.
func (s *Server) evictAbortStash(e tstamp.Epoch) {
	s.stashMu.Lock()
	for ts := range s.abortStash {
		if ts.Epoch() <= e {
			delete(s.abortStash, ts)
		}
	}
	s.stashMu.Unlock()
}

// visibleBound returns the exclusive upper bound of readable versions.
func (s *Server) visibleBound() tstamp.Timestamp {
	return tstamp.Timestamp(s.epochs.visible.Load())
}

// waitVisible blocks until version ts is readable (its epoch committed).
func (s *Server) waitVisible(ctx context.Context, ts tstamp.Timestamp) error {
	if ts < s.visibleBound() {
		return nil
	}
	// Only an actual block opens a span, so already-visible reads stay free
	// and traces show the true visibility-wait stage (§III-B: transactions
	// of epoch e become readable once e commits).
	_, span := s.tr.Start(ctx, "visibility.wait")
	defer span.End()
	for {
		if ts < s.visibleBound() {
			return nil
		}
		s.epochs.mu.Lock()
		ch := s.epochs.visibleCh
		s.epochs.mu.Unlock()
		if ts < s.visibleBound() {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// beginTxn opens a reservation for txns transactions and returns its epoch.
func (s *Server) beginTxn(txns int) (tstamp.Epoch, error) { return s.epochs.begin(txns) }

// endTxn closes a reservation of epoch e; closing the last one after e's
// revoke sends the parked ack.
func (s *Server) endTxn(e tstamp.Epoch) {
	if ack := s.epochs.end(e); ack != nil {
		s.sendAck(e, ack)
	}
}

// sendAck stamps the end of e's ack wait and acks the revoke, outside the
// epoch table's lock.
func (s *Server) sendAck(e tstamp.Epoch, ack func()) {
	s.journal.AckWaitEnd(uint64(e), time.Now())
	ack()
}

// --- push cache -----------------------------------------------------------

func (s *Server) pushValue(version tstamp.Timestamp, key kv.Key, r functor.Read) {
	s.pushMu.Lock()
	s.pushCache[pushKey{version: version, key: key}] = r
	s.pushMu.Unlock()
}

func (s *Server) takePushed(version tstamp.Timestamp, key kv.Key) (functor.Read, bool) {
	s.pushMu.Lock()
	defer s.pushMu.Unlock()
	r, ok := s.pushCache[pushKey{version: version, key: key}]
	if ok {
		delete(s.pushCache, pushKey{version: version, key: key})
	}
	return r, ok
}

// evictPushCache drops pushed values older than the previous epoch; their
// functors have long been computable and any leftover entries are garbage.
func (s *Server) evictPushCache(committed tstamp.Epoch) {
	if committed < 2 {
		return
	}
	cutoff := tstamp.Start(committed - 1)
	s.pushMu.Lock()
	for pk := range s.pushCache {
		if pk.version < cutoff {
			delete(s.pushCache, pk)
		}
	}
	s.pushMu.Unlock()
}

// notifyComputed wakes WaitComputed waiters after functors reach final
// states. The broadcast rotates the channel, one allocation per event, so
// it only fires when someone is registered: a waiter that registers after
// the zero-waiters check re-reads the resolution before blocking and finds
// it installed (both sides use sequentially consistent atomics).
func (s *Server) notifyComputed() {
	if s.computedWaiters.Load() == 0 {
		return
	}
	s.computedMu.Lock()
	close(s.computedCh)
	s.computedCh = make(chan struct{})
	s.computedMu.Unlock()
}

// waitRecordFinal blocks until the record reaches a final state, the
// caller's ctx ends or the server closes.
func (s *Server) waitRecordFinal(ctx context.Context, rec *mvstore.Record) error {
	if rec.Final() {
		return nil
	}
	s.computedWaiters.Add(1)
	defer s.computedWaiters.Add(-1)
	for {
		s.computedMu.Lock()
		ch := s.computedCh
		s.computedMu.Unlock()
		if rec.Final() {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
}
