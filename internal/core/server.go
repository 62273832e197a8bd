package core

import (
	"context"
	"fmt"
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
	wd         *obs.Watchdog     // nil when the watchdog is disabled

	// queueDepths, when set, reports per-peer transport send-queue depths
	// for stall snapshots (see SetQueueDepthSource).
	queueDepths func() map[transport.NodeID]int
	// maxQueueDepth, when set, reports the deepest outbound send queue
	// without allocating, for the flight recorder's per-tick sample (see
	// SetMaxQueueDepthSource).
	maxQueueDepth func() int

	// Second-round abort redelivery budget (see ServerConfig.AbortRetries).
	abortRetries int

	// Epoch admission (§III-B/C): mu guards slots and every retarget of gen,
	// so a reservation, a revoke and the release that acks it each happen
	// in one critical section. Committed takes an epoch's slot.
	mu        sync.Mutex
	slots     map[tstamp.Epoch]*epochSlot
	pendingMu sync.Mutex
	// pending holds each open epoch's buffered functor metadata, one segment
	// per processor shard (one in all without workers). Lock order:
	// pendingMu, then a shard's mu or the processor's freeMu.
	pending map[tstamp.Epoch][]segment
	// drainedEpoch is the highest epoch whose segments Committed has taken
	// (guarded by pendingMu). bufferWork routes installs at or below it
	// straight to seal+processor: deciding under the same lock as the take
	// means a straggler install can never land in a segment that was
	// already handed to the processor (which would orphan it unsealed).
	drainedEpoch tstamp.Epoch

	// visible is the exclusive upper bound of readable versions:
	// Start(e+1) once epoch e committed.
	visible   atomic.Uint64
	visibleMu sync.Mutex
	visibleCh chan struct{}

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

	// retention is the history horizon in epochs (0 = keep everything);
	// retiring holds the chains each recent epoch wrote (see retention.go).
	retention atomic.Uint32
	retiring  retireQueue

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
		slots:      make(map[tstamp.Epoch]*epochSlot),
		pending:    make(map[tstamp.Epoch][]segment),
		abortStash: make(map[tstamp.Timestamp][]kv.Key),
		pushCache:  make(map[pushKey]functor.Read),
		visibleCh:  make(chan struct{}),
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
	return s, nil
}

// ID returns the server's index.
func (s *Server) ID() int { return s.id }

// CurrentEpoch returns the epoch the server currently issues timestamps
// in (zero before the first grant arrives).
func (s *Server) CurrentEpoch() tstamp.Epoch { return s.gen.Epoch() }

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
			Name: FamStoreThaws, Help: "Rows (one final version) turned into chains because something needed a record of the key or wrote it.",
			Kind:   metrics.KindCounter,
			Series: []metrics.Series{metrics.CounterSeries(st.Thaws)},
		},
		metrics.Family{
			Name: FamStoreFolds, Help: "Chains turned back into rows because their whole history was one computed final version.",
			Kind:   metrics.KindCounter,
			Series: []metrics.Series{metrics.CounterSeries(st.Folds)},
		})
	if src, ok := s.durability.(interface{ MetricFamilies() []metrics.Family }); ok {
		fams = append(fams, src.MetricFamilies()...)
	}
	fams = append(fams, s.journal.MetricFamilies()...)
	return metrics.WithLabel(fams, "server", strconv.Itoa(s.id))
}

// Journal exposes the server's epoch lifecycle journal; its Doc feeds
// /debug/epochs and the clusterview critical-path merge.
func (s *Server) Journal() *journal.Journal { return s.journal }

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

// baseCtx returns the server's lifetime context, used for internal remote
// calls and waits so Close unblocks them.
func (s *Server) baseCtx() context.Context { return s.ctx }

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
// epoch e. SetEpoch is a no-op if the straggler path already targeted e.
func (s *Server) Grant(e tstamp.Epoch) {
	s.mu.Lock()
	s.gen.SetEpoch(e)
	s.mu.Unlock()
}

// Revoke implements epoch.Participant: switch the generator to straggler
// mode in e+1 and ack once no reservation of e is open — at once, or from
// the release that closes the last one.
func (s *Server) Revoke(e tstamp.Epoch, ack func()) {
	s.journal.AckWaitStart(uint64(e), time.Now())
	s.mu.Lock()
	// Straggler optimization (§III-C): transactions may start immediately
	// without authorization, drawing timestamps from epoch e+1, which the
	// packed-timestamp scheme bounds below epoch e+1's finish timestamp.
	s.gen.SetEpoch(e + 1)
	if sl := s.slots[e]; sl != nil && sl.open > 0 {
		sl.ack, ack = ack, nil
	}
	s.mu.Unlock()
	if ack != nil {
		s.sendAck(e, ack)
	}
}

// Committed implements epoch.Participant: epoch e's versions become
// visible and its buffered functor metadata flows to the processor.
func (s *Server) Committed(e tstamp.Epoch) {
	s.journal.CommittedRecv(uint64(e), time.Now())
	// Take the epoch's slot. An ack still parked in it is dropped: the
	// switch went on without it (SwitchTimeout), and the journal ends its
	// ack wait at the Committed receipt.
	var txns uint64
	s.mu.Lock()
	if sl := s.slots[e]; sl != nil {
		txns = sl.txns
		delete(s.slots, e)
	}
	s.mu.Unlock()
	s.stats.txnsPerEpoch.Observe(int64(txns))
	// Each server's commit work is its own trace root: the manager-side
	// epoch.switch span cannot parent it without widening the Participant
	// interface, and the commit path (durability flush + seal + hand-off) is
	// interesting in isolation.
	ctx, commitSpan := s.tr.StartRoot(s.ctx, "epoch.commit")
	commitSpan.SetAttrInt("epoch", int64(e))
	defer commitSpan.End()
	// Take the epoch's buffered functor metadata and record the take under
	// one lock: a straggler install racing this commit either appends to a
	// segment before the take or observes drainedEpoch and seals directly in
	// bufferWork — never a third option where it lands in a segment nobody
	// will ever hand to the processor.
	s.pendingMu.Lock()
	segs := s.pending[e]
	delete(s.pending, e)
	if e > s.drainedEpoch {
		s.drainedEpoch = e
	}
	s.pendingMu.Unlock()
	// Seal the epoch's versions (in-epoch -> out-epoch, Figure 4) before
	// advancing visibility: a reader that wakes on the visibility broadcast
	// must find every version of the epoch already reachable. A key written
	// twice in the epoch is sealed twice; the second finds nothing staged.
	now := time.Now()
	var slow *workItem
	var slowWait time.Duration
	retaining := s.retention.Load() != 0
	var sealed []*mvstore.Chain
	items := 0
	for i := range segs {
		items += segs[i].n
		segs[i].each(0, func(it *workItem) {
			if it.chain.Seal(tstamp.End(e)) > 0 && retaining {
				sealed = append(sealed, it.chain)
			}
			if !it.installed.IsZero() {
				if w := now.Sub(it.installed); slow == nil || w > slowWait {
					slow, slowWait = it, w
				}
			}
		})
	}
	s.sealedIn(e, sealed...)
	s.journal.SealDone(uint64(e), time.Now(), items)
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
		dctx, dspan := s.tr.Start(ctx, "wal.commit")
		dstart := time.Now()
		if err := s.durability.LogEpochCommitted(dctx, e); err != nil {
			// Durability of the boundary marker failed; the epoch's data
			// entries are still logged, and recovery treats the epoch as
			// uncommitted, which is the correct conservative outcome.
			_ = err
		}
		s.journal.Durable(uint64(e), time.Since(dstart))
		dspan.End()
	}
	// The hand-off counts as busy from before the epoch shows as committed
	// until its last segment is linked: whoever sees CommittedEpoch() >= e
	// and then drains the processors waits for every functor of e.
	s.proc.handoffs.Add(1)
	// Advance visibility to Start(e+1) — after the seal and after the
	// durable marker, so observable implies recoverable: a crash right
	// after a reader saw epoch e can never roll e back (§III-B's atomic
	// visibility extended to the durability boundary).
	bound := uint64(tstamp.End(e))
	for {
		cur := s.visible.Load()
		if cur >= bound {
			break
		}
		if s.visible.CompareAndSwap(cur, bound) {
			s.visibleMu.Lock()
			close(s.visibleCh)
			s.visibleCh = make(chan struct{})
			s.visibleMu.Unlock()
			break
		}
	}
	// Finalize after visibility published, stamping the interference
	// markers sampled at this instant: migration range seals in force and
	// whether a stall episode is open.
	s.moveMu.RLock()
	migSeals := len(s.sealedRanges)
	s.moveMu.RUnlock()
	s.journal.Visible(uint64(e), time.Now(), migSeals, s.wd.Active())
	// Sealed, then visible, then computable: only now do the workers get the
	// epoch's segments.
	s.proc.handoff(segs)
	s.proc.handoffs.Add(-1)
	s.evictPushCache(e)
	s.evictAbortStash(e)
	s.retire(e)
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
	return tstamp.Timestamp(s.visible.Load())
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
		s.visibleMu.Lock()
		ch := s.visibleCh
		s.visibleMu.Unlock()
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

// epochSlot is one epoch's admission record on this front-end.
type epochSlot struct {
	open int    // reservations not yet released
	txns uint64 // transactions begun, observed into FamEpochTxns at commit
	ack  func() // the revoke's ack, parked while reservations are open
}

// beginTxn opens a reservation in the epoch the generator targets and
// returns that epoch; endTxn closes it. txns is the number of transactions
// the reservation covers (a batch reserves once). Revoke retargets the
// generator under the same lock, so a reservation either holds e's ack or
// was taken in e+1.
func (s *Server) beginTxn(txns int) (tstamp.Epoch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.gen.Epoch()
	if e == 0 {
		return 0, fmt.Errorf("core: cluster not started")
	}
	sl := s.slots[e]
	if sl == nil {
		sl = &epochSlot{}
		s.slots[e] = sl
	}
	sl.open++
	sl.txns += uint64(txns)
	return e, nil
}

// endTxn closes a reservation of epoch e; closing the last one after e's
// revoke sends the parked ack. Once Committed has taken the slot there is
// nothing left to release.
func (s *Server) endTxn(e tstamp.Epoch) {
	var ack func()
	s.mu.Lock()
	if sl := s.slots[e]; sl != nil {
		if sl.open--; sl.open == 0 {
			ack, sl.ack = sl.ack, nil
		}
	}
	s.mu.Unlock()
	if ack != nil {
		s.sendAck(e, ack)
	}
}

// sendAck stamps the end of e's ack wait and acks the revoke, outside s.mu.
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
