package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/trace"
	"alohadb/internal/transport"
)

// workItem is the metadata of one installed functor awaiting asynchronous
// processing (paper §IV-D: "their meta-data (key and version), which were
// buffered in the previous epoch, are pushed to a queue for the processor
// to consume").
type workItem struct {
	key kv.Key
	// chain is the key's chain and rec the installed record (rec.Version is
	// the version): found once at install, they spare the commit and
	// compute stages from addressing the store by key again.
	chain *mvstore.Chain
	rec   *mvstore.Record
	// installed is when the functor was installed in the BE; ready is when
	// its epoch committed and it entered the queue. The Figure-10 "waiting
	// for processing" stage spans installed → dequeue.
	installed time.Time
	ready     time.Time
	// sc is the install span's trace context, carried across the queue so
	// the asynchronous computation stays attached to the transaction's
	// trace (zero when the transaction is untraced).
	sc trace.SpanContext
}

// processor is the back-end's thread-pool functor computing engine
// (paper §IV-C/D). Work is sharded across workers by key: one key's
// functors always compute on one worker (in ascending version order, the
// paper's per-key sequential access, §V-B2), while distinct keys compute
// in parallel — key-level concurrency control in its scheduling form. A
// worker drains its queue in batches to amortize synchronization.
type processor struct {
	s       *Server
	shards  []*procShard
	wg      sync.WaitGroup
	stopped atomic.Bool
	// handoffs counts epoch commits between publishing the epoch as
	// committed and queueing its functors; drainWait treats them as busy.
	handoffs atomic.Int32
	// groups is enqueue's reusable per-shard grouping scratch, serialized
	// by groupMu (epoch commits enqueue one batch at a time; the mutex
	// only guards against overlapping callers).
	groupMu sync.Mutex
	groups  [][]workItem
}

type procShard struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []workItem
	active bool
}

// defaultWorkers sizes the pool for ServerConfig.Workers == 0: one shard
// per core so functor computation scales with the machine, floored at 2
// so single-core test environments still overlap compute with install.
func defaultWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 2 {
		return n
	}
	return 2
}

func newProcessor(s *Server, workers int) *processor {
	p := &processor{s: s, groups: make([][]workItem, workers)}
	for i := 0; i < workers; i++ {
		sh := &procShard{}
		sh.cond = sync.NewCond(&sh.mu)
		p.shards = append(p.shards, sh)
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(p.shards[i])
	}
	return p
}

// enqueue routes functor metadata to the owning worker by key hash.
// Items are grouped per destination shard first, so an epoch's whole
// batch takes each shard lock once instead of once per item — with
// GOMAXPROCS-many shards the per-item locking was the enqueue path's
// dominant cost. Grouping is stable, preserving the per-key ascending
// version order the workers rely on (§V-B2).
func (p *processor) enqueue(items []workItem) {
	if len(items) == 0 || len(p.shards) == 0 {
		return
	}
	if len(p.shards) == 1 {
		sh := p.shards[0]
		sh.mu.Lock()
		sh.queue = append(sh.queue, items...)
		sh.mu.Unlock()
		sh.cond.Signal()
		return
	}
	p.groupMu.Lock()
	groups := p.groups
	for i := range groups {
		groups[i] = groups[i][:0]
	}
	for _, it := range items {
		si := kv.Hash(it.key) % uint64(len(p.shards))
		groups[si] = append(groups[si], it)
	}
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		sh := p.shards[si]
		sh.mu.Lock()
		sh.queue = append(sh.queue, g...)
		sh.mu.Unlock()
		sh.cond.Signal()
		// Drop the record pointers so the scratch buffer does not pin
		// records past their processing.
		clear(g)
	}
	p.groupMu.Unlock()
}

// drainWait blocks until every shard's queue is empty and idle; used by
// tests and by the saturation-mode benchmark barrier.
func (p *processor) drainWait() {
	for {
		// Read before the queues: a hand-off this read misses has queued
		// its items already, or belongs to an epoch the caller has not seen
		// committed.
		empty := p.handoffs.Load() == 0
		for _, sh := range p.shards {
			sh.mu.Lock()
			if len(sh.queue) > 0 || sh.active {
				empty = false
			}
			sh.mu.Unlock()
			if !empty {
				break
			}
		}
		if empty {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// queueDepths reports each shard's queue length for stall snapshots; when
// consider is non-nil every queued item is offered to it (the watchdog
// uses this to find the oldest pending functor).
func (p *processor) queueDepths(consider func(workItem)) []int {
	depths := make([]int, len(p.shards))
	for i, sh := range p.shards {
		sh.mu.Lock()
		depths[i] = len(sh.queue)
		if consider != nil {
			for _, it := range sh.queue {
				consider(it)
			}
		}
		sh.mu.Unlock()
	}
	return depths
}

func (p *processor) stop() {
	p.stopped.Store(true)
	for _, sh := range p.shards {
		// Hold the shard lock while broadcasting so a worker between its
		// stop-check and Wait cannot miss the wakeup.
		sh.mu.Lock()
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
	p.wg.Wait()
}

const _workerBatch = 64

func (p *processor) worker(sh *procShard) {
	defer p.wg.Done()
	// buf receives each batch so the queue's backing array can be reused:
	// slicing the front off (queue = queue[n:]) strands the consumed prefix
	// and forces append to grow a fresh array every few batches, a steady
	// allocation stream this copy-and-shift avoids.
	var buf [_workerBatch]workItem
	var owing [_workerBatch]*mvstore.Chain
	for {
		sh.mu.Lock()
		for len(sh.queue) == 0 && !p.stopped.Load() {
			sh.cond.Wait()
		}
		if p.stopped.Load() {
			sh.mu.Unlock()
			return
		}
		n := len(sh.queue)
		if n > _workerBatch {
			n = _workerBatch
		}
		copy(buf[:n], sh.queue)
		rest := copy(sh.queue, sh.queue[n:])
		clear(sh.queue[rest:])
		sh.queue = sh.queue[:rest]
		sh.active = true
		sh.mu.Unlock()

		// A chain that owes a compaction (its watermark was behind the
		// horizon when its epoch retired) pays once per batch, not per
		// functor: each payment copies the survivors, and a hot chain
		// catching up moves its watermark one record at a time.
		no := 0
		for i := range buf[:n] {
			p.process(buf[i])
			if c := buf[i].chain; c.Owed() != 0 && (no == 0 || owing[no-1] != c) {
				owing[no] = c
				no++
			}
		}
		for _, c := range owing[:no] {
			p.s.payOwed(c)
		}

		sh.mu.Lock()
		sh.active = false
		sh.mu.Unlock()
	}
}

// process handles one queued functor: record queueing delay, proactively
// push values to recipient partitions, compute every pending functor of the
// key up to the queued version, and advance the value watermark.
func (p *processor) process(item workItem) {
	s := p.s
	wait := time.Since(item.installed)
	s.stats.recordWait(wait)
	// The parent install span ended an epoch ago; StartAt re-attaches the
	// asynchronous computation to the transaction's trace, and the wait
	// attribute records the Figure-10 queueing stage the span's own start
	// time cannot show.
	ctx, span := s.tr.StartAt(s.ctx, item.sc, "functor.process")
	span.SetAttr("key", string(item.key))
	span.SetAttrDuration("wait", wait)
	defer span.End()

	fn := item.rec.Functor
	if len(fn.Recipients) > 0 {
		p.pushToRecipients(ctx, item, fn)
	}
	// Dependent-key markers are resolved by their determinate functor's
	// computation (directly when local, via MsgApplyDeferred when remote).
	// Processing them here would issue a redundant synchronous MsgEnsure,
	// so the processor skips markers that are not yet resolved; the
	// watermark advances when the determinate side applies the write or
	// when a read forces it.
	if fn.Type == functor.TypeDepMarker && !item.rec.Final() {
		return
	}
	// Fast path: an earlier chain walk (hot key) already settled this
	// record and the watermark.
	if item.rec.Final() && item.chain.Watermark() >= item.rec.Version {
		return
	}
	if err := s.resolveRecord(ctx, item.key, item.chain, item.rec); err != nil {
		// A failed remote read (e.g. during shutdown) leaves the functor
		// for on-demand computation at read time.
		return
	}
	item.chain.AdvanceWatermark(item.rec.Version)
}

// pushToRecipients sends the latest value of the functor's key strictly
// below its version to each recipient's partition (paper §IV-B). Purely an
// optimization: compute falls back to remote reads when a push is missing.
func (p *processor) pushToRecipients(ctx context.Context, item workItem, fn *functor.Functor) {
	s := p.s
	prev, err := s.getLocal(ctx, item.key, item.rec.Version.Prev())
	if err != nil {
		return
	}
	sent := make(map[int]bool, len(fn.Recipients))
	for _, rk := range fn.Recipients {
		owner := s.owner(rk)
		if owner == s.id || sent[owner] {
			continue
		}
		sent[owner] = true
		s.stats.pushesSent.Add(1)
		_ = s.conn.Send(ctx, transport.NodeID(owner), MsgPush{
			Version:      item.rec.Version,
			Key:          item.key,
			Value:        prev.Value,
			Found:        prev.Found,
			ValueVersion: prev.Version,
		})
	}
}
