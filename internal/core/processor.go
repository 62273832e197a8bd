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
	// installed is when the functor was installed in the BE. The Figure-10
	// "waiting for processing" stage spans installed → dequeue.
	installed time.Time
	// sc is the install span's trace context, carried across the queue so
	// the asynchronous computation stays attached to the transaction's
	// trace (zero when the transaction is untraced).
	sc trace.SpanContext
	// shard is the processor shard that computes the key, found where the
	// item is built so that bufferWork, under the epoch table's lock, only
	// appends.
	shard   uint32
	retried bool // compute failed once: wait and recipient pushes not repeated
}

const (
	_chunkItems = 256 // items per chunk (~22 KB)
	// _maxFreeChunks caps the free list at a few epochs of a saturated TPC-C
	// partition (~1.4 MB); chunks released beyond it go to the collector.
	_maxFreeChunks = 64
	// _workerBatch is how many functors a worker computes between two looks
	// at its shard: position published, stop flag read, owed compactions paid.
	_workerBatch = 64
)

// workChunk is what the hand-off is built from: a fixed array of items,
// written once where an install appends them and read in place by the worker,
// so nothing between install and compute is re-grown or copied. A chunk has
// one owner at a time: the segment it is filled in (under the epoch table's
// lock), then the shard queue it was linked onto (items and n frozen, next
// under sh.mu), then the free list (every slot zero).
type workChunk struct {
	items [_chunkItems]workItem
	n     int
	next  *workChunk
}

// segment is a chain of chunks that changes hands by reference: the functors
// one epoch installed for one shard, in arrival order, or a shard's queue.
type segment struct {
	head, tail *workChunk
	n          int
}

// link appends h's chunks to g's and leaves h empty: a pointer move however
// many items h holds.
func (g *segment) link(h *segment) {
	if g.tail == nil {
		*g = *h
	} else {
		g.tail.next, g.tail, g.n = h.head, h.tail, g.n+h.n
	}
	*h = segment{}
}

// each offers every item but the first from, in order.
func (g *segment) each(from int, fn func(*workItem)) {
	for c := g.head; c != nil; c, from = c.next, 0 {
		for i := from; i < c.n; i++ {
			fn(&c.items[i])
		}
	}
}

// processor is the back-end's thread-pool functor computing engine
// (paper §IV-C/D). Work is sharded across workers by key: one key's
// functors always compute on one worker (in ascending version order, the
// paper's per-key sequential access, §V-B2), while distinct keys compute
// in parallel — key-level concurrency control in its scheduling form.
// Per-key order is: one key, one shard; a shard's queue takes segments in
// commit order; a segment keeps arrival order; and what arrived out of
// version order inside an epoch is put right by resolveRecord's walk down.
type processor struct {
	s       *Server
	shards  []*procShard
	wg      sync.WaitGroup
	stopped atomic.Bool

	// The free list is a stack, so the chunk a worker has just finished — still
	// in cache — is the next one an install fills; and not a sync.Pool, which
	// every collection empties (half of a saturated run is spent in one).
	// freeMu is a leaf lock: taken under the epoch table's lock to grow a
	// segment, alone to release. spareSegs are the emptied per-epoch slices
	// of handed-off epochs.
	freeMu    sync.Mutex
	free      *workChunk
	nfree     int
	spareSegs [][]segment
}

// procShard is one worker's queue. The chunk being computed stays at its head
// until its last item is done, pos naming the first item not yet computed
// (published per batch, as is queue.n, the items left): a stall snapshot sees
// the functor a worker is stuck on, and an idle shard is an empty queue.
type procShard struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue segment
	pos   int
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
	p := &processor{s: s}
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

// shardOf names the shard, and so the segment of its epoch, that k's functors
// go to; without workers there is one segment per epoch.
func (p *processor) shardOf(k kv.Key) uint32 {
	if len(p.shards) < 2 {
		return 0
	}
	return uint32(kv.Hash(k) % uint64(len(p.shards)))
}

// newSegments returns an epoch's empty segments, one per shard.
func (p *processor) newSegments() []segment {
	p.freeMu.Lock()
	defer p.freeMu.Unlock()
	if n := len(p.spareSegs); n > 0 {
		segs := p.spareSegs[n-1]
		p.spareSegs = p.spareSegs[:n-1]
		return segs
	}
	return make([]segment, max(1, len(p.shards)))
}

// push appends it to g, on a chunk off the free list when the last is full.
func (p *processor) push(g *segment, it *workItem) {
	c := g.tail
	if c == nil || c.n == _chunkItems {
		p.freeMu.Lock()
		nc := p.free
		if nc != nil {
			p.free, nc.next = nc.next, nil
			p.nfree--
		}
		p.freeMu.Unlock()
		if nc == nil {
			nc = new(workChunk)
		}
		if c == nil {
			g.head = nc
		} else {
			c.next = nc
		}
		g.tail, c = nc, nc
	}
	c.items[c.n] = *it
	c.n++
	g.n++
}

// recycle keeps an emptied per-epoch segment slice for a later epoch.
func (p *processor) recycle(segs []segment) {
	p.freeMu.Lock()
	p.spareSegs = append(p.spareSegs, segs)
	p.freeMu.Unlock()
}

// discard releases the chunks of segments no worker will read.
func (p *processor) discard(segs []segment) {
	if segs != nil {
		for i := range segs {
			p.releaseAll(&segs[i])
		}
		p.recycle(segs)
	}
}

func (p *processor) releaseAll(g *segment) {
	for c := g.head; c != nil; {
		next := c.next
		p.release(c)
		c = next
	}
	*g = segment{}
}

// release clears a chunk whose items are done with — a cleared chunk pins no
// record, chain or key — and returns it to the free list.
func (p *processor) release(c *workChunk) {
	clear(c.items[:c.n])
	c.n, c.next = 0, nil
	p.freeMu.Lock()
	if p.nfree < _maxFreeChunks {
		c.next, p.free = p.free, c
		p.nfree++
	}
	p.freeMu.Unlock()
}

// handoff gives sealed segments to the workers: each non-empty one is linked
// whole onto its shard's queue, a pointer move whatever the epoch wrote.
// Without workers sealing was all the items were for (functors compute on
// demand) and the chunks go straight back. segs comes back empty and is kept;
// an epoch that installed nothing has none.
func (p *processor) handoff(segs []segment) {
	if segs == nil {
		return
	}
	for i := range segs {
		g := &segs[i]
		switch {
		case g.head == nil:
		case len(p.shards) == 0:
			p.releaseAll(g)
		default:
			sh := p.shards[i]
			sh.mu.Lock()
			sh.queue.link(g)
			sh.mu.Unlock()
			sh.cond.Signal()
		}
	}
	p.recycle(segs)
}

// drainWait blocks until every shard's queue is empty; used by tests and by
// the saturation-mode benchmark barrier.
func (p *processor) drainWait() {
	for {
		// Read before the queues: a commit turn this read misses has linked
		// its segments already, or commits an epoch the caller has not seen
		// committed.
		empty := !p.s.epochs.busy()
		for _, sh := range p.shards {
			sh.mu.Lock()
			if sh.queue.head != nil {
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

// queueDepths reports how many functors each shard has yet to compute, the
// batch in progress included, for stall snapshots; when consider is non-nil
// each is offered to it (the stall capture uses this to find the oldest
// pending functor, which is the one a stuck worker is blocked on).
func (p *processor) queueDepths(consider func(*workItem)) []int {
	depths := make([]int, len(p.shards))
	for i, sh := range p.shards {
		sh.mu.Lock()
		depths[i] = sh.queue.n
		if consider != nil {
			sh.queue.each(sh.pos, consider)
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

// worker computes its shard's functors a batch at a time, reading the chunk
// at the head of the queue where the installs wrote it.
func (p *processor) worker(sh *procShard) {
	defer p.wg.Done()
	var touched [_workerBatch]*workItem // one per chain
	for {
		sh.mu.Lock()
		for sh.queue.head == nil && !p.stopped.Load() {
			sh.cond.Wait()
		}
		if p.stopped.Load() {
			sh.mu.Unlock()
			return
		}
		c, pos := sh.queue.head, sh.pos
		sh.mu.Unlock()

		// A chain whose watermark moved pays the compaction it owes (its
		// watermark was behind the horizon when its epoch retired) and
		// freezes the history now below it once per batch, not per functor:
		// each copies the survivors, and a hot chain catching up moves its
		// watermark one record at a time.
		end := min(pos+_workerBatch, c.n)
		nt := 0
		for i := pos; i < end; i++ {
			it := &c.items[i]
			p.process(it)
			if nt == 0 || touched[nt-1].chain != it.chain {
				touched[nt] = it
				nt++
			}
		}
		for _, it := range touched[:nt] {
			p.s.payOwed(it.key, it.chain)
			it.chain.Freeze()
		}
		clear(touched[:nt])

		sh.mu.Lock()
		sh.pos, sh.queue.n = end, sh.queue.n-(end-pos)
		if end == c.n {
			// The chunk leaves the queue, and only then is cleared: a
			// snapshot reads what is queued under sh.mu.
			sh.pos, sh.queue.head = 0, c.next
			if c.next == nil {
				sh.queue.tail = nil
			}
		}
		sh.mu.Unlock()
		if end == c.n {
			p.release(c)
		}
	}
}

// process handles one queued functor: record queueing delay, proactively
// push values to recipient partitions, compute every pending functor of the
// key up to the queued version, advance the value watermark, and fold the
// key into a row or a history if the version settled it.
func (p *processor) process(item *workItem) {
	s := p.s
	wait := time.Since(item.installed)
	if !item.retried {
		s.stats.recordWait(wait)
	}
	// The parent install span ended an epoch ago; StartAt re-attaches the
	// asynchronous computation to the transaction's trace, and the wait
	// attribute records the Figure-10 queueing stage the span's own start
	// time cannot show.
	ctx, span := s.tr.StartAt(s.ctx, item.sc, "functor.process")
	span.SetAttr("key", string(item.key))
	span.SetAttrDuration("wait", wait)
	defer span.End()

	fn := item.rec.Functor
	if len(fn.Recipients) > 0 && !item.retried {
		p.pushToRecipients(ctx, item, fn)
	}
	// Dependent-key markers are resolved by their determinate functor's
	// computation (directly when local, via MsgApplyDeferred when remote).
	// Processing them here would issue a redundant synchronous ensure,
	// so the processor skips markers that are not yet resolved; the
	// watermark advances when the determinate side applies the write or
	// when a read forces it.
	if fn.Type == functor.TypeDepMarker && !item.rec.Final() {
		return
	}
	// Unless an earlier chain walk (hot key) already settled this record and
	// the watermark, compute it.
	if !item.rec.Final() || item.chain.Watermark() < item.rec.Version {
		if err := s.resolveRecord(ctx, item.key, item.chain, item.rec); err != nil {
			// A failed remote read (a dropped message, a severed link) is
			// tried again at the next epoch commit, with that epoch's
			// functors and its own install time: left to a reader, the
			// functor could find the versions it reads already compacted by
			// retention. Retries have no bound: one whose read stays
			// unreachable is tried every epoch.
			retry := *item
			retry.retried = true
			s.epochs.retry(&retry)
			return
		}
		if s.awaitDeferred(ctx, item.chain, item.chain.Watermark(), item.rec.Version) != nil {
			return // the server is closing
		}
		item.chain.AdvanceWatermark(item.rec.Version)
	}
	// A key written once (most of a YCSB store, every Payment history row)
	// is now one final version: a row, which the collector never walks. A
	// key whose every version is now final (a TPC-C stock row between its
	// writes) is a history: one buffer of bytes.
	s.store.Fold(item.key, item.chain)
}

// pushToRecipients sends the latest value of the functor's key strictly
// below its version to each recipient's partition (paper §IV-B). Purely an
// optimization: compute falls back to remote reads when a push is missing.
func (p *processor) pushToRecipients(ctx context.Context, item *workItem, fn *functor.Functor) {
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
