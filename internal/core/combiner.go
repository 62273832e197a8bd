package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/obs"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

// combiner merges concurrent remote reads and ensures destined for the
// same owner into batch RPCs (MsgReadBatch / MsgEnsureBatch), extending the
// paper's install convention — one message per involved partition (§V) —
// to the functor hot path: under load, many functor computations read
// single keys of the same remote partition at once, and each such read is
// otherwise a full RPC.
//
// Per owner, one former goroutine drains the op queue: the first op of an
// idle owner dispatches immediately (the single-request fast path sends
// the original MsgRead/MsgEnsure/MsgEnsureUpTo, so isolated requests keep
// their latency and wire format), and ops that accumulate while the former
// is active leave as one batch. Dispatches are asynchronous — the former
// never waits for a response. Holding the owner slot across the RPC would
// be the textbook combining window, but compute paths recurse across
// partitions (a served read can trigger computations that read back), and
// two owners waiting on each other's held slots would deadlock; forming
// batches without bounding RPC concurrency keeps the merge and cannot
// create a wait cycle.
type combiner struct {
	s *Server
	// window, when positive, is how long the former lingers between
	// consecutive dispatches to accumulate a larger batch. It never delays
	// an isolated request: the first dispatch of an idle owner is always
	// immediate.
	window time.Duration

	mu     sync.Mutex
	owners map[int]*ownerQueue
}

// maxCombine bounds ops per batch message so a deep queue becomes several
// reasonably-sized RPCs instead of one giant envelope.
const maxCombine = 128

type ownerQueue struct {
	mu      sync.Mutex
	ops     []*combOp
	forming bool
}

type combKind uint8

const (
	combRead combKind = iota
	combEnsure
	combEnsureUpTo
)

type combOp struct {
	kind    combKind
	key     kv.Key
	version tstamp.Timestamp
	// ctx is the caller's context: its trace labels the dispatch and its
	// cancellation releases only this caller's wait, never the shared RPC.
	ctx  context.Context
	done chan combResult
}

type combResult struct {
	read funcRead
	res  *functor.Resolution
	err  error
}

// combOpPool recycles ops together with their buffered result channels:
// every remote read otherwise pays two heap allocations before a byte
// hits the wire, and under combining pressure those dominate the
// client-side allocation profile. Pooled ops always carry an empty
// channel — the happy path drains the single send before releasing, and
// the context-cancel path abandons the op to the GC (the late send lands
// in the buffer of an object nobody will reuse).
var combOpPool = sync.Pool{
	New: func() any { return &combOp{done: make(chan combResult, 1)} },
}

func newCombOp(ctx context.Context, kind combKind, k kv.Key, v tstamp.Timestamp) *combOp {
	op := combOpPool.Get().(*combOp)
	op.kind, op.key, op.version, op.ctx = kind, k, v, ctx
	return op
}

func (op *combOp) release() {
	op.key, op.ctx = "", nil
	combOpPool.Put(op)
}

func newCombiner(s *Server, window time.Duration) *combiner {
	return &combiner{s: s, window: window, owners: make(map[int]*ownerQueue)}
}

// read performs a remote read through the combiner.
func (c *combiner) read(ctx context.Context, owner int, k kv.Key, v tstamp.Timestamp) (funcRead, error) {
	r := c.do(ctx, owner, newCombOp(ctx, combRead, k, v))
	return r.read, r.err
}

// ensure performs a remote MsgEnsure through the combiner.
func (c *combiner) ensure(ctx context.Context, owner int, k kv.Key, v tstamp.Timestamp) (*functor.Resolution, error) {
	r := c.do(ctx, owner, newCombOp(ctx, combEnsure, k, v))
	return r.res, r.err
}

// ensureUpTo performs a remote MsgEnsureUpTo through the combiner.
func (c *combiner) ensureUpTo(ctx context.Context, owner int, k kv.Key, v tstamp.Timestamp) error {
	r := c.do(ctx, owner, newCombOp(ctx, combEnsureUpTo, k, v))
	return r.err
}

func (c *combiner) queue(owner int) *ownerQueue {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.owners[owner]
	if q == nil {
		q = &ownerQueue{}
		c.owners[owner] = q
	}
	return q
}

// occupancy reports each owner slot's queued (not yet dispatched) ops for
// stall snapshots, sorted by owner; idle empty slots are skipped.
func (c *combiner) occupancy() []obs.OwnerQueue {
	c.mu.Lock()
	owners := make([]int, 0, len(c.owners))
	queues := make([]*ownerQueue, 0, len(c.owners))
	for owner, q := range c.owners {
		owners = append(owners, owner)
		queues = append(queues, q)
	}
	c.mu.Unlock()
	var out []obs.OwnerQueue
	for i, q := range queues {
		q.mu.Lock()
		n := len(q.ops)
		forming := q.forming
		q.mu.Unlock()
		if n > 0 || forming {
			out = append(out, obs.OwnerQueue{Owner: owners[i], Queued: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
	return out
}

func (c *combiner) do(ctx context.Context, owner int, op *combOp) combResult {
	q := c.queue(owner)
	q.mu.Lock()
	q.ops = append(q.ops, op)
	start := !q.forming
	q.forming = true
	q.mu.Unlock()
	if start {
		go c.formLoop(owner, q)
	}
	select {
	case r := <-op.done:
		op.release()
		return r
	case <-ctx.Done():
		// The shared dispatch proceeds for the other waiters; only this
		// caller gives up (done is buffered, so the late send never blocks,
		// and the abandoned op stays out of the pool).
		return combResult{err: ctx.Err()}
	}
}

// formLoop drains one owner's queue: grab whatever is queued, dispatch it
// asynchronously, briefly yield (or linger for the configured window) so
// concurrent producers can publish the next batch, and exit once the queue
// stays empty.
func (c *combiner) formLoop(owner int, q *ownerQueue) {
	yields := 0
	for {
		q.mu.Lock()
		n := len(q.ops)
		if n == 0 {
			if yields < 2 {
				q.mu.Unlock()
				yields++
				runtime.Gosched()
				continue
			}
			q.forming = false
			q.mu.Unlock()
			return
		}
		if n > maxCombine {
			n = maxCombine
		}
		ops := q.ops[:n:n]
		q.ops = q.ops[n:]
		q.mu.Unlock()
		yields = 0
		go c.dispatch(owner, ops)
		if c.window > 0 {
			time.Sleep(c.window)
		} else {
			runtime.Gosched()
		}
	}
}

// dispatch sends one formed batch. A single op keeps the original wire
// message and span; a real batch splits into at most one MsgReadBatch and
// one MsgEnsureBatch, sent concurrently.
func (c *combiner) dispatch(owner int, ops []*combOp) {
	if len(ops) == 1 {
		c.dispatchSingle(owner, ops[0])
		return
	}
	// Homogeneous batches (the common case: a burst of remote reads) go
	// out as-is; only mixed batches pay for the split.
	nReads := 0
	for _, op := range ops {
		if op.kind == combRead {
			nReads++
		}
	}
	switch nReads {
	case len(ops):
		c.dispatchReads(owner, ops)
		return
	case 0:
		c.dispatchEnsures(owner, ops)
		return
	}
	reads := make([]*combOp, 0, nReads)
	ensures := make([]*combOp, 0, len(ops)-nReads)
	for _, op := range ops {
		if op.kind == combRead {
			reads = append(reads, op)
		} else {
			ensures = append(ensures, op)
		}
	}
	if len(reads) > 0 && len(ensures) > 0 {
		go c.dispatchEnsures(owner, ensures)
		c.dispatchReads(owner, reads)
		return
	}
	if len(reads) > 0 {
		c.dispatchReads(owner, reads)
	}
	if len(ensures) > 0 {
		c.dispatchEnsures(owner, ensures)
	}
}

func (c *combiner) dispatchSingle(owner int, op *combOp) {
	s := c.s
	ctx := s.engineCtx(op.ctx)
	switch op.kind {
	case combRead:
		s.stats.recordReadBatch(1)
		rctx, span := s.tr.Start(ctx, "read.remote")
		span.SetAttr("key", string(op.key))
		span.SetAttrInt("owner", int64(owner))
		resp, err := s.conn.Call(rctx, transport.NodeID(owner), MsgRead{Key: op.key, Version: op.version})
		span.End()
		if err != nil {
			op.done <- combResult{err: fmt.Errorf("core: remote read %q@%v: %w", op.key, op.version, err)}
			return
		}
		r, ok := resp.(MsgReadResp)
		if !ok {
			op.done <- combResult{err: fmt.Errorf("core: remote read %q: unexpected response %T", op.key, resp)}
			return
		}
		op.done <- combResult{read: funcRead{Value: r.Value, Found: r.Found, Version: r.Version}}

	case combEnsure:
		s.stats.recordEnsureBatch(1)
		rctx, span := s.tr.Start(ctx, "functor.ensure")
		span.SetAttr("key", string(op.key))
		resp, err := s.conn.Call(rctx, transport.NodeID(owner), MsgEnsure{Key: op.key, Version: op.version})
		span.End()
		if err != nil {
			op.done <- combResult{err: fmt.Errorf("core: ensure %q@%v: %w", op.key, op.version, err)}
			return
		}
		r, ok := resp.(MsgEnsureResp)
		if !ok {
			op.done <- combResult{err: fmt.Errorf("core: ensure %q: unexpected response %T", op.key, resp)}
			return
		}
		op.done <- combResult{res: r.Resolution}

	case combEnsureUpTo:
		s.stats.recordEnsureBatch(1)
		if _, err := s.conn.Call(ctx, transport.NodeID(owner), MsgEnsureUpTo{Key: op.key, Version: op.version}); err != nil {
			op.done <- combResult{err: fmt.Errorf("core: ensure %q up to %v: %w", op.key, op.version, err)}
			return
		}
		op.done <- combResult{}
	}
}

func (c *combiner) dispatchReads(owner int, ops []*combOp) {
	s := c.s
	s.stats.recordReadBatch(len(ops))
	ctx, span := s.tr.Start(s.engineCtx(ops[0].ctx), "read.remote.batch")
	span.SetAttrInt("owner", int64(owner))
	span.SetAttrInt("batch", int64(len(ops)))
	msg := MsgReadBatch{Reads: make([]MsgRead, len(ops))}
	for i, op := range ops {
		msg.Reads[i] = MsgRead{Key: op.key, Version: op.version}
	}
	raw, err := s.conn.Call(ctx, transport.NodeID(owner), msg)
	span.End()
	if err != nil {
		for _, op := range ops {
			op.done <- combResult{err: fmt.Errorf("core: remote read %q@%v: %w", op.key, op.version, err)}
		}
		return
	}
	resp, ok := raw.(MsgReadBatchResp)
	if !ok || len(resp.Results) != len(ops) {
		for _, op := range ops {
			op.done <- combResult{err: fmt.Errorf("core: remote read %q: malformed batch response %T", op.key, raw)}
		}
		return
	}
	for i, op := range ops {
		r := resp.Results[i]
		if r.Err != "" {
			op.done <- combResult{err: fmt.Errorf("core: remote read %q@%v: %s", op.key, op.version, r.Err)}
			continue
		}
		op.done <- combResult{read: funcRead{Value: r.Resp.Value, Found: r.Resp.Found, Version: r.Resp.Version}}
	}
}

func (c *combiner) dispatchEnsures(owner int, ops []*combOp) {
	s := c.s
	s.stats.recordEnsureBatch(len(ops))
	ctx, span := s.tr.Start(s.engineCtx(ops[0].ctx), "ensure.remote.batch")
	span.SetAttrInt("owner", int64(owner))
	span.SetAttrInt("batch", int64(len(ops)))
	msg := MsgEnsureBatch{Reqs: make([]EnsureReq, len(ops))}
	for i, op := range ops {
		msg.Reqs[i] = EnsureReq{Key: op.key, Version: op.version, UpTo: op.kind == combEnsureUpTo}
	}
	raw, err := s.conn.Call(ctx, transport.NodeID(owner), msg)
	span.End()
	if err != nil {
		for _, op := range ops {
			op.done <- combResult{err: fmt.Errorf("core: ensure %q@%v: %w", op.key, op.version, err)}
		}
		return
	}
	resp, ok := raw.(MsgEnsureBatchResp)
	if !ok || len(resp.Results) != len(ops) {
		for _, op := range ops {
			op.done <- combResult{err: fmt.Errorf("core: ensure %q: malformed batch response %T", op.key, raw)}
		}
		return
	}
	for i, op := range ops {
		r := resp.Results[i]
		if r.Err != "" {
			op.done <- combResult{err: fmt.Errorf("core: ensure %q@%v: %s", op.key, op.version, r.Err)}
			continue
		}
		op.done <- combResult{res: r.Resolution}
	}
}
