package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/obs"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

// combiner merges concurrent remote reads and ensures destined for the
// same owner into one MsgFetch, extending the paper's install convention —
// one message per involved partition (§V) — to the functor hot path: under
// load, many functor computations read single keys of the same remote
// partition at once, and each such read is otherwise a full RPC.
//
// Per owner, one former goroutine drains the op queue: the first op of an
// idle owner leaves at once as a one-item MsgFetch, and ops that accumulate
// while the former is active leave together. Dispatches are asynchronous —
// the former never waits for a response. Holding the owner slot across the
// RPC would be the textbook combining window, but compute paths recurse
// across partitions (a served read can trigger computations that read
// back), and two owners waiting on each other's held slots would deadlock;
// forming batches without bounding RPC concurrency keeps the merge and
// cannot create a wait cycle.
type combiner struct {
	s *Server

	mu     sync.Mutex
	owners map[int]*ownerQueue
}

// maxCombine bounds ops per MsgFetch so a deep queue becomes several
// reasonably-sized RPCs instead of one giant envelope.
const maxCombine = 128

type ownerQueue struct {
	mu      sync.Mutex
	ops     []*combOp
	forming bool
}

type combOp struct {
	req FetchReq
	// ctx is the caller's context: its trace labels the dispatch and its
	// cancellation releases only this caller's wait, never the shared RPC.
	ctx  context.Context
	done chan combResult
}

type combResult struct {
	r   FetchResult
	err error
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

func newCombiner(s *Server) *combiner {
	return &combiner{s: s, owners: make(map[int]*ownerQueue)}
}

// read performs a remote read through the combiner.
func (c *combiner) read(ctx context.Context, owner int, k kv.Key, v tstamp.Timestamp) (funcRead, error) {
	r, err := c.do(ctx, owner, FetchReq{Kind: FetchRead, Key: k, Version: v})
	return funcRead{Value: r.Value, Found: r.Found, Version: r.Version}, err
}

// ensure computes the functor at (k, v) on its owner and returns the
// resolution.
func (c *combiner) ensure(ctx context.Context, owner int, k kv.Key, v tstamp.Timestamp) (*functor.Resolution, error) {
	r, err := c.do(ctx, owner, FetchReq{Kind: FetchEnsure, Key: k, Version: v})
	return r.Resolution, err
}

// ensureUpTo settles k up to v on its owner (FetchUpTo).
func (c *combiner) ensureUpTo(ctx context.Context, owner int, k kv.Key, v tstamp.Timestamp) error {
	_, err := c.do(ctx, owner, FetchReq{Kind: FetchUpTo, Key: k, Version: v})
	return err
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

func (c *combiner) do(ctx context.Context, owner int, req FetchReq) (FetchResult, error) {
	op := combOpPool.Get().(*combOp)
	op.req, op.ctx = req, ctx
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
		op.req, op.ctx = FetchReq{}, nil
		combOpPool.Put(op)
		return r.r, r.err
	case <-ctx.Done():
		// The shared dispatch proceeds for the other waiters; only this
		// caller gives up (done is buffered, so the late send never blocks,
		// and the abandoned op stays out of the pool).
		return FetchResult{}, ctx.Err()
	}
}

// formLoop drains one owner's queue: grab whatever is queued, dispatch it
// asynchronously, briefly yield so concurrent producers can publish the
// next batch, and exit once the queue stays empty.
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
		runtime.Gosched()
	}
}

// fetchVerb names an item's operation in its caller's error.
var fetchVerb = [...]string{FetchRead: "remote read", FetchEnsure: "ensure", FetchUpTo: "ensure up to"}

// dispatch sends what the former took off one owner's queue as one
// MsgFetch and hands each waiter its own item's result.
func (c *combiner) dispatch(owner int, ops []*combOp) {
	s := c.s
	msg := MsgFetch{Reqs: make([]FetchReq, len(ops))}
	reads := 0
	for i, op := range ops {
		msg.Reqs[i] = op.req
		if op.req.Kind == FetchRead {
			reads++
		}
	}
	if reads > 0 {
		s.stats.recordReadBatch(reads)
	}
	if ensures := len(ops) - reads; ensures > 0 {
		s.stats.recordEnsureBatch(ensures)
	}
	ctx, span := s.tr.Start(s.engineCtx(ops[0].ctx), "fetch.remote")
	if len(ops) == 1 {
		span.SetAttr("key", string(ops[0].req.Key))
	}
	span.SetAttrInt("owner", int64(owner))
	span.SetAttrInt("batch", int64(len(ops)))
	raw, err := s.conn.Call(ctx, transport.NodeID(owner), msg)
	span.End()
	resp, ok := raw.(MsgFetchResp)
	if err == nil && (!ok || len(resp.Results) != len(ops)) {
		err = fmt.Errorf("malformed response %T", raw)
	}
	for i, op := range ops {
		q := op.req
		switch {
		case err != nil:
			op.done <- combResult{err: fmt.Errorf("core: %s %q@%v: %w", fetchVerb[q.Kind], q.Key, q.Version, err)}
		case resp.Results[i].Err != "":
			op.done <- combResult{err: fmt.Errorf("core: %s %q@%v: %s", fetchVerb[q.Kind], q.Key, q.Version, resp.Results[i].Err)}
		default:
			op.done <- combResult{r: resp.Results[i]}
		}
	}
}
