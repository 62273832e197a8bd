package transport

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"alohadb/internal/trace"
)

// MemNetwork is an in-process mesh. Messages are passed by reference
// (senders must not mutate messages after sending, which all ALOHA-DB
// message types honour by being immutable). An optional latency model
// delays each message to emulate a data-center network: a delayed message
// waits on the mesh's delay line, is never delivered before it is due, and
// holds no processor while it waits. With zero latency a Call is a plain
// function call, which keeps simulated-cluster benchmarks focused on the
// concurrency-control algorithms.
type MemNetwork struct {
	latency time.Duration
	jitter  time.Duration
	metrics *Metrics
	line    delayLine

	mu     sync.RWMutex
	nodes  map[NodeID]*memConn
	closed bool
}

// NetMetrics implements Instrumented.
func (n *MemNetwork) NetMetrics() *Metrics { return n.metrics }

// MemOption configures a MemNetwork.
type MemOption func(*MemNetwork)

// WithLatency injects a fixed one-way delay plus uniform jitter in [0, j)
// into every message.
func WithLatency(d, j time.Duration) MemOption {
	return func(n *MemNetwork) {
		n.latency = d
		n.jitter = j
	}
}

// NewMemNetwork returns an empty in-memory mesh.
func NewMemNetwork(opts ...MemOption) *MemNetwork {
	n := &MemNetwork{nodes: make(map[NodeID]*memConn), metrics: NewMetrics()}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Node implements Network.
func (n *MemNetwork) Node(id NodeID, h Handler) (Conn, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler for node %d", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.nodes[id]; dup {
		return nil, fmt.Errorf("%w: %d", ErrNodeExists, id)
	}
	c := &memConn{net: n, id: id, handler: h}
	n.nodes[id] = c
	return c, nil
}

// Close implements Network. Messages still on the wire are lost: a Call
// waiting out a hop fails with ErrClosed, a delayed Send is never handled.
func (n *MemNetwork) Close() error {
	n.mu.Lock()
	n.closed = true
	n.nodes = make(map[NodeID]*memConn)
	n.mu.Unlock()
	n.line.close()
	return nil
}

func (n *MemNetwork) lookup(id NodeID) (*memConn, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed {
		return nil, ErrClosed
	}
	c, ok := n.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return c, nil
}

// oneWay draws the delay of one simulated network traversal.
func (n *MemNetwork) oneWay() time.Duration {
	d := n.latency
	if n.jitter > 0 {
		d += time.Duration(rand.Int63n(int64(n.jitter)))
	}
	return d
}

type memConn struct {
	net     *MemNetwork
	id      NodeID
	handler Handler

	mu     sync.Mutex
	closed bool
}

var _ Conn = (*memConn)(nil)

func (c *memConn) Local() NodeID { return c.id }

func (c *memConn) Call(ctx context.Context, to NodeID, req any) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dst, err := c.net.lookup(to)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	c.net.metrics.recordSend()
	// Cancelled or closed on the way out, the request is dropped before the
	// handler sees it; on the way back, the reply is lost.
	if err := c.net.line.wait(ctx, c.net.oneWay()); err != nil {
		return nil, err
	}
	c.net.metrics.recordRecv()
	resp, err := dst.handler(ctx, c.id, req)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrRemote, err)
	}
	if err := c.net.line.wait(ctx, c.net.oneWay()); err != nil {
		return nil, err
	}
	c.net.metrics.recordCall(time.Since(start))
	return resp, nil
}

func (c *memConn) Send(ctx context.Context, to NodeID, req any) error {
	dst, err := c.net.lookup(to)
	if err != nil {
		return err
	}
	// One-way handling must not die with the sender's deadline, so only the
	// trace context crosses; an untraced ctx detaches to Background for
	// free.
	hctx := trace.Detach(context.Background(), ctx)
	c.net.metrics.recordSend()
	// One-way semantics: the caller does not wait for the handler, which
	// runs on a goroutine of its own, started once the message is due.
	c.net.line.after(c.net.oneWay(), func() {
		c.net.metrics.recordRecv()
		_, _ = dst.handler(hctx, c.id, req)
	})
	return nil
}

func (c *memConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.net.mu.Lock()
	delete(c.net.nodes, c.id)
	c.net.mu.Unlock()
	return nil
}

// delayLine releases what is filed with it when it is due. One sleeper sleeps
// until the earliest due instant of a min-heap, pops everything due under the
// lock and releases it outside; it exists only while something is filed — the
// first delayed message starts it, and it exits on close or when it finds the
// heap empty. The zero value is ready to use; close releases the timer's
// descriptor, which a line nobody closes keeps until it is collected.
//
// The sleeper does not sleep by time.Sleep where it can help it (lineTimer): an
// idle Go scheduler parks in the poller with millisecond granularity, and a
// 100 µs hop slept out on a Go timer takes 1.1 ms. There is one sleeper: when
// its thread loses the processor to another process, what is due waits.
//
// A newcomer never cuts a sleep short. Every delay on a mesh is
// latency + [0, jitter), so a newcomer is due at most one jitter span before
// anything filed earlier, and is released at most that much late.
type delayLine struct {
	mu      sync.Mutex
	heap    waiters   // min-heap on due
	closed  bool      // nothing more is accepted
	running bool      // the sleeper exists and will look at the heap again
	timer   lineTimer // what it sleeps on
	exited  sync.WaitGroup
}

// waiter is one message on the wire.
type waiter struct {
	due time.Time
	// A Call waiting out a hop: receives nil when due, ErrClosed when the
	// line closes first. Buffered, so a caller that gave up blocks nobody.
	released chan error
	// A Send: started on a goroutine of its own when due, dropped when the
	// line closes first.
	deliver func()
}

// waiters implements heap.Interface, earliest due first.
type waiters []waiter

func (h waiters) Len() int           { return len(h) }
func (h waiters) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h waiters) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *waiters) Push(w any)        { *h = append(*h, w.(waiter)) }
func (h *waiters) Pop() any {
	last := len(*h) - 1
	w := (*h)[last]
	(*h)[last] = waiter{}
	*h = (*h)[:last]
	return w
}

// wait blocks for d, or until ctx is done or the line closes.
func (l *delayLine) wait(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	released := make(chan error, 1)
	if !l.file(d, waiter{released: released}) {
		return ErrClosed
	}
	select {
	case err := <-released:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// after starts deliver on a new goroutine once d has passed, unless the line
// closes first.
func (l *delayLine) after(d time.Duration, deliver func()) {
	if d <= 0 {
		go deliver()
		return
	}
	l.file(d, waiter{deliver: deliver})
}

// file adds w to the heap, due in d, and makes sure the sleeper will get to
// it; false when the line is closed.
func (l *delayLine) file(d time.Duration, w waiter) bool {
	w.due = time.Now().Add(d)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	heap.Push(&l.heap, w)
	if !l.running {
		l.running = true
		l.exited.Add(1)
		go l.sleeper()
	}
	return true
}

// close fails every waiting Call with ErrClosed, drops every undelivered
// Send, and returns once the sleeper has exited: at most one hop's delay
// later, when it is asleep toward a waiter just dropped.
func (l *delayLine) close() {
	l.mu.Lock()
	dropped := l.heap
	l.heap, l.closed = nil, true
	l.mu.Unlock()
	for _, w := range dropped {
		if w.released != nil {
			w.released <- ErrClosed
		}
	}
	l.exited.Wait()
	l.timer.close()
}

// sleeper releases what is due, sleeps to the next due instant, and so on. It
// exits when nothing is filed, and clears running so that whoever files next
// starts a successor.
func (l *delayLine) sleeper() {
	defer l.exited.Done()
	var due []waiter
	for {
		l.mu.Lock()
		now := time.Now()
		for len(l.heap) > 0 && !l.heap[0].due.After(now) {
			due = append(due, heap.Pop(&l.heap).(waiter))
		}
		var next time.Time
		if len(l.heap) > 0 {
			next = l.heap[0].due
		} else {
			l.running = false
		}
		l.mu.Unlock()

		// Released outside the lock: a channel send readies a goroutine, a
		// Send's handler gets one of its own.
		for i, w := range due {
			if w.released != nil {
				w.released <- nil
			} else {
				go w.deliver()
			}
			due[i] = waiter{}
		}
		due = due[:0]
		if next.IsZero() {
			return
		}
		l.timer.sleepUntil(next)
	}
}
