package transport

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"alohadb/internal/trace"
	"alohadb/internal/wire"
)

const (
	kindRequest uint8 = iota + 1
	kindResponse
	kindOneway
)

// envelope is the wire's own: queues and read loops hand it to the codec as is.
type envelope = wire.Envelope

// Write-path constants. The flush threshold matches bufio's sweet spot for
// loopback and data-center MTU trains: the flusher writes to the socket once
// this many encoded bytes accumulate, or when the send queue drains,
// whichever comes first. The per-peer send-queue bound provides backpressure
// well before memory pressure.
const (
	flushBytes            = 64 << 10
	sendQueue             = 512
	defaultInboundWorkers = 16
)

// TCPNetwork is a mesh over TCP with a static address book. Each attached
// node listens on its own address; peers dial lazily and keep one
// connection per direction. Messages are length-prefixed binary envelopes
// (internal/wire), coalesced per peer: senders enqueue onto a bounded
// per-peer queue and a dedicated flusher encodes many envelopes into one
// buffer per socket write.
type TCPNetwork struct {
	addrs   map[NodeID]string
	metrics *Metrics
	// inboundWorkers is the per-node worker-pool size for inbound requests
	// (a test shrinks it to saturate the pool).
	inboundWorkers int

	mu     sync.Mutex
	nodes  []*tcpConn
	closed bool
}

// NewTCPNetwork returns a mesh using the given node address book.
func NewTCPNetwork(addrs map[NodeID]string) *TCPNetwork {
	book := make(map[NodeID]string, len(addrs))
	for id, a := range addrs {
		book[id] = a
	}
	return &TCPNetwork{addrs: book, metrics: NewMetrics(), inboundWorkers: defaultInboundWorkers}
}

// NetMetrics implements Instrumented.
func (n *TCPNetwork) NetMetrics() *Metrics { return n.metrics }

// SendQueueDepths implements QueueReporter: the instantaneous outbound
// queue depth per dialed peer, across every node attached in this process.
// A deep queue names the backed-up (or severed) link in a stall snapshot.
func (n *TCPNetwork) SendQueueDepths() map[NodeID]int {
	n.mu.Lock()
	nodes := make([]*tcpConn, len(n.nodes))
	copy(nodes, n.nodes)
	n.mu.Unlock()
	depths := make(map[NodeID]int)
	for _, c := range nodes {
		c.peersMu.Lock()
		for id, p := range c.peers {
			depths[id] += len(p.sendq)
		}
		c.peersMu.Unlock()
	}
	return depths
}

// MaxSendQueueDepth reports the deepest outbound queue across every peer
// of every node attached in this process. Unlike SendQueueDepths it
// allocates nothing: the flight recorder samples it on every tick, where
// a per-call map would be steady-state garbage.
func (n *TCPNetwork) MaxSendQueueDepth() int {
	n.mu.Lock()
	nodes := n.nodes // header copy; the backing array is append-only
	n.mu.Unlock()
	max := 0
	for _, c := range nodes {
		c.peersMu.Lock()
		for _, p := range c.peers {
			if d := len(p.sendq); d > max {
				max = d
			}
		}
		c.peersMu.Unlock()
	}
	return max
}

// countingWriter tallies bytes and Write calls issued to a peer socket.
type countingWriter struct {
	w io.Writer
	m *Metrics
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.m.bytesSent.Add(uint64(n))
	cw.m.socketWrites.Inc()
	return n, err
}

// countingReader tallies bytes read from a peer connection.
type countingReader struct {
	r io.Reader
	m *Metrics
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.m.bytesRecv.Add(uint64(n))
	return n, err
}

// Node implements Network: it starts a listener on the node's address.
func (n *TCPNetwork) Node(id NodeID, h Handler) (Conn, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler for node %d", id)
	}
	addr, ok := n.addrs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d has no address", ErrUnknownNode, id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	c := &tcpConn{
		net:     n,
		id:      id,
		handler: h,
		ln:      ln,
		peers:   make(map[NodeID]*tcpPeer),
		work:    make(chan inboundReq), // unbuffered: hand-off to idle workers only
		stop:    make(chan struct{}),
	}
	// If the address book used port 0, record the actual port so peers on
	// this process can reach the node (test convenience).
	n.addrs[id] = ln.Addr().String()
	n.nodes = append(n.nodes, c)
	c.wg.Add(1)
	go c.acceptLoop()
	// The bounded pool absorbs the steady-state request load; dispatch
	// spills past it (see dispatchInbound) so it can never deadlock.
	c.wg.Add(n.inboundWorkers)
	for i := 0; i < n.inboundWorkers; i++ {
		go c.inboundWorker()
	}
	return c, nil
}

// Addr returns the bound address of node id (useful after port-0 binds).
func (n *TCPNetwork) Addr(id NodeID) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.addrs[id]
}

// Close implements Network.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	nodes := n.nodes
	n.nodes = nil
	n.closed = true
	n.mu.Unlock()
	var firstErr error
	for _, c := range nodes {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// tcpPeer is one direction of traffic to one connection: a bounded send
// queue drained by a dedicated flusher goroutine (see flushLoop). Both
// outbound (dialed) connections and the reply path of inbound connections
// are tcpPeers.
type tcpPeer struct {
	conn  net.Conn
	sendq chan *envelope
	dead  chan struct{}
	once  sync.Once
}

func newTCPPeer(conn net.Conn) *tcpPeer {
	return &tcpPeer{
		conn:  conn,
		sendq: make(chan *envelope, sendQueue),
		dead:  make(chan struct{}),
	}
}

// kill closes the connection and releases blocked senders and the flusher.
func (p *tcpPeer) kill() {
	p.once.Do(func() {
		close(p.dead)
		p.conn.Close()
	})
}

// enqueue hands one envelope to the flusher, blocking for queue space
// (backpressure) and failing once the peer is dead.
func (p *tcpPeer) enqueue(env *envelope, m *Metrics) error {
	select {
	case p.sendq <- env:
		m.recordEnqueue(len(p.sendq))
		return nil
	case <-p.dead:
		return fmt.Errorf("transport: peer connection down")
	}
}

type inboundReq struct {
	env envelope
	out *tcpPeer // reply path; nil for one-way messages
}

type tcpConn struct {
	net     *TCPNetwork
	id      NodeID
	handler Handler
	ln      net.Listener
	work    chan inboundReq
	stop    chan struct{}

	peersMu sync.Mutex
	peers   map[NodeID]*tcpPeer

	inboundMu sync.Mutex
	inbound   map[net.Conn]*tcpPeer

	pending sync.Map // uint64 -> chan callResult
	nextID  atomic.Uint64
	closed  atomic.Bool
	wg      sync.WaitGroup
}

var _ Conn = (*tcpConn)(nil)

type callResult struct {
	payload any
	err     error
}

func (c *tcpConn) Local() NodeID { return c.id }

func (c *tcpConn) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		out := newTCPPeer(conn)
		c.inboundMu.Lock()
		if c.inbound == nil {
			c.inbound = make(map[net.Conn]*tcpPeer)
		}
		c.inbound[conn] = out
		c.inboundMu.Unlock()
		c.wg.Add(2)
		go c.serveInbound(conn, out)
		go c.flushLoop(out, nil)
	}
}

// serveInbound reads requests from one accepted connection and dispatches
// them to the worker pool; responses ride the same connection through the
// peer's flusher.
func (c *tcpConn) serveInbound(conn net.Conn, out *tcpPeer) {
	defer c.wg.Done()
	defer func() {
		out.kill()
		c.inboundMu.Lock()
		delete(c.inbound, conn)
		c.inboundMu.Unlock()
	}()
	dec, err := newFrameDecoder(conn, c.net.metrics, flushBytes)
	if err != nil {
		return
	}
	env := new(envelope)
	for {
		if err := dec.decode(env); err != nil {
			return
		}
		c.net.metrics.recordRecv()
		switch env.Kind {
		case kindOneway:
			c.dispatchInbound(inboundReq{env: *env})
		case kindRequest:
			c.dispatchInbound(inboundReq{env: *env, out: out})
		default:
			// A response on an inbound connection is a protocol violation;
			// drop it.
		}
	}
}

// dispatchInbound hands one request to an idle pool worker, or spills to a
// fresh goroutine when the pool is saturated. The spill is what keeps the
// pool bound safe: handlers may block indefinitely (MsgWaitComputed waits
// for a functor whose inputs can arrive as further inbound messages), so
// parking requests behind busy workers could deadlock the cluster.
func (c *tcpConn) dispatchInbound(req inboundReq) {
	select {
	case c.work <- req:
		return
	default:
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.handleInbound(req)
	}()
}

func (c *tcpConn) inboundWorker() {
	defer c.wg.Done()
	for {
		select {
		case req := <-c.work:
			c.handleInbound(req)
		case <-c.stop:
			return
		}
	}
}

func (c *tcpConn) handleInbound(req inboundReq) {
	env := &req.env
	ctx := trace.ContextWith(context.Background(), env.Trace)
	if req.out == nil {
		_, _ = c.handler(ctx, NodeID(env.From), env.Msg)
		return
	}
	resp, err := c.handler(ctx, NodeID(env.From), env.Msg)
	if err == nil {
		err = checkEncodable(resp)
	}
	reply := getEnvelope()
	reply.ID = env.ID
	reply.From = int(c.id)
	reply.Kind = kindResponse
	reply.Msg = resp
	if err != nil {
		reply.ErrText = err.Error()
		reply.Msg = nil
	}
	if req.out.enqueue(reply, c.net.metrics) != nil {
		putEnvelope(reply) // never reached the queue
	}
}

// flushLoop is the peer's dedicated writer: it drains the send queue
// through the wire codec into a coalescing buffer and flushes many
// envelopes per socket write. A flush happens when the queue momentarily
// drains or when flushBytes of encoded data accumulate. onErr, when
// non-nil, reports a write failure (outbound peers drop the link and fail
// pending calls); inbound reply paths just close the connection, which
// terminates the serve loop too.
func (c *tcpConn) flushLoop(p *tcpPeer, onErr func(error)) {
	defer c.wg.Done()
	enc := newFrameEncoder(countingWriter{w: p.conn, m: c.net.metrics}, c.net.metrics, flushBytes)
	for {
		var env *envelope
		select {
		case env = <-p.sendq:
		case <-p.dead:
			return
		}
		var err error
		batch := 0
		encode := func(e *envelope) {
			if err == nil {
				if err = enc.encode(e); err == nil {
					batch++
					putEnvelope(e)
				}
			}
		}
		encode(env)
		yields := 0
		for err == nil && enc.buffered() < flushBytes {
			select {
			case e := <-p.sendq:
				encode(e)
				yields = 0
				continue
			case <-p.dead:
				return
			default:
			}
			// The queue looks empty, but producers that will enqueue next
			// are often already runnable (a burst of concurrent senders).
			// Yielding the processor once or twice before paying the flush
			// syscall lets them publish, multiplying envelopes per write at
			// no cost when the transport is genuinely idle.
			if yields == 2 {
				break
			}
			yields++
			runtime.Gosched()
		}
		buffered := int64(enc.buffered())
		if err == nil {
			err = enc.flush()
		}
		if err != nil {
			p.kill()
			if onErr != nil {
				onErr(err)
			}
			return
		}
		c.net.metrics.recordFlush(batch, buffered)
		c.net.metrics.recordSendN(batch)
	}
}

// readResponses consumes responses arriving on an outbound connection.
func (c *tcpConn) readResponses(to NodeID, conn net.Conn) {
	defer c.wg.Done()
	dec, err := newFrameDecoder(conn, c.net.metrics, flushBytes)
	if err != nil {
		c.dropPeer(to, err)
		return
	}
	env := new(envelope)
	for {
		if err := dec.decode(env); err != nil {
			c.dropPeer(to, err)
			return
		}
		c.net.metrics.recordRecv()
		if env.Kind != kindResponse {
			continue
		}
		if ch, ok := c.pending.LoadAndDelete(env.ID); ok {
			res := callResult{payload: env.Msg}
			if env.ErrText != "" {
				res.err = fmt.Errorf("%w: %s", ErrRemote, env.ErrText)
			}
			ch.(chan callResult) <- res
		}
	}
}

func (c *tcpConn) dropPeer(to NodeID, cause error) {
	c.peersMu.Lock()
	p := c.peers[to]
	delete(c.peers, to)
	c.peersMu.Unlock()
	if p != nil {
		p.kill()
	}
	if cause == nil {
		cause = io.ErrUnexpectedEOF
	}
	// Fail outstanding calls so callers do not hang. Responses ride the
	// dropped connection, so even a clean io.EOF dooms every call in
	// flight — the cause makes no difference. Pending entries are not
	// segregated per peer; failing all of them on a broken link is an
	// acceptable simplification for a crash-stop model (callers retry).
	c.pending.Range(func(k, v any) bool {
		if _, loaded := c.pending.LoadAndDelete(k); loaded {
			v.(chan callResult) <- callResult{err: fmt.Errorf("transport: link to %d lost: %w", to, cause)}
		}
		return true
	})
}

func (c *tcpConn) peerFor(to NodeID) (*tcpPeer, error) {
	c.peersMu.Lock()
	defer c.peersMu.Unlock()
	if p, ok := c.peers[to]; ok {
		return p, nil
	}
	addr := c.net.Addr(to)
	if addr == "" {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial node %d (%s): %w", to, addr, err)
	}
	p := newTCPPeer(conn)
	c.peers[to] = p
	c.wg.Add(2)
	go c.readResponses(to, conn)
	go c.flushLoop(p, func(err error) { c.dropPeer(to, err) })
	return p, nil
}

// checkEncodable refuses a payload the flusher could not encode: there an
// encode failure kills the link like a dead socket, under every other
// caller; a type nobody registered must fail only the call that carries it.
func checkEncodable(payload any) error {
	if payload == nil || wire.Registered(payload) {
		return nil
	}
	return fmt.Errorf("transport: no wire codec registered for %T", payload)
}

func (c *tcpConn) Call(ctx context.Context, to NodeID, req any) (any, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if err := checkEncodable(req); err != nil {
		return nil, err
	}
	p, err := c.peerFor(to)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	id := c.nextID.Add(1)
	ch := make(chan callResult, 1)
	c.pending.Store(id, ch)
	if c.closed.Load() {
		// Close may have swept pending before our Store; never hang.
		c.pending.Delete(id)
		return nil, ErrClosed
	}
	env := getEnvelope()
	env.ID = id
	env.From = int(c.id)
	env.Kind = kindRequest
	env.Trace = trace.FromContext(ctx)
	env.Msg = req
	if err := p.enqueue(env, c.net.metrics); err != nil {
		putEnvelope(env) // never reached the queue
		c.pending.Delete(id)
		return nil, fmt.Errorf("transport: send to node %d: %w", to, err)
	}
	select {
	case res := <-ch:
		if res.err == nil {
			c.net.metrics.recordCall(time.Since(start))
		}
		return res.payload, res.err
	case <-ctx.Done():
		c.pending.Delete(id)
		return nil, ctx.Err()
	}
}

func (c *tcpConn) Send(ctx context.Context, to NodeID, req any) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if err := checkEncodable(req); err != nil {
		return err
	}
	p, err := c.peerFor(to)
	if err != nil {
		return err
	}
	env := getEnvelope()
	env.From = int(c.id)
	env.Kind = kindOneway
	env.Trace = trace.FromContext(ctx)
	env.Msg = req
	if err := p.enqueue(env, c.net.metrics); err != nil {
		putEnvelope(env) // never reached the queue
		return fmt.Errorf("transport: send to node %d: %w", to, err)
	}
	return nil
}

func (c *tcpConn) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := c.ln.Close()
	c.peersMu.Lock()
	for id, p := range c.peers {
		p.kill()
		delete(c.peers, id)
	}
	c.peersMu.Unlock()
	c.inboundMu.Lock()
	for conn, p := range c.inbound {
		p.kill()
		delete(c.inbound, conn)
	}
	c.inboundMu.Unlock()
	close(c.stop)
	// Fail outstanding calls.
	c.pending.Range(func(k, v any) bool {
		if _, loaded := c.pending.LoadAndDelete(k); loaded {
			v.(chan callResult) <- callResult{err: ErrClosed}
		}
		return true
	})
	c.wg.Wait()
	return err
}
