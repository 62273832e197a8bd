// Package chaos is a deterministic, seed-driven fault injector for the
// transport mesh. Wrap decorates any transport.Network — the in-memory mesh
// or the TCP one — with a layer that can drop requests, drop responses,
// lose one-way sends, duplicate deliveries, delay messages (reordering
// concurrent traffic), sever and heal directional links (asymmetric
// partitions), and crash/restart whole nodes.
//
// Every per-message decision is drawn from a single seeded PRNG as a
// fixed-size vector, so the fault schedule is a pure function of the seed
// and the message arrival order: a failing run replays by seed, and a
// decision log, which the package's tests turn on, lets them assert
// bit-for-bit identical schedules.
//
// The injector mirrors what a real network can do to each traffic class.
// Calls behave like RPCs over TCP: a dropped request or dropped response
// surfaces as an error at the caller (never a silent half-delivery), with
// the request-drop variant guaranteeing the handler did not run and the
// response-drop variant running the handler and discarding its answer —
// the classic "did my write land?" ambiguity. Sends are fire-and-forget
// datagrams: loss is silent. All injected errors wrap ErrInjected so
// workloads can tell chaos from real failures.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"alohadb/internal/trace"
	"alohadb/internal/transport"
)

// ErrInjected is the sentinel wrapped by every chaos-injected failure.
var ErrInjected = errors.New("chaos: injected fault")

// Fault identifies one injected fault kind inside a Decision.
type Fault uint8

const (
	// FaultDropCall fails a Call before the request reaches the handler.
	FaultDropCall Fault = iota + 1
	// FaultDropResp runs the handler but fails the Call afterwards, so the
	// caller cannot tell whether the request was applied.
	FaultDropResp
	// FaultDropSend silently loses a one-way Send.
	FaultDropSend
	// FaultDuplicate delivers the message twice.
	FaultDuplicate
	// FaultDelay holds the message for Decision.Delay before delivery,
	// reordering it against concurrent traffic.
	FaultDelay
	// FaultSevered rejects the message because the directional link (or an
	// endpoint) is down.
	FaultSevered
)

func (f Fault) String() string {
	switch f {
	case FaultDropCall:
		return "drop-call"
	case FaultDropResp:
		return "drop-resp"
	case FaultDropSend:
		return "drop-send"
	case FaultDuplicate:
		return "duplicate"
	case FaultDelay:
		return "delay"
	case FaultSevered:
		return "severed"
	default:
		return "none"
	}
}

// Decision records the injector's choices for one message, in application
// order. The sequence of Decisions is the fault schedule; two runs with the
// same seed and message order produce identical sequences.
type Decision struct {
	Seq    uint64
	Call   bool // Call traffic (false: Send)
	From   transport.NodeID
	To     transport.NodeID
	Msg    string // message type (%T), kept only while the log records
	Faults []Fault
	Delay  time.Duration
}

func (d Decision) has(f Fault) bool {
	for _, g := range d.Faults {
		if g == f {
			return true
		}
	}
	return false
}

// Probabilities sets the per-message fault rates, each in [0,1].
type Probabilities struct {
	DropCall  float64
	DropResp  float64
	DropSend  float64
	Duplicate float64
	Delay     float64
	// MaxDelay bounds the uniform delay drawn when a Delay fault fires.
	MaxDelay time.Duration
}

// DefaultProbabilities is a moderately hostile network: a few percent of
// messages misbehave, a quarter are delayed (reordered).
func DefaultProbabilities() Probabilities {
	return Probabilities{
		DropCall:  0.02,
		DropResp:  0.01,
		DropSend:  0.05,
		Duplicate: 0.02,
		Delay:     0.25,
		MaxDelay:  3 * time.Millisecond,
	}
}

// Config configures a chaos network.
type Config struct {
	// Seed drives every probabilistic decision. The same seed over the
	// same message sequence yields the same fault schedule.
	Seed int64
	// Probabilities are the per-message fault rates; the zero value
	// injects nothing (links can still be severed explicitly).
	Probabilities Probabilities
	// Protect exempts matching messages from probabilistic faults (they
	// still respect severed links). Useful to keep e.g. the epoch protocol
	// alive while data traffic degrades.
	Protect func(msg any) bool
}

// Stats counts injected faults; all fields are cumulative.
type Stats struct {
	Calls      uint64 // Call attempts seen
	Sends      uint64 // Send attempts seen
	DropsCall  uint64
	DropsResp  uint64
	DropsSend  uint64
	Duplicates uint64
	Delays     uint64
	LinkDenied uint64 // messages rejected by severed links
}

// Injected returns the total number of injected faults.
func (s Stats) Injected() uint64 {
	return s.DropsCall + s.DropsResp + s.DropsSend + s.Duplicates + s.Delays + s.LinkDenied
}

func (s Stats) String() string {
	return fmt.Sprintf("calls=%d sends=%d drop-call=%d drop-resp=%d drop-send=%d dup=%d delay=%d link-denied=%d",
		s.Calls, s.Sends, s.DropsCall, s.DropsResp, s.DropsSend, s.Duplicates, s.Delays, s.LinkDenied)
}

type link struct{ from, to transport.NodeID }

// Network decorates an inner transport.Network with fault injection.
type Network struct {
	inner transport.Network
	cfg   Config

	mu      sync.Mutex
	rng     *rand.Rand
	seq     uint64
	enabled bool
	severed map[link]bool
	delayed map[link]time.Duration
	// recording turns the decision log on; only the package's tests do.
	recording bool
	log       []Decision

	calls      atomic.Uint64
	sends      atomic.Uint64
	dropsCall  atomic.Uint64
	dropsResp  atomic.Uint64
	dropsSend  atomic.Uint64
	duplicates atomic.Uint64
	delays     atomic.Uint64
	linkDenied atomic.Uint64
}

// Wrap builds a chaos network around inner. Injection starts enabled.
func Wrap(inner transport.Network, cfg Config) *Network {
	return &Network{
		inner:   inner,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		enabled: true,
		severed: make(map[link]bool),
		delayed: make(map[link]time.Duration),
	}
}

// Node implements transport.Network.
func (n *Network) Node(id transport.NodeID, h transport.Handler) (transport.Conn, error) {
	inner, err := n.inner.Node(id, h)
	if err != nil {
		return nil, err
	}
	return &conn{net: n, inner: inner, id: id}, nil
}

// Close implements transport.Network.
func (n *Network) Close() error { return n.inner.Close() }

// NetMetrics forwards the inner network's transport metrics when it has
// them, keeping the decorator drop-in for instrumented deployments.
func (n *Network) NetMetrics() *transport.Metrics {
	if inst, ok := n.inner.(transport.Instrumented); ok {
		return inst.NetMetrics()
	}
	return nil
}

// SetEnabled switches probabilistic injection on or off. While disabled no
// PRNG draws happen and no decisions are logged; explicit link/crash state
// still applies. Used to quiesce a scenario before its final verification
// reads.
func (n *Network) SetEnabled(v bool) {
	n.mu.Lock()
	n.enabled = v
	n.mu.Unlock()
}

// Sever cuts the directional link from -> to; messages across it fail at
// the sender. Sever(a,b) without Sever(b,a) is an asymmetric partition.
func (n *Network) Sever(from, to transport.NodeID) {
	n.mu.Lock()
	n.severed[link{from, to}] = true
	n.mu.Unlock()
}

// Heal restores the directional link from -> to (clearing both a sever
// and a fixed delay).
func (n *Network) Heal(from, to transport.NodeID) {
	n.mu.Lock()
	delete(n.severed, link{from, to})
	delete(n.delayed, link{from, to})
	n.mu.Unlock()
}

// DelayLink adds a fixed, deterministic delay to every message crossing
// the directional link from -> to (a slow path, not a lossy one). Unlike
// the probabilistic Delay fault it consumes no PRNG draws, so setting it
// mid-run shifts no later decision — replay stability is preserved. A
// non-positive d clears the delay; Heal and HealAll clear it too.
func (n *Network) DelayLink(from, to transport.NodeID, d time.Duration) {
	n.mu.Lock()
	if d <= 0 {
		delete(n.delayed, link{from, to})
	} else {
		n.delayed[link{from, to}] = d
	}
	n.mu.Unlock()
}

// HealAll clears every severed link and link delay.
func (n *Network) HealAll() {
	n.mu.Lock()
	n.severed = make(map[link]bool)
	n.delayed = make(map[link]time.Duration)
	n.mu.Unlock()
}

// Stats snapshots the fault counters.
func (n *Network) Stats() Stats {
	return Stats{
		Calls:      n.calls.Load(),
		Sends:      n.sends.Load(),
		DropsCall:  n.dropsCall.Load(),
		DropsResp:  n.dropsResp.Load(),
		DropsSend:  n.dropsSend.Load(),
		Duplicates: n.duplicates.Load(),
		Delays:     n.delays.Load(),
		LinkDenied: n.linkDenied.Load(),
	}
}

// decide draws this message's fault vector. Exactly five uniform draws per
// enabled, unprotected message — a fixed consumption rate, so the schedule
// depends only on the seed and the order messages reach the injector, not
// on which faults happened to fire earlier.
func (n *Network) decide(isCall bool, from, to transport.NodeID, msg any) Decision {
	if isCall {
		n.calls.Add(1)
	} else {
		n.sends.Add(1)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seq++
	d := Decision{Seq: n.seq, Call: isCall, From: from, To: to}
	down := n.severed[link{from, to}]
	if n.enabled && (n.cfg.Protect == nil || !n.cfg.Protect(msg)) {
		p := n.cfg.Probabilities
		vec := [5]float64{n.rng.Float64(), n.rng.Float64(), n.rng.Float64(), n.rng.Float64(), n.rng.Float64()}
		if isCall {
			if vec[0] < p.DropCall {
				d.Faults = append(d.Faults, FaultDropCall)
			} else if vec[1] < p.DropResp {
				d.Faults = append(d.Faults, FaultDropResp)
			}
		} else if vec[2] < p.DropSend {
			d.Faults = append(d.Faults, FaultDropSend)
		}
		if vec[3] < p.Duplicate {
			d.Faults = append(d.Faults, FaultDuplicate)
		}
		if vec[4] < p.Delay && p.MaxDelay > 0 {
			d.Faults = append(d.Faults, FaultDelay)
			d.Delay = time.Duration(n.rng.Int63n(int64(p.MaxDelay))) + 1
		}
		if n.recording {
			d.Msg = fmt.Sprintf("%T", msg)
			n.log = append(n.log, d)
		}
	}
	if down {
		// Link state overrides the drawn faults but does not change PRNG
		// consumption, so severing a link mid-run shifts no later decision.
		d.Faults = append(d.Faults[:0], FaultSevered)
		d.Delay = 0
	} else if fixed := n.delayed[link{from, to}]; fixed > 0 && fixed > d.Delay {
		// A deterministic link delay stacks the same way: applied after the
		// draws, consuming none, keeping the probabilistic schedule intact.
		if !d.has(FaultDelay) {
			d.Faults = append(d.Faults, FaultDelay)
		}
		d.Delay = fixed
	}
	return d
}

type conn struct {
	net   *Network
	inner transport.Conn
	id    transport.NodeID
}

// Call implements transport.Conn with sender-side fault injection.
func (c *conn) Call(ctx context.Context, to transport.NodeID, req any) (any, error) {
	n := c.net
	d := n.decide(true, c.id, to, req)
	if d.has(FaultSevered) {
		n.linkDenied.Add(1)
		return nil, fmt.Errorf("%w: link %d->%d down (%T)", ErrInjected, c.id, to, req)
	}
	if d.has(FaultDropCall) {
		n.dropsCall.Add(1)
		return nil, fmt.Errorf("%w: request dropped (%T %d->%d)", ErrInjected, req, c.id, to)
	}
	if d.Delay > 0 {
		n.delays.Add(1)
		if err := sleepCtx(ctx, d.Delay); err != nil {
			return nil, err
		}
	}
	if d.has(FaultDuplicate) {
		n.duplicates.Add(1)
		// The duplicate races the original, exercising handler idempotency.
		// It rides a detached context carrying only the trace: the caller
		// returning must not recall a duplicate already "on the wire".
		dup := trace.Detach(context.Background(), ctx)
		go func() { _, _ = c.inner.Call(dup, to, req) }()
	}
	resp, err := c.inner.Call(ctx, to, req)
	if err != nil {
		return nil, err
	}
	if d.has(FaultDropResp) {
		n.dropsResp.Add(1)
		return nil, fmt.Errorf("%w: response dropped (%T %d->%d)", ErrInjected, req, c.id, to)
	}
	return resp, nil
}

// Send implements transport.Conn. Loss is silent — one-way traffic has no
// acknowledgment to fail — so only optimization-grade messages should ride
// Send (which is the engine's contract already).
func (c *conn) Send(ctx context.Context, to transport.NodeID, req any) error {
	n := c.net
	d := n.decide(false, c.id, to, req)
	if d.has(FaultSevered) {
		n.linkDenied.Add(1)
		return nil
	}
	if d.has(FaultDropSend) {
		n.dropsSend.Add(1)
		return nil
	}
	copies := 1
	if d.has(FaultDuplicate) {
		n.duplicates.Add(1)
		copies = 2
	}
	if d.Delay > 0 {
		n.delays.Add(1)
		delayed := trace.Detach(context.Background(), ctx)
		go func() {
			if sleepCtx(delayed, d.Delay) != nil {
				return
			}
			for i := 0; i < copies; i++ {
				_ = c.inner.Send(delayed, to, req)
			}
		}()
		return nil
	}
	for i := 0; i < copies; i++ {
		if err := c.inner.Send(ctx, to, req); err != nil {
			return err
		}
	}
	return nil
}

// Local implements transport.Conn.
func (c *conn) Local() transport.NodeID { return c.inner.Local() }

// Close implements transport.Conn.
func (c *conn) Close() error { return c.inner.Close() }

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
