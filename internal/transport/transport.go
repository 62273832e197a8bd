// Package transport provides the messaging substrate connecting ALOHA-DB
// servers (and the Calvin baseline). Two implementations share one
// interface: an in-memory network with configurable latency/jitter
// injection used by the simulated clusters in tests and benchmarks, and a
// TCP network used by the multi-process deployment (cmd/aloha-server).
// Over TCP every message is a length-prefixed binary frame of
// internal/wire, the one codec; a message type must be registered there
// before it can be sent, and Call/Send refuse one that is not.
//
// The model is a symmetric node mesh: every node registers one handler and
// obtains a Conn through which it can Call (request/response) or Send
// (one-way) any other node by ID.
//
// Both implementations propagate trace context (internal/trace) from the
// caller's context to the handler's: the in-memory mesh passes it as a
// context value, the TCP mesh serializes it as an envelope field. Handlers
// therefore see the sending transaction's trace and can attach child spans.
package transport

import (
	"context"
	"errors"
)

// NodeID identifies one node of the mesh. ALOHA-DB assigns servers
// 0..n-1 and the epoch manager a dedicated ID.
type NodeID int

// Handler processes one inbound message. For Call traffic the returned
// value travels back to the caller; for Send traffic it is discarded. A
// handler may be invoked from many goroutines concurrently.
//
// ctx carries the sender's trace context when the sender was traced. Its
// lifetime differs by traffic kind: for a Call over the in-memory mesh it
// is the caller's context (cancellation included); for Send and all TCP
// traffic it carries values only — one-way and cross-process handling must
// not be cancelled by the sender's local deadline.
type Handler func(ctx context.Context, from NodeID, msg any) (any, error)

// Conn is a node's endpoint into the mesh.
type Conn interface {
	// Call delivers req to the destination node's handler and waits for
	// its response.
	Call(ctx context.Context, to NodeID, req any) (any, error)
	// Send delivers req one-way, without waiting for handling to finish.
	// ctx contributes trace context only; Send never blocks on it.
	Send(ctx context.Context, to NodeID, req any) error
	// Local returns this endpoint's node ID.
	Local() NodeID
	// Close detaches the node from the mesh.
	Close() error
}

// Network creates node endpoints.
type Network interface {
	// Node attaches a handler for id and returns its endpoint. Each ID may
	// be attached at most once.
	Node(id NodeID, h Handler) (Conn, error)
	// Close shuts the whole mesh down.
	Close() error
}

// QueueReporter is implemented by networks with buffered outbound queues
// (the TCP mesh); stall snapshots include the per-peer depths. The
// in-memory mesh delivers synchronously and does not implement it.
type QueueReporter interface {
	// SendQueueDepths reports the current outbound queue depth per peer.
	SendQueueDepths() map[NodeID]int
}

// Errors shared by implementations.
var (
	// ErrNodeExists is returned when attaching a duplicate node ID.
	ErrNodeExists = errors.New("transport: node already attached")
	// ErrUnknownNode is returned when messaging an unattached node.
	ErrUnknownNode = errors.New("transport: unknown node")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("transport: closed")
	// ErrRemote wraps a handler error that crossed the wire.
	ErrRemote = errors.New("transport: remote handler error")
)
