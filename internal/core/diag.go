package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"alohadb/internal/obs"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

// This file is the server side of the flight recorder's stall rule
// (internal/obs/tsdb): the progress signal, the peer probes, and the
// stall-snapshot capture that gathers every queue the epoch-switch
// protocol can wedge on — unacked in-flight epochs (a revoked-but-unacked
// FE), buffered installs waiting for commit, processor and combiner queues
// (a lagging functor compute), and transport send queues (a backed-up or
// severed link).

// CommittedEpoch returns the last epoch whose versions are visible on this
// server (zero before the first commit).
func (s *Server) CommittedEpoch() tstamp.Epoch {
	if b := s.visibleBound(); b > 0 {
		return b.Epoch() - 1
	}
	return 0
}

// SetQueueDepthSource installs a callback reporting per-peer transport
// send-queue depths for stall snapshots (the TCP network exposes one; the
// in-memory mesh has no queues). Set before the recorder starts.
func (s *Server) SetQueueDepthSource(fn func() map[transport.NodeID]int) {
	s.queueDepths = fn
}

// ProbePeers pings every other server plus the epoch manager node
// (address-book convention: node n) and reports reachability and epoch
// positions. A handler-level error still counts as reachable — the round
// trip completed; only transport failures mark a peer unreachable.
func (s *Server) ProbePeers(ctx context.Context, timeout time.Duration) []obs.PeerProbe {
	if timeout <= 0 {
		timeout = 250 * time.Millisecond
	}
	targets := make([]int, 0, s.n)
	for i := 0; i <= s.n; i++ {
		if i != s.id {
			targets = append(targets, i)
		}
	}
	probes := make([]obs.PeerProbe, len(targets))
	var wg sync.WaitGroup
	for i, node := range targets {
		wg.Add(1)
		go func(i, node int) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			start := time.Now()
			resp, err := s.conn.Call(pctx, transport.NodeID(node), MsgPing{})
			p := obs.PeerProbe{Node: node, RTT: time.Since(start)}
			switch {
			case err == nil:
				p.Reachable = true
				if pong, ok := resp.(MsgPong); ok {
					p.CommittedEpoch = pong.CommittedEpoch
					p.CurrentEpoch = pong.CurrentEpoch
				}
			case errors.Is(err, transport.ErrRemote):
				p.Reachable = true
				p.Err = err.Error()
			default:
				p.Err = err.Error()
			}
			probes[i] = p
		}(i, node)
	}
	wg.Wait()
	return probes
}

// handlePing answers a peer probe with this server's epoch positions.
func (s *Server) handlePing() MsgPong {
	return MsgPong{
		Node:           s.id,
		CommittedEpoch: uint64(s.CommittedEpoch()),
		CurrentEpoch:   uint64(s.gen.Epoch()),
	}
}

// StallCapture builds a stall snapshot of this server; the flight
// recorder's stall rule calls it once per episode. ctx bounds the peer
// probes.
func (s *Server) StallCapture(ctx context.Context) *obs.StallSnapshot {
	snap := &obs.StallSnapshot{
		Server:         s.id,
		CommittedEpoch: uint64(s.CommittedEpoch()),
		CurrentEpoch:   uint64(s.gen.Epoch()),
		WALFsyncAge:    -1,
	}

	// Peer reachability: who is not answering, and whose seal is lagging.
	snap.Peers = s.ProbePeers(ctx, 0)
	for _, p := range snap.Peers {
		if !p.Reachable {
			snap.UnreachablePeers = append(snap.UnreachablePeers, p.Node)
		}
	}

	// Buffered installs per epoch, and the oldest pending functor overall:
	// its key, f-type, queue wait, and owning transaction's trace ID point
	// the operator at the lagging compute.
	var oldest *obs.PendingFunctor
	consider := func(it *workItem) {
		wait := time.Since(it.installed)
		if oldest != nil && wait <= time.Duration(oldest.QueueWait) {
			return
		}
		pf := &obs.PendingFunctor{
			Key:       string(it.key),
			Version:   uint64(it.rec.Version),
			QueueWait: wait,
		}
		if it.rec.Functor != nil {
			pf.FType = it.rec.Functor.Type.String()
		}
		if tid := it.sc.Trace; tid != 0 {
			pf.TraceID = fmt.Sprintf("%016x", uint64(tid))
		}
		oldest = pf
	}
	// Epochs with open reservations — a revoked epoch still listed here
	// means this server itself is the revoked-but-unacked FE (§III-B) — and
	// the buffered installs, read from one snapshot of the epoch table, so
	// an epoch that commits meanwhile is in both lists or in neither.
	snap.InflightEpochs, snap.PendingEpochs = s.epochs.stall(consider)

	// Processor shard queues (committed work awaiting compute, the batch a
	// worker is in the middle of included).
	snap.ProcessorQueues = s.proc.queueDepths(consider)

	// Combiner occupancy: remote reads/ensures stuck forming or in flight.
	snap.CombinerQueues = s.comb.occupancy()

	// Transport send-queue depths, when the network reports them.
	if s.queueDepths != nil {
		depths := s.queueDepths()
		for node, depth := range depths {
			snap.SendQueues = append(snap.SendQueues, obs.SendQueue{Peer: int(node), Depth: depth})
		}
		sort.Slice(snap.SendQueues, func(i, j int) bool { return snap.SendQueues[i].Peer < snap.SendQueues[j].Peer })
	}

	// WAL fsync age, when the server is durable.
	if s.durability != nil {
		if age, ok := s.durability.LastSyncAge(); ok {
			snap.WALFsyncAge = age
		}
	}

	// Cross-link the tracer's slow-transaction ring: trace IDs captured
	// around the stall, inspectable at /debug/traces. Nil-safe when
	// tracing is disabled.
	slow := s.tr.Tracer().SlowTraces()
	if n := len(slow); n > 8 {
		slow = slow[n-8:]
	}
	for _, tr := range slow {
		snap.SlowTraces = append(snap.SlowTraces, fmt.Sprintf("%016x", uint64(tr.ID)))
	}

	snap.OldestPending = oldest
	return snap
}
