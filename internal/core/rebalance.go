package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"alohadb/internal/kv"
	"alohadb/internal/metrics"
	"alohadb/internal/placement"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

// Rebalancer orchestrates live range migration inside the epoch manager's
// barrier (epoch.Manager.SetBarrier): callers enqueue moves with MoveRange
// and the next epoch switch executes them atomically, when no transaction
// of the sealing epoch is in flight anywhere.
//
// One move's handoff at the barrier sealing epoch e:
//
//  1. Seal the range at every server except the move's target (moveMu's
//     write side waits out installs that passed the previous fence).
//  2. Export the range's version chains from every non-target server — the
//     current owner plus any not-yet-retired older replicas.
//  3. Import at the target: idempotent Puts, carried resolutions, stashed
//     forwarded aborts applied, unresolved functors queued to the processor
//     under the usual epoch discipline.
//  4. Install the successor ownership map (moves stamped From e+1) at the
//     target first — once any coordinator can learn the new map, the target
//     already holds the records its Requires checks need — then at every
//     other server, then in the cluster table.
//  5. Clear the seals. Epoch-(e+1) straggler installs that raced to the old
//     owner under the stale map now bounce WrongOwner with the new map
//     attached and re-route (same timestamp) to the target.
//
// The old owner keeps its replica and keeps computing it — at-most-once is
// an effect guarantee, and duplicate deterministic computes of the same
// functor resolve to the identical value through the resolve-once CAS. The
// replica retires at a barrier ≥2 epochs after the handoff, once every
// record in it is final.
//
// The rebalancer drives the handoff through direct in-process server calls,
// not through the transport: migration is control plane, and the embedded
// cluster (like the TCP deployment's server processes) hosts every server
// in-process. Chaos fault injection therefore exercises the data plane
// around a migration without being able to corrupt the handoff itself.
type Rebalancer struct {
	c *Cluster

	mu      sync.Mutex
	queue   []*MoveTicket
	retires []*retireJob

	// afterExport, when set, runs in each move between streaming the range
	// to its target and installing the new map: tests deliver traffic into
	// that window through it.
	afterExport func()

	rangesMoved     atomic.Uint64
	keysStreamed    atomic.Uint64
	recordsStreamed atomic.Uint64
	lastHandoff     atomic.Uint32
	retired         atomic.Uint64
}

// MoveTicket tracks one queued range move through its barrier execution.
type MoveTicket struct {
	rng placement.Range
	to  transport.NodeID

	done    chan struct{}
	handoff tstamp.Epoch
	err     error
}

// Wait blocks until the move's barrier has executed and returns the handoff
// epoch: versions in epochs ≤ handoff stay with the old owner, later ones
// belong to the new owner.
func (t *MoveTicket) Wait(ctx context.Context) (tstamp.Epoch, error) {
	select {
	case <-t.done:
		return t.handoff, t.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// retireJob is a deferred replica retirement: drop the old copies of a
// migrated range once the handoff has settled and every record is final.
type retireJob struct {
	rng      placement.Range
	to       transport.NodeID
	handoff  tstamp.Epoch
	notAfter tstamp.Epoch // give up once attempts exhaust
	dueAt    tstamp.Epoch
}

// retireGrace is how many epochs after the handoff the old replica
// survives before the first retirement attempt: by then the handoff epoch
// has committed everywhere and its functors have almost always resolved.
const retireGrace = 2

// retireAttempts bounds the retirement retries; a chain pinned by an
// unresolved functor for this long stays as garbage (memory, not
// correctness) rather than stalling the retire queue.
const retireAttempts = 8

func newRebalancer(c *Cluster) *Rebalancer {
	return &Rebalancer{c: c}
}

// MoveRange enqueues a live migration of rng to server `to`; the next epoch
// switch executes it. The returned ticket reports the handoff epoch.
func (r *Rebalancer) MoveRange(rng placement.Range, to int) (*MoveTicket, error) {
	if to < 0 || to >= len(r.c.servers) {
		return nil, fmt.Errorf("core: move target %d out of range [0,%d)", to, len(r.c.servers))
	}
	if rng.Empty() {
		return nil, fmt.Errorf("core: cannot move empty range %v", rng)
	}
	t := &MoveTicket{rng: rng, to: transport.NodeID(to), done: make(chan struct{})}
	r.mu.Lock()
	r.queue = append(r.queue, t)
	r.mu.Unlock()
	return t, nil
}

// MoveKey enqueues a migration of the single-key range holding k — the
// common unit when splitting a hot spot off its partition.
func (r *Rebalancer) MoveKey(k kv.Key, to int) (*MoveTicket, error) {
	return r.MoveRange(placement.KeyRange(k), to)
}

// barrier is the epoch manager's switch hook (epoch.Manager.SetBarrier): it
// runs after every revoke ack of epoch e and before Committed(e)+Grant(e+1)
// — the window where executing queued moves is race-free.
func (r *Rebalancer) barrier(e tstamp.Epoch) {
	r.mu.Lock()
	moves := r.queue
	r.queue = nil
	r.mu.Unlock()
	for _, t := range moves {
		r.executeMove(t, e)
	}
	r.runRetirements(e)
}

// executeMove performs one handoff at the barrier sealing epoch e; see the
// type comment for the step-by-step protocol.
func (r *Rebalancer) executeMove(t *MoveTicket, e tstamp.Epoch) {
	defer close(t.done)
	target := r.c.servers[int(t.to)]

	// 1. Fence the range everywhere but at the target (the target must keep
	// accepting: epoch-(e+1) installs re-routed under the new map land
	// there while the barrier is still clearing other servers' seals).
	seal := MsgRangeSeal{Ranges: []placement.Range{t.rng}}
	for _, srv := range r.c.servers {
		if srv == target {
			continue
		}
		srv.handleRangeSeal(seal)
	}

	// 2.+3. Stream every non-target replica of the range to the target.
	for _, srv := range r.c.servers {
		if srv == target {
			continue
		}
		exp := srv.handleRangeExport(MsgRangeExport{Range: t.rng})
		if len(exp.Keys) == 0 {
			continue
		}
		imp := target.handleRangeImport(context.Background(), MsgRangeImport{Keys: exp.Keys, Handoff: e})
		r.keysStreamed.Add(uint64(imp.Keys))
		r.recordsStreamed.Add(uint64(imp.Records))
	}
	if r.afterExport != nil {
		r.afterExport()
	}

	// 4. Install the successor map: target first, then the rest, then the
	// cluster's own table (coordinators embedded in servers learn it from
	// either their own table or a WrongOwner response).
	next := r.c.table.Map().Next(placement.Move{Range: t.rng, To: t.to, From: e + 1})
	target.table.Install(next)
	for _, srv := range r.c.servers {
		if srv != target {
			srv.table.Install(next)
		}
	}
	r.c.table.Install(next)

	// 5. Lift the fences; stale-map installs now bounce off the ownership
	// check instead of the seal.
	lift := MsgRangeSeal{Ranges: []placement.Range{t.rng}, Clear: true}
	for _, srv := range r.c.servers {
		if srv != target {
			srv.handleRangeSeal(lift)
		}
	}

	t.handoff = e
	r.rangesMoved.Add(1)
	r.lastHandoff.Store(uint32(e))
	r.mu.Lock()
	r.retires = append(r.retires, &retireJob{
		rng: t.rng, to: t.to, handoff: e,
		dueAt:    e + retireGrace,
		notAfter: e + retireGrace + retireAttempts,
	})
	r.mu.Unlock()
}

// runRetirements drops old replicas of settled handoffs. A chain still
// holding non-final records pushes its job to the next barrier until the
// attempt budget runs out.
func (r *Rebalancer) runRetirements(e tstamp.Epoch) {
	r.mu.Lock()
	jobs := r.retires
	r.retires = nil
	var keep []*retireJob
	r.mu.Unlock()
	for _, j := range jobs {
		if e < j.dueAt {
			keep = append(keep, j)
			continue
		}
		remaining := 0
		for _, srv := range r.c.servers {
			if srv == r.c.servers[int(j.to)] {
				continue
			}
			resp := srv.handleRangeRetire(MsgRangeRetire{Range: j.rng, Handoff: j.handoff})
			r.retired.Add(uint64(resp.Dropped))
			remaining += resp.Remaining
		}
		if remaining > 0 && e < j.notAfter {
			j.dueAt = e + 1
			keep = append(keep, j)
		}
	}
	if len(keep) > 0 {
		r.mu.Lock()
		r.retires = append(r.retires, keep...)
		r.mu.Unlock()
	}
}

// Metric family names exported by the rebalancer.
const (
	FamMigrationRangesMoved  = "aloha_migration_ranges_moved_total"
	FamMigrationKeysStreamed = "aloha_migration_keys_streamed_total"
	FamMigrationRecords      = "aloha_migration_records_streamed_total"
	FamMigrationRetired      = "aloha_migration_chains_retired_total"
	FamMigrationLastHandoff  = "aloha_migration_last_handoff_epoch"
	FamMigrationInflight     = "aloha_migration_inflight"
)

// Inflight reports queued moves plus pending retirements without
// allocating (the flight recorder samples it every tick). Nil-safe.
func (r *Rebalancer) Inflight() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queue) + len(r.retires)
}

// MetricFamilies returns the rebalancer's migration counters and gauges.
func (r *Rebalancer) MetricFamilies() []metrics.Family {
	r.mu.Lock()
	inflight := len(r.queue) + len(r.retires)
	r.mu.Unlock()
	counter := func(name, help string, v uint64) metrics.Family {
		return metrics.Family{
			Name: name, Help: help, Kind: metrics.KindCounter,
			Series: []metrics.Series{metrics.CounterSeries(v)},
		}
	}
	return []metrics.Family{
		counter(FamMigrationRangesMoved, "Ranges handed to a new owner by the rebalancer.", r.rangesMoved.Load()),
		counter(FamMigrationKeysStreamed, "Keys streamed to new owners during migrations.", r.keysStreamed.Load()),
		counter(FamMigrationRecords, "Version records streamed to new owners during migrations.", r.recordsStreamed.Load()),
		counter(FamMigrationRetired, "Old-owner version chains dropped after settled handoffs.", r.retired.Load()),
		{
			Name: FamMigrationLastHandoff, Help: "Epoch of the most recent ownership handoff.",
			Kind:   metrics.KindGauge,
			Series: []metrics.Series{metrics.GaugeSeries(int64(r.lastHandoff.Load()))},
		},
		{
			Name: FamMigrationInflight, Help: "Queued moves plus pending replica retirements.",
			Kind:   metrics.KindGauge,
			Series: []metrics.Series{metrics.GaugeSeries(int64(inflight))},
		},
	}
}
