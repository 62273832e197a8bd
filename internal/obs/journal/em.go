package journal

import (
	"sort"
	"time"

	"alohadb/internal/ring"
)

// EMRecord is the epoch manager's mirror of one epoch switch: when the EM
// decided to advance past the epoch, when each server's revoke-ack arrived
// (indexed by server ID, zero = not yet / not seen), the ack arrival order,
// and when the Committed broadcast went out. Merged with the servers'
// records it exposes the ack straggler: the server record's AckWaitEnd is
// when the ack was *sent*, AckNS is when it *arrived* — the difference is
// the wire.
type EMRecord struct {
	Epoch    uint64  `json:"epoch"`
	DecideNS int64   `json:"decide_unix_ns,omitempty"`
	AckNS    []int64 `json:"ack_unix_ns,omitempty"`
	AckOrder []int   `json:"ack_order,omitempty"`
	CommitNS int64   `json:"commit_unix_ns,omitempty"`
}

// emRec is the EM's in-ring record of one epoch.
type emRec struct {
	decideNS int64
	commitNS int64
	ackNS    []int64 // by server ID, reused across the epochs of a slot
}

// EM is the epoch manager's journal ring. A nil *EM is valid and inert.
type EM struct {
	servers int
	ring    *ring.Ring[emRec]
}

// NewEM builds the EM journal of a cluster of servers participants (always
// on, so there is no disable sentinel).
func NewEM(servers int) *EM {
	return &EM{servers: servers, ring: ring.New(depth, func(r *emRec) {
		if r.ackNS == nil {
			r.ackNS = make([]int64, servers)
		}
		r.decideNS, r.commitNS = 0, 0
		clear(r.ackNS)
	})}
}

// Decide records the switch decision: the EM is advancing past epoch e and
// is about to issue Revokes. Nil-safe, allocation-free.
func (em *EM) Decide(e uint64, now time.Time) {
	if em == nil {
		return
	}
	if s := em.ring.Lock(e); s != nil {
		s.Val.decideNS = now.UnixNano()
		s.Unlock()
	}
}

// Ack records server's revoke-ack arriving at the EM.
func (em *EM) Ack(e uint64, server int, now time.Time) {
	if em == nil || server < 0 || server >= em.servers {
		return
	}
	if s := em.ring.Lock(e); s != nil {
		s.Val.ackNS[server] = now.UnixNano()
		s.Unlock()
	}
}

// Commit records the Committed broadcast for epoch e going out.
func (em *EM) Commit(e uint64, now time.Time) {
	if em == nil {
		return
	}
	if s := em.ring.Lock(e); s != nil {
		s.Val.commitNS = now.UnixNano()
		s.Unlock()
	}
}

// Snapshot exports the ring oldest epoch first, computing each record's
// ack arrival order. Nil-safe (nil).
func (em *EM) Snapshot() []EMRecord {
	if em == nil {
		return nil
	}
	var out []EMRecord
	em.ring.Each(func(e uint64, r *emRec) {
		out = append(out, EMRecord{Epoch: e, DecideNS: r.decideNS, CommitNS: r.commitNS,
			AckNS: append([]int64(nil), r.ackNS...)})
	})
	sort.Slice(out, func(a, b int) bool { return out[a].Epoch < out[b].Epoch })
	for i := range out {
		r := &out[i]
		for sv, ns := range r.AckNS {
			if ns > 0 {
				r.AckOrder = append(r.AckOrder, sv)
			}
		}
		sort.Slice(r.AckOrder, func(a, b int) bool {
			return r.AckNS[r.AckOrder[a]] < r.AckNS[r.AckOrder[b]]
		})
	}
	return out
}
