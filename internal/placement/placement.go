// Package placement is ALOHA-DB's epoch-versioned key→server routing
// layer. It replaces the static Partitioner closure with a Router: a base
// placement (usually hash partitioning) overlaid by an OwnershipMap of key
// ranges whose moves take effect at explicit epochs. The epoch boundary is
// the paper's natural atomic handoff point: a move stamped "from epoch e+1"
// routes every version in epochs ≤ e to the old owner and every version in
// epochs ≥ e+1 to the new one, so two servers never both accept writes for
// the same (key, epoch) — the same validity rule that makes epoch-based
// timestamps serializable makes ownership changes linearizable.
//
// Maps carry a generation number. A server rejecting an install because its
// map is newer than the coordinator's answers WrongOwner and attaches its
// map, so routing converges without a config service: generations only move
// forward and the newest map wins (see Table.Install).
package placement

import (
	"fmt"
	"sync/atomic"

	"alohadb/internal/kv"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

// Generation numbers ownership maps. It increases by exactly one per
// installed map, so "newer" is a single integer comparison.
type Generation uint64

// Range is a half-open key interval [Start, End). An empty End means +∞,
// so Range{} spans the whole key space.
type Range struct {
	Start kv.Key `json:"start"`
	End   kv.Key `json:"end"`
}

// Contains reports whether k falls inside the range.
func (r Range) Contains(k kv.Key) bool {
	return k >= r.Start && (r.End == "" || k < r.End)
}

// Empty reports whether the range can contain no key.
func (r Range) Empty() bool { return r.End != "" && r.End <= r.Start }

func (r Range) String() string {
	if r.End == "" {
		return fmt.Sprintf("[%q,+inf)", string(r.Start))
	}
	return fmt.Sprintf("[%q,%q)", string(r.Start), string(r.End))
}

// KeyRange is the smallest non-empty range holding exactly k: [k, k+"\x00").
// Single hot keys are the common migration unit, so this gets a name.
func KeyRange(k kv.Key) Range {
	return Range{Start: k, End: k + "\x00"}
}

// Move reassigns one range to a new owner for all versions in epochs ≥
// From. Earlier epochs keep routing to whoever owned the range before —
// that is what lets in-flight transactions of the sealing epoch finish at
// the old owner while the next epoch's writes land at the new one.
type Move struct {
	Range Range            `json:"range"`
	To    transport.NodeID `json:"to"`
	From  tstamp.Epoch     `json:"from"`
}

// Map is a versioned ownership overlay: an ordered list of moves applied on
// top of a base placement. Later moves shadow earlier ones, so Lookup scans
// newest-first. Maps are immutable once installed; every change builds a
// successor with Next.
type Map struct {
	Gen   Generation `json:"gen"`
	Moves []Move     `json:"moves"`
}

// Lookup resolves the owner of k at epoch e through the overlay. It
// returns ok=false when no move covers (k, e) and the base placement
// applies.
func (m *Map) Lookup(k kv.Key, e tstamp.Epoch) (transport.NodeID, bool) {
	if m == nil {
		return 0, false
	}
	for i := len(m.Moves) - 1; i >= 0; i-- {
		mv := m.Moves[i]
		if e >= mv.From && mv.Range.Contains(k) {
			return mv.To, true
		}
	}
	return 0, false
}

// Next derives the successor map: generation+1, with the new moves
// appended (shadowing any earlier overlapping moves).
func (m *Map) Next(moves ...Move) *Map {
	n := &Map{Gen: 1}
	if m != nil {
		n.Gen = m.Gen + 1
		n.Moves = append(n.Moves, m.Moves...)
	}
	n.Moves = append(n.Moves, moves...)
	return n
}

// Router resolves the owner of a key for a version in epoch e. Pass
// tstamp.MaxEpoch to route at the current (newest) placement — the right
// epoch for reads, ensures, and pushes, which always target the live owner.
type Router interface {
	Route(k kv.Key, e tstamp.Epoch) transport.NodeID
}

// StaticRouter adapts a legacy partitioner closure — func(key, numServers)
// → server index — to the Router interface. It ignores the epoch: static
// placements are valid forever.
type StaticRouter struct {
	n  int
	fn func(k kv.Key, n int) int
}

// NewStatic wraps a legacy Partitioner for n servers. A nil fn means hash
// partitioning by kv.PartitionOf.
func NewStatic(n int, fn func(k kv.Key, n int) int) *StaticRouter {
	if fn == nil {
		fn = kv.PartitionOf
	}
	return &StaticRouter{n: n, fn: fn}
}

// Route implements Router.
func (s *StaticRouter) Route(k kv.Key, _ tstamp.Epoch) transport.NodeID {
	return transport.NodeID(s.fn(k, s.n))
}

// Table is a server's live routing state: an immutable base Router overlaid
// by the newest installed Map. Route is lock-free (one atomic load), so it
// sits on the install and read hot paths unchanged.
type Table struct {
	base Router
	cur  atomic.Pointer[Map]
}

// NewTable builds a table over the given base placement with no overlay
// (generation 0).
func NewTable(base Router) *Table {
	return &Table{base: base}
}

// Route resolves the owner of k for a version in epoch e.
func (t *Table) Route(k kv.Key, e tstamp.Epoch) transport.NodeID {
	if owner, ok := t.cur.Load().Lookup(k, e); ok {
		return owner
	}
	return t.base.Route(k, e)
}

// Install adopts m if it is newer than the current map, returning whether
// it was adopted. Generations are totally ordered by the rebalancer (one
// writer), so "newer wins" converges every server on the same map no matter
// how installs and WrongOwner responses interleave.
func (t *Table) Install(m *Map) bool {
	if m == nil {
		return false
	}
	for {
		cur := t.cur.Load()
		if cur != nil && cur.Gen >= m.Gen {
			return false
		}
		if t.cur.CompareAndSwap(cur, m) {
			return true
		}
	}
}

// Map returns the newest installed map (nil before any install).
func (t *Table) Map() *Map { return t.cur.Load() }

// Generation returns the newest installed map's generation (0 before any
// install).
func (t *Table) Generation() Generation {
	if m := t.cur.Load(); m != nil {
		return m.Gen
	}
	return 0
}
