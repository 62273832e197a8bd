// Package ring is the one fixed-memory history buffer behind the repo's
// instruments: the tracer's span sinks, the epoch journal and its EM
// mirror, and the flight recorder's ticks and annotations (stall episodes
// among them). Each value is stamped with a sequence number — an
// epoch, a tick, or an arrival count — and lives in slot seq % n under that
// slot's own mutex, so writers to different slots never contend. A newer
// seq claims its slot from the occupant (an overwrite); an older one is
// refused (stale), since updating an overwritten value would tear it.
package ring

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// Slot is one ring entry, handed out locked by Lock.
type Slot[T any] struct {
	mu          sync.Mutex
	seq         uint64 // 0: never claimed
	overwritten uint64 // occupants this slot's claims have replaced

	// Val is the value stamped with the slot's seq. Read or write it only
	// between Lock and Unlock.
	Val T
}

// Unlock releases a slot Lock returned.
func (s *Slot[T]) Unlock() { s.mu.Unlock() }

// Ring holds the newest value per slot of n slots. Seqs start at 1: Lock
// takes the caller's (an epoch, a tick), Add draws the ring's own arrival
// count.
type Ring[T any] struct {
	slots []Slot[T]
	reset func(v *T)
	// Every access reads slots; a cache line apart from it, Add's
	// increments of next do not stall the other cores' reads.
	_     [64]byte
	next  atomic.Uint64 // last seq Add handed out
	stale atomic.Uint64 // seqs Lock refused as older than their slot's occupant
}

// New returns a ring of n slots. reset, if not nil, prepares a slot's value
// for a new seq: New calls it on every slot, and Lock, under the slot's
// lock, whenever a newer seq claims the slot. Without it a claimed slot
// keeps the old occupant, for the writer to overwrite.
func New[T any](n int, reset func(v *T)) *Ring[T] {
	r := &Ring[T]{slots: make([]Slot[T], n), reset: reset}
	if reset != nil {
		for i := range r.slots {
			reset(&r.slots[i].Val)
		}
	}
	return r
}

// Lock locks and returns seq's slot, for its value to be updated in place;
// a seq newer than the occupant claims the slot first. A seq older than the
// occupant is counted as stale and gets nil, with no lock held.
func (r *Ring[T]) Lock(seq uint64) *Slot[T] {
	s := &r.slots[seq%uint64(len(r.slots))]
	s.mu.Lock()
	switch {
	case s.seq == seq:
		return s
	case s.seq < seq:
		if s.seq != 0 {
			s.overwritten++
		}
		s.seq = seq
		if r.reset != nil {
			r.reset(&s.Val)
		}
		return s
	default:
		s.mu.Unlock()
		r.stale.Add(1)
		return nil
	}
}

// Add stores v under the next arrival seq.
func (r *Ring[T]) Add(v T) {
	if s := r.Lock(r.next.Add(1)); s != nil {
		s.Val = v
		s.Unlock()
	}
}

// Get returns a copy of the value stamped seq, if the ring still holds it.
func (r *Ring[T]) Get(seq uint64) (v T, ok bool) {
	s := &r.slots[seq%uint64(len(r.slots))]
	s.mu.Lock()
	if ok = seq != 0 && s.seq == seq; ok {
		v = s.Val
	}
	s.mu.Unlock()
	return v, ok
}

// Each calls f with every claimed slot's seq and value, in slot order,
// under that slot's lock: f copies out what it needs and keeps no pointer.
func (r *Ring[T]) Each(f func(seq uint64, v *T)) {
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.seq != 0 {
			f(s.seq, &s.Val)
		}
		s.mu.Unlock()
	}
}

// Snapshot returns copies of the retained values, oldest seq first, and
// how many values newer seqs have overwritten.
func (r *Ring[T]) Snapshot() ([]T, uint64) {
	type entry struct {
		seq uint64
		v   T
	}
	es := make([]entry, 0, len(r.slots))
	var overwritten uint64
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.seq != 0 {
			es = append(es, entry{s.seq, s.Val})
		}
		overwritten += s.overwritten
		s.mu.Unlock()
	}
	slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]T, len(es))
	for i := range es {
		out[i] = es[i].v
	}
	return out, overwritten
}

// Stale reports how many seqs Lock has refused as older than their slot's
// occupant.
func (r *Ring[T]) Stale() uint64 { return r.stale.Load() }
