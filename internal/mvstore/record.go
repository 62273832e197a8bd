// Package mvstore implements ALOHA-DB's multi-version storage layout
// (paper §III-D). Each key owns an ordered list of version records; each
// record couples a version number with a functor and, once computed, its
// immutable outcome, held in the record itself. A per-key value watermark
// marks the prefix of versions that are final: reads below the watermark
// need no synchronization at all, and such a version needs no record. A key
// whose whole history is one final version is a row, bytes in its shard's
// row log beside the entries that name the other keys' chains (see
// rows.go); a key whose whole history is final and at or below its
// watermark is a history, a pointer-free run of bytes; a chain's history
// below its watermark, its newest version excepted, is frozen into such a
// run ahead of its records (see frozen.go). Only what can still change, and
// the newest version, is a record.
//
// Concurrency design: a key's sealed versions are the prefix of an array
// whose length is published atomically, so readers are lock-free; inserts
// take a per-key mutex and append behind that prefix (see Chain). An
// outcome is installed by claiming the record's state word and publishing
// through it, enforcing the paper's "computed at most once" rule and
// providing the key-level concurrency control of functor-enabled ECC.
package mvstore

import (
	"runtime"
	"sync/atomic"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// Record is one version of one key: the functor written by the transaction
// with this version and, once the functor is computed, its outcome — the
// computed value takes the placeholder's place in the version's own slot
// (paper §IV). Functor and Version are immutable after insertion; the
// outcome is written once.
//
// state is zero until the record is resolved and then names the
// ResolutionKind. A plain outcome — a value, a tombstone, a skip, an abort
// without a reason — is state and value and nothing else; only an outcome
// that carries more (an abort reason, a determinate functor's dependent
// writes) keeps the handler's own Resolution behind ext.
//
// Publication is claim-then-publish on state: Resolve moves it from zero to
// _claimed with a compare-and-swap, writes value and ext, and stores the
// kind. Readers load state first and touch value and ext only once it names
// a kind, so the atomic store orders the fields before any read of them.
type Record struct {
	// Version is the transaction timestamp that wrote this record.
	Version tstamp.Timestamp
	// Functor is the placeholder written in the write-only phase.
	Functor *functor.Functor

	state atomic.Uint32
	// deferring counts computations of the record that may still be
	// distributing its deferred writes, and its _landed bit says that the
	// winning computation's writes landed; it fills the word state leaves.
	deferring atomic.Int32
	value     kv.Value
	ext       *functor.Resolution
}

// _claimed is the state of a record between a Resolve winning it and that
// Resolve publishing the outcome; no ResolutionKind has this value.
const _claimed = ^uint32(0)

// _landed is the bit of deferring that Land sets; the count stays below it.
const _landed = 1 << 30

// FinalOutcome derives the outcome of a final f-type (VALUE, ABORTED,
// DELETED). Final functors skip the computing phase, but the live install
// path still resolves them lazily rather than at insert: the coordinator's
// second-round abort (paper §V-A2) must be able to turn any record of a
// failed transaction into ABORTED before the epoch commits, and resolve-once
// would forbid that if inserts pre-resolved. The kind is zero for an f-type
// that has to be computed.
func FinalOutcome(fn *functor.Functor) (functor.ResolutionKind, kv.Value) {
	switch fn.Type {
	case functor.TypeValue:
		return functor.Resolved, fn.Arg
	case functor.TypeAborted:
		return functor.ResolvedAborted, nil
	case functor.TypeDeleted:
		return functor.ResolvedDeleted, nil
	default:
		return 0, nil
	}
}

// Outcome returns the record's final state without allocating: the kind
// (zero while the functor has not been computed), the value of a Resolved
// outcome, and the handler's Resolution when the outcome carries an abort
// reason or dependent writes (nil otherwise). Safe for concurrent use; this
// is the accessor of the read and compute paths.
func (r *Record) Outcome() (functor.ResolutionKind, kv.Value, *functor.Resolution) {
	s := r.state.Load()
	if s == 0 || s == _claimed {
		return 0, nil, nil
	}
	return functor.ResolutionKind(s), r.value, r.ext
}

// Resolution returns the outcome as a Resolution, or nil if the functor has
// not been computed yet. It is the cold accessor — export, checkpoints,
// ensure replies, tests: a plain outcome is materialised into a fresh
// object on every call, so the hot path reads Outcome instead.
func (r *Record) Resolution() *functor.Resolution {
	kind, value, ext := r.Outcome()
	switch {
	case kind == 0:
		return nil
	case ext != nil:
		return ext
	}
	return &functor.Resolution{Kind: kind, Value: value}
}

// Resolve installs res as the record's final state. It returns true if this
// call installed it and false if the record was already resolved (each
// functor is computed at most once; concurrent computations of the same
// functor produce identical results and the first claim wins). res is
// retained only when it carries a reason or dependent writes.
func (r *Record) Resolve(res *functor.Resolution) bool {
	ext := res
	if res.Reason == "" && len(res.DependentWrites) == 0 {
		ext = nil
	}
	return r.resolve(res.Kind, res.Value, ext)
}

// ResolveValue is Resolve for a plain outcome, without a Resolution to
// carry it.
func (r *Record) ResolveValue(kind functor.ResolutionKind, value kv.Value) bool {
	return r.resolve(kind, value, nil)
}

func (r *Record) resolve(kind functor.ResolutionKind, value kv.Value, ext *functor.Resolution) bool {
	if !r.state.CompareAndSwap(0, _claimed) {
		// Callers read the installed outcome right after losing (computeOne
		// distributes the winner's dependent writes), so a loser returns
		// only once the winner is readable. The window is three stores long.
		for r.state.Load() == _claimed {
			runtime.Gosched()
		}
		return false
	}
	r.value, r.ext = value, ext
	r.state.Store(uint32(kind))
	return true
}

// BeginDeferred and EndDeferred bracket a computation of the record that
// may distribute deferred writes, from before its outcome can be installed
// to after the writes are sent; Deferring reports whether one is between
// the two. A record seen final while Deferring may have writes in flight.
func (r *Record) BeginDeferred()  { r.deferring.Add(1) }
func (r *Record) EndDeferred()    { r.deferring.Add(-1) }
func (r *Record) Deferring() bool { return r.deferring.Load()&^_landed != 0 }

// Land records that the deferred writes of the outcome the record holds
// have been applied by every owner of a dependent key, which keeps them in
// its own rows from then on: frozen, the version is its value alone (see
// frozenOutcome). Only the computation that won the record calls it, before
// its EndDeferred, so the mark is set before any watermark passes the
// version and never changes after a freeze could have read it. Landed
// reports the mark; a record made from bytes never carries it.
func (r *Record) Land()        { r.deferring.Or(_landed) }
func (r *Record) Landed() bool { return r.deferring.Load()&_landed != 0 }

// Final reports whether the record has reached its final state.
func (r *Record) Final() bool {
	kind, _, _ := r.Outcome()
	return kind != 0
}
