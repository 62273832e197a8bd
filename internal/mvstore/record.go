// Package mvstore implements ALOHA-DB's multi-version storage layout
// (paper §III-D). Each key owns an ordered list of version records; each
// record couples a version number with a functor and, once computed, an
// immutable resolution. A per-key value watermark marks the prefix of
// versions that are final: reads below the watermark need no
// synchronization at all.
//
// Concurrency design: a key's sealed versions are the prefix of an array
// whose length is published atomically, so readers are lock-free; inserts
// take a per-key mutex and append behind that prefix (see Chain).
// Resolutions are installed with a single compare-and-swap, enforcing the
// paper's "computed at most once" rule and providing the key-level
// concurrency control of functor-enabled ECC.
package mvstore

import (
	"sync/atomic"

	"alohadb/internal/functor"
	"alohadb/internal/tstamp"
)

// Record is one version of one key: the functor written by the transaction
// with this version, plus the resolution installed when the functor is
// computed. Functor and Version are immutable after insertion.
type Record struct {
	// Version is the transaction timestamp that wrote this record.
	Version tstamp.Timestamp
	// Functor is the placeholder written in the write-only phase.
	Functor *functor.Functor

	resolved atomic.Pointer[functor.Resolution]
}

// FinalResolution derives the resolution of a final f-type (VALUE, ABORTED,
// DELETED). Final functors skip the computing phase, but their resolution
// is still installed lazily rather than at insert: the coordinator's
// second-round abort (paper §V-A2) must be able to turn any record of a
// failed transaction into ABORTED before the epoch commits, and the
// resolve-once CAS would forbid that if inserts pre-resolved.
func FinalResolution(fn *functor.Functor) (*functor.Resolution, bool) {
	switch fn.Type {
	case functor.TypeValue:
		return functor.ValueResolution(fn.Arg), true
	case functor.TypeAborted:
		return functor.AbortResolution(""), true
	case functor.TypeDeleted:
		return functor.DeleteResolution(), true
	default:
		return nil, false
	}
}

// Resolution returns the installed resolution, or nil if the functor has
// not been computed yet. Safe for concurrent use.
func (r *Record) Resolution() *functor.Resolution {
	return r.resolved.Load()
}

// Resolve installs res as the record's final state. It returns true if this
// call installed the resolution and false if the record was already
// resolved (each functor is computed at most once; concurrent computations
// of the same functor produce identical results and the first CAS wins).
func (r *Record) Resolve(res *functor.Resolution) bool {
	return r.resolved.CompareAndSwap(nil, res)
}

// Final reports whether the record has reached its final state.
func (r *Record) Final() bool { return r.resolved.Load() != nil }
