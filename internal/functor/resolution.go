package functor

import (
	"fmt"

	"alohadb/internal/kv"
)

// ResolutionKind classifies the final, immutable state a functor reaches
// after computation (or immediately, for final f-types).
type ResolutionKind uint8

const (
	// Resolved means the functor produced a concrete value.
	Resolved ResolutionKind = iota + 1
	// ResolvedAborted means the transaction aborted at this version;
	// readers skip to the next lower version (Algorithm 1, lines 22-23).
	ResolvedAborted
	// ResolvedDeleted means the key is deleted as of this version.
	ResolvedDeleted
	// ResolvedSkipped means a dependent-key marker dissolved without a
	// deferred write (the determinate functor chose not to write the key).
	// Readers skip it exactly like an aborted version.
	ResolvedSkipped
)

// String names the resolution kind for logs and tests.
func (k ResolutionKind) String() string {
	switch k {
	case Resolved:
		return "VALUE"
	case ResolvedAborted:
		return "ABORTED"
	case ResolvedDeleted:
		return "DELETED"
	case ResolvedSkipped:
		return "SKIPPED"
	default:
		return fmt.Sprintf("ResolutionKind(%d)", uint8(k))
	}
}

// Resolution is the outcome of computing one functor, as a handler returns
// it. It is immutable. The version record takes the kind and the value into
// its own fields, once ("computed at most once"), and keeps the Resolution
// itself only when it carries a reason or dependent writes.
type Resolution struct {
	// Kind classifies the outcome.
	Kind ResolutionKind
	// Value holds the concrete value when Kind is Resolved.
	Value kv.Value
	// Reason optionally explains an abort (constraint violation text).
	Reason string
	// DependentWrites carries the deferred writes a determinate functor
	// performs on its dependent keys (paper §IV-E). Applied by the compute
	// engine at the functor's own version.
	DependentWrites []DependentWrite
}

// DependentWrite is one deferred write produced by a determinate functor.
type DependentWrite struct {
	// Key is the dependent key to write.
	Key kv.Key
	// Value is the concrete value; ignored when Delete is set.
	Value kv.Value
	// Delete writes a tombstone instead of a value.
	Delete bool
}

// ValueResolution returns a Resolved outcome holding v.
func ValueResolution(v kv.Value) *Resolution { return &Resolution{Kind: Resolved, Value: v} }

// AbortResolution returns an ResolvedAborted outcome with a reason.
func AbortResolution(reason string) *Resolution {
	return &Resolution{Kind: ResolvedAborted, Reason: reason}
}

// AbortedByPeer is the outcome of a version rolled back by the second
// round because another partition of its transaction failed phase 1. The
// coordinator's abort and the log's replay both resolve with it, so a
// replayed abort is the live one. Shared and immutable.
var AbortedByPeer = AbortResolution("aborted: peer partition failed phase 1")

// DeleteResolution returns a ResolvedDeleted outcome.
func DeleteResolution() *Resolution { return &Resolution{Kind: ResolvedDeleted} }

// SkipResolution returns a ResolvedSkipped outcome.
func SkipResolution() *Resolution { return &Resolution{Kind: ResolvedSkipped} }

// Readable reports whether a reader encountering this resolution should
// return it (value / deleted) rather than fall through to a lower version.
func (r *Resolution) Readable() bool {
	return r.Kind == Resolved || r.Kind == ResolvedDeleted
}
