// Package core implements the ALOHA-DB transaction processing engine: the
// combined front-end/back-end server (paper §III), the functor computing
// layer (paper §IV, Algorithm 1), and the cluster assembly that wires
// servers to the epoch manager over a transport.
package core

import (
	"sync"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/placement"
	"alohadb/internal/tstamp"
)

// Write is one key-functor pair of a transaction's write set.
type Write struct {
	Key     kv.Key
	Functor *functor.Functor
}

// MsgInstall carries the write-only phase of one or more transactions to a
// single partition. Front-ends batch many transactions per message, the
// paper's convention for an apples-to-apples RPC comparison with Calvin.
type MsgInstall struct {
	Txns []InstallTxn
	// Placement, when set, is the sender's newest ownership map; the
	// receiver installs it if newer than its own. WrongOwner retries carry
	// the map they learned so the receiving server converges too.
	Placement *placement.Map
}

// InstallTxn is the slice of one transaction destined for one partition.
type InstallTxn struct {
	// Version is the transaction timestamp; every functor of the
	// transaction shares it.
	Version tstamp.Timestamp
	// Writes are the key-functor pairs stored on this partition.
	Writes []Write
	// Requires lists keys that must exist on this partition for the
	// install to succeed (phase-1 constraint check; e.g. TPC-C NewOrder
	// referencing an unknown item aborts here and triggers the
	// coordinator's second round).
	Requires []kv.Key
}

// InstallResult reports one transaction's install outcome on one partition.
type InstallResult struct {
	OK  bool
	Err string
	// WrongOwner marks a retriable rejection: some key of the slice is no
	// longer (or not yet) owned by this partition under its newer ownership
	// map — the coordinator routed with a stale generation. The response's
	// Placement carries the rejecting server's map; the coordinator installs
	// it and resends the slice to the owners the new map names, with the
	// same timestamp.
	WrongOwner bool
}

// MsgInstallResp answers MsgInstall, aligned index-wise with Txns.
type MsgInstallResp struct {
	Results []InstallResult
	// Placement is the responder's newest ownership map when any result was
	// rejected WrongOwner (nil otherwise), so retries route correctly.
	Placement *placement.Map
}

// MsgAbort is the coordinator's second round: mark the listed keys'
// versions ABORTED on this partition because another partition failed the
// transaction's phase-1 check.
type MsgAbort struct {
	Version tstamp.Timestamp
	Keys    []kv.Key
	// Fwd marks a single-hop forward from a server whose ownership map says
	// the keys moved away; the receiver applies it locally (stashing keys
	// whose migrated records have not arrived yet) instead of forwarding
	// again, bounding the hop count during a map race.
	Fwd bool
}

// MsgRead asks the key's owner for the latest value at or below Version
// (Algorithm 1's Get; computes functors on demand).
type MsgRead struct {
	Key     kv.Key
	Version tstamp.Timestamp
	// Fwd marks a single-hop ownership forward; the receiver serves locally.
	Fwd bool
}

// MsgReadResp answers MsgRead.
type MsgReadResp struct {
	Value kv.Value
	Found bool
	// Version is the version of the record that produced Value; optimistic
	// validation compares it against the transaction's snapshot.
	Version tstamp.Timestamp
}

// MsgReadBatch carries several MsgRead requests for keys of one owner in a
// single RPC. Front-ends combine concurrent functor computations' remote
// reads per owner (the same batching convention §V applies to installs:
// one message per involved partition), so a burst of single-key reads
// costs one round trip instead of one per key.
type MsgReadBatch struct {
	Reads []MsgRead
}

// ReadResult is one read's outcome inside MsgReadBatchResp; Err is set
// instead of failing the whole batch so one bad key cannot poison its
// neighbors' reads.
type ReadResult struct {
	Resp MsgReadResp
	Err  string
}

// MsgReadBatchResp answers MsgReadBatch, aligned index-wise with Reads.
type MsgReadBatchResp struct {
	Results []ReadResult
}

// MsgPush proactively delivers the latest value of Key strictly below
// Version to a partition whose functor(s) of the same transaction read
// Key (paper §IV-B recipient sets).
type MsgPush struct {
	Version tstamp.Timestamp
	Key     kv.Key
	Value   kv.Value
	Found   bool
	// ValueVersion is the version of the record that produced Value, so
	// consumers (e.g. optimistic validation) see the same metadata a
	// direct read would return.
	ValueVersion tstamp.Timestamp
}

// MsgEnsure asks the determinate key's owner to compute its functor at
// Version and return the resolution, so the caller can resolve a
// dependent-key marker (paper §IV-E).
type MsgEnsure struct {
	Key     kv.Key
	Version tstamp.Timestamp
	// Fwd marks a single-hop ownership forward; the receiver serves locally.
	Fwd bool
}

// MsgEnsureResp carries the determinate functor's resolution.
type MsgEnsureResp struct {
	Resolution *functor.Resolution
}

// MsgEnsureUpTo asks the key's owner to compute every functor of Key at or
// below Version — including synchronously distributing any deferred writes
// — and advance the key's value watermark to Version before answering.
// This realizes §IV-E's rule that a dependent key may be read at ts only
// once the determinate key's watermark is at least ts.
type MsgEnsureUpTo struct {
	Key     kv.Key
	Version tstamp.Timestamp
	// Fwd marks a single-hop ownership forward; the receiver serves locally.
	Fwd bool
}

// MsgEnsureUpToResp acknowledges MsgEnsureUpTo.
type MsgEnsureUpToResp struct{}

// EnsureReq is one ensure inside MsgEnsureBatch: UpTo selects the
// MsgEnsureUpTo semantics (compute everything at or below Version and
// advance the watermark, ack only), otherwise the MsgEnsure semantics
// (compute the functor at exactly Version and return its resolution).
type EnsureReq struct {
	Key     kv.Key
	Version tstamp.Timestamp
	UpTo    bool
	// Fwd marks a single-hop ownership forward; the receiver serves locally.
	Fwd bool
}

// MsgEnsureBatch combines several ensure requests for one owner in a
// single RPC, mirroring MsgReadBatch for the dependent-key paths (§IV-E).
type MsgEnsureBatch struct {
	Reqs []EnsureReq
}

// EnsureResult is one ensure's outcome inside MsgEnsureBatchResp.
// Resolution is nil for UpTo requests (they only acknowledge).
type EnsureResult struct {
	Resolution *functor.Resolution
	Err        string
}

// MsgEnsureBatchResp answers MsgEnsureBatch, aligned index-wise with Reqs.
type MsgEnsureBatchResp struct {
	Results []EnsureResult
}

// MsgAbortBatch carries the second-round aborts of several transactions to
// one partition in a single RPC (a failed batch can abort many
// transactions on the same peer at once).
type MsgAbortBatch struct {
	Aborts []MsgAbort
}

// MsgApplyDeferred delivers deferred writes (or the lack thereof) from a
// computed determinate functor to the partitions owning its dependent keys.
type MsgApplyDeferred struct {
	Version tstamp.Timestamp
	// Writes are concrete deferred writes for keys on the destination.
	Writes []functor.DependentWrite
	// Dissolve lists dependent keys on the destination that the
	// determinate functor did NOT write (or that belong to an aborted
	// transaction); their markers resolve to SKIPPED/ABORTED.
	Dissolve []kv.Key
	// Aborted is set when the whole transaction aborted.
	Aborted bool
	// Fwd marks a single-hop ownership forward of writes whose keys moved;
	// the receiver applies them locally.
	Fwd bool
}

// MsgWaitComputed blocks until the record (Key, Version) reaches its final
// state, returning that state. Used by clients that request the
// "functor computing phase complete" acknowledgment option (§IV-A) and by
// the latency harness.
type MsgWaitComputed struct {
	Key     kv.Key
	Version tstamp.Timestamp
	// Fwd marks a single-hop ownership forward; the receiver serves locally.
	Fwd bool
}

// MsgWaitComputedResp reports the record's final resolution kind.
type MsgWaitComputedResp struct {
	Kind   functor.ResolutionKind
	Reason string
}

// MsgScan asks one partition for all of its keys matching Prefix at the
// given snapshot (analytic read-only transactions, §IV-A).
type MsgScan struct {
	Prefix   kv.Key
	Snapshot tstamp.Timestamp
}

// MsgScanResp carries one partition's slice of a scan.
type MsgScanResp struct {
	Pairs []kv.Pair
}

// Parameter and result structs of the in-process migration handlers the
// rebalancer calls at the epoch barrier (internal/core/rebalance.go,
// migrate.go); they never cross a transport and have no wire codec.
type (
	// MsgRangeSeal fences the listed ranges on a server: installs touching
	// them are rejected WrongOwner until a MsgRangeSeal with Clear lifts the
	// fence. Sent inside the epoch barrier, where no install of the sealed
	// epoch is in flight.
	MsgRangeSeal struct {
		Ranges []placement.Range
		Clear  bool
	}
	// MsgRangeExport asks the old owner for every version chain in Range.
	MsgRangeExport struct {
		Range placement.Range
	}
	// MsgRangeExportResp carries the exported chains.
	MsgRangeExportResp struct {
		Keys []mvstore.KeyExport
	}
	// MsgRangeImport delivers exported chains to the new owner. Handoff is
	// the epoch being sealed when the move executes: records in epochs ≤
	// Handoff are sealed (and their unresolved functors enqueued) on import,
	// later ones buffer until their epoch commits.
	MsgRangeImport struct {
		Keys    []mvstore.KeyExport
		Handoff tstamp.Epoch
	}
	// MsgRangeImportResp reports how much the import absorbed.
	MsgRangeImportResp struct {
		Keys    int
		Records int
	}
	// MsgRangeRetire asks the old owner to drop its replica of a migrated
	// range once the handoff has settled; only chains whose records are all
	// final are dropped, the rest stay for a later retirement pass.
	MsgRangeRetire struct {
		Range   placement.Range
		Handoff tstamp.Epoch
	}
	// MsgRangeRetireResp reports how many chains were dropped.
	MsgRangeRetireResp struct {
		Dropped int
		// Remaining counts chains that still hold non-final records and
		// survived this pass.
		Remaining int
	}
)

// Client protocol messages, used by remote clients (cmd/aloha-client)
// talking to a server over the TCP transport. Embedded users call the Go
// API directly.
type (
	// MsgClientSubmit submits one transaction; the server coordinates it.
	MsgClientSubmit struct {
		Writes   []Write
		Requires []kv.Key
		// WaitComputed selects acknowledgment option 2 (§IV-A): respond
		// only after the functors are fully computed.
		WaitComputed bool
	}
	// MsgClientSubmitResp reports the outcome.
	MsgClientSubmitResp struct {
		Version tstamp.Timestamp
		Aborted bool
		Reason  string
	}
	// MsgClientGet reads the latest version of a key (serializable).
	MsgClientGet struct {
		Key kv.Key
		// Snapshot, when non-zero, reads at that historical snapshot.
		Snapshot tstamp.Timestamp
	}
	// MsgClientGetResp carries the read result.
	MsgClientGetResp struct {
		Value kv.Value
		Found bool
	}
)

// Epoch protocol messages, used when the epoch manager runs remotely.
type (
	// MsgGrant authorizes epoch E.
	MsgGrant struct{ E tstamp.Epoch }
	// MsgRevoke withdraws epoch E's authorization; the server answers
	// with MsgRevokeAck once in-flight transactions drain.
	MsgRevoke struct{ E tstamp.Epoch }
	// MsgRevokeAck acknowledges MsgRevoke.
	MsgRevokeAck struct{ E tstamp.Epoch }
	// MsgCommitted announces epoch E fully committed.
	MsgCommitted struct{ E tstamp.Epoch }
)

// Diagnosis messages, used by the epoch watchdog's peer probes
// (internal/obs): a stall snapshot names unreachable peers by pinging every
// node and reporting who failed to answer within the probe deadline.
type (
	// MsgPing asks a peer for its epoch positions.
	MsgPing struct{}
	// MsgPong answers MsgPing with the responder's view of epoch progress.
	MsgPong struct {
		Node int
		// CommittedEpoch is the last epoch whose versions are visible on
		// the responder; CurrentEpoch is the epoch it issues timestamps in.
		CommittedEpoch uint64
		CurrentEpoch   uint64
	}
)

// RegisterMessages registers the wire codec of every core message that
// crosses a transport (wirecodec.go). Call once at startup when using the
// TCP transport (idempotent); the in-memory mesh passes values.
func RegisterMessages() { registerWire.Do(registerCodecs) }

var registerWire sync.Once
