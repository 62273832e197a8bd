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

// AbortReq is the coordinator's second round for one transaction: mark the
// listed keys' versions ABORTED on this partition because another partition
// failed the transaction's phase-1 check.
type AbortReq struct {
	Version tstamp.Timestamp
	Keys    []kv.Key
	// Fwd marks a single-hop forward from a server whose ownership map says
	// the keys moved away; the receiver applies it locally (stashing keys
	// whose migrated records have not arrived yet) instead of forwarding
	// again, bounding the hop count during a map race.
	Fwd bool
}

// FetchKind selects what a FetchReq asks of the key's owner.
type FetchKind uint8

const (
	// FetchRead asks for the latest value at or below Version (Algorithm 1's
	// Get; computes functors on demand).
	FetchRead FetchKind = iota
	// FetchEnsure asks the determinate key's owner to compute its functor at
	// exactly Version and return the resolution, so the caller can resolve
	// a dependent-key marker (paper §IV-E).
	FetchEnsure
	// FetchUpTo asks the owner to compute every functor of Key at or below
	// Version — including synchronously distributing any deferred writes —
	// and advance the key's value watermark to Version before answering:
	// §IV-E's rule that a dependent key may be read at ts only once the
	// determinate key's watermark is at least ts.
	FetchUpTo
)

// FetchReq is one remote read or ensure inside MsgFetch.
type FetchReq struct {
	Kind    FetchKind
	Key     kv.Key
	Version tstamp.Timestamp
	// Fwd marks a single-hop ownership forward; the receiver serves locally.
	Fwd bool
}

// MsgFetch carries every remote read and ensure one front-end has queued
// for one owner in a single RPC, one item or many: the batching convention
// §V applies to installs (one message per involved partition) extended to
// the functor hot path.
type MsgFetch struct {
	Reqs []FetchReq
}

// FetchResult is one item's outcome inside MsgFetchResp. A read fills
// Value, Found and Version (the version of the record that produced Value);
// an ensure fills Resolution; an ensure-up-to only acknowledges. Err is set
// instead of failing the whole message so one bad key cannot poison its
// neighbors.
type FetchResult struct {
	Value      kv.Value
	Found      bool
	Version    tstamp.Timestamp
	Resolution *functor.Resolution
	Err        string
}

// MsgFetchResp answers MsgFetch, aligned index-wise with Reqs.
type MsgFetchResp struct {
	Results []FetchResult
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

// MsgAbortBatch carries the second-round aborts of one or more transactions
// to one partition in a single RPC (a failed batch can abort many
// transactions on the same peer at once).
type MsgAbortBatch struct {
	Aborts []AbortReq
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

// Diagnosis messages, used by the stall capture's peer probes
// (Server.StallCapture): a stall snapshot names unreachable peers by
// pinging every node and reporting who failed to answer within the probe
// deadline.
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
