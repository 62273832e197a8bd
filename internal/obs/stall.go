package obs

import "time"

// The stall documents: what the flight recorder's stall rule
// (internal/obs/tsdb) captures once per episode, and the /debug/stall
// view of its episodes. The paper's epoch switch waits for every
// front-end's revoke ack, so one unacked server stalls the whole cluster;
// a capture names who is not answering and which queue is stuck.

// PeerProbe is one peer's reachability check inside a stall snapshot: the
// capture pings every peer so the snapshot names who is not answering
// (the paper's revocation protocol stalls on exactly one unacked FE).
type PeerProbe struct {
	Node      int           `json:"node"`
	Reachable bool          `json:"reachable"`
	RTT       time.Duration `json:"rtt_ns"`
	// CommittedEpoch is the peer's last committed epoch when reachable,
	// so the snapshot shows which owner's seal is lagging.
	CommittedEpoch uint64 `json:"committed_epoch,omitempty"`
	CurrentEpoch   uint64 `json:"current_epoch,omitempty"`
	Err            string `json:"err,omitempty"`
}

// EpochBuffer is one epoch's buffered-but-uncommitted functor count.
type EpochBuffer struct {
	Epoch    uint64 `json:"epoch"`
	Buffered int    `json:"buffered"`
}

// PendingFunctor describes the oldest functor metadata still waiting —
// key, f-type, how long it has queued, and the owning transaction's trace
// ID so the operator can jump to the slow-txn ring.
type PendingFunctor struct {
	Key       string        `json:"key"`
	FType     string        `json:"f_type"`
	Version   uint64        `json:"version"`
	QueueWait time.Duration `json:"queue_wait_ns"`
	TraceID   string        `json:"trace_id,omitempty"`
}

// OwnerQueue is one combiner owner slot's occupancy.
type OwnerQueue struct {
	Owner  int `json:"owner"`
	Queued int `json:"queued"`
}

// SendQueue is one transport peer's outbound queue depth.
type SendQueue struct {
	Peer  int `json:"peer"`
	Depth int `json:"depth"`
}

// StallSnapshot is one structured flight-recorder capture, taken when the
// committed-epoch frontier stops advancing past the threshold.
type StallSnapshot struct {
	Server     int           `json:"server"`
	DetectedAt time.Time     `json:"detected_at"`
	Age        time.Duration `json:"age_ns"`
	Threshold  time.Duration `json:"threshold_ns"`

	// CommittedEpoch is the last epoch whose versions became visible here;
	// CurrentEpoch is the epoch the server currently issues timestamps in.
	// A gap means the switch protocol is wedged between revoke and commit.
	CommittedEpoch uint64 `json:"committed_epoch"`
	CurrentEpoch   uint64 `json:"current_epoch"`

	Peers            []PeerProbe `json:"peers,omitempty"`
	UnreachablePeers []int       `json:"unreachable_peers,omitempty"`

	// InflightEpochs lists epochs with unacked reservations (a revoked
	// epoch here means this server itself is the unacked FE).
	InflightEpochs []uint64 `json:"inflight_epochs,omitempty"`
	// PendingEpochs lists epochs with buffered functor metadata waiting
	// for commit.
	PendingEpochs []EpochBuffer `json:"pending_epochs,omitempty"`
	// OldestPending is the longest-waiting functor (buffered or queued).
	OldestPending *PendingFunctor `json:"oldest_pending,omitempty"`

	ProcessorQueues []int        `json:"processor_queues,omitempty"`
	CombinerQueues  []OwnerQueue `json:"combiner_queues,omitempty"`
	SendQueues      []SendQueue  `json:"send_queues,omitempty"`

	// WALFsyncAge is the time since the durability hook's last fsync, when
	// a hook exposing it is attached (-1 when unknown).
	WALFsyncAge time.Duration `json:"wal_fsync_age_ns,omitempty"`

	// SlowTraces cross-links the tracer's slow-transaction ring: trace IDs
	// captured around the stall, inspectable at /debug/traces.
	SlowTraces []string `json:"slow_traces,omitempty"`

	Goroutines       int    `json:"goroutines,omitempty"`
	GoroutineProfile string `json:"goroutine_profile,omitempty"`
}

// StallStatus is the /debug/stall JSON document.
type StallStatus struct {
	Active bool `json:"active"`
	// StallsTotal counts stall episodes since start.
	StallsTotal uint64 `json:"stalls_total"`
	// ProgressAge is how long the committed-epoch frontier has been
	// unchanged, as of the recorder's newest tick.
	ProgressAge time.Duration `json:"progress_age_ns"`
	Threshold   time.Duration `json:"threshold_ns"`
	// Snapshots are the retained episodes' captures, oldest first; while
	// an episode is open the last entry is its capture.
	Snapshots []*StallSnapshot `json:"snapshots,omitempty"`
}
