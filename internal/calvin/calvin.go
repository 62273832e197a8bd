// Package calvin implements the Calvin baseline the paper evaluates
// against (§V, [2]-[4]): a deterministic transaction processing layer with
// sequencer-batched epochs, per-partition single-threaded lock-manager
// scheduling (partition-level concurrency control), and redundant
// execution on every participating partition with read-set broadcast.
//
// Faithfully reproduced design points (they drive the performance shape
// the paper reports):
//
//   - The sequencer batches requests into epochs (20 ms by default, §V-A2)
//     and fixes a deterministic global order; transactions never abort.
//   - Each partition's lock manager is a single thread that grants locks
//     in the global order — the bottleneck §V-C1 identifies under
//     contention.
//   - Every participant reads its local read-set slice, broadcasts it to
//     the other participants, redundantly executes the full stored
//     procedure, and applies only its local writes (the wasted work
//     §V-D(1) describes).
//
// Simplifications, documented in DESIGN.md: a single sequencer node stands
// in for Calvin's replicated per-node sequencers (the paper's evaluation
// disables replication anyway), and storage is a single-version in-memory
// map, as in Calvin's main-memory configuration.
package calvin

import (
	"fmt"
	"sync"
	"time"

	"alohadb/internal/kv"
	"alohadb/internal/transport"
)

// Proc is a deterministic stored procedure: given the full read set and
// arguments, produce the writes. It must be a pure function — Calvin
// executes it redundantly on every participating partition and applies
// only the local slice of the writes.
type Proc func(reads map[kv.Key]kv.Value, args []byte, writeSet []kv.Key) map[kv.Key]kv.Value

// ProcRegistry maps stored procedure names to implementations.
type ProcRegistry struct {
	mu    sync.RWMutex
	procs map[string]Proc
}

// NewProcRegistry returns an empty registry.
func NewProcRegistry() *ProcRegistry {
	return &ProcRegistry{procs: make(map[string]Proc)}
}

// Register installs a stored procedure; duplicates are an error.
func (r *ProcRegistry) Register(name string, p Proc) error {
	if name == "" || p == nil {
		return fmt.Errorf("calvin: invalid procedure registration %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.procs[name]; dup {
		return fmt.Errorf("calvin: procedure %q already registered", name)
	}
	r.procs[name] = p
	return nil
}

// MustRegister is Register that panics on error (program initialization).
func (r *ProcRegistry) MustRegister(name string, p Proc) {
	if err := r.Register(name, p); err != nil {
		panic(err)
	}
}

func (r *ProcRegistry) lookup(name string) (Proc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.procs[name]
	return p, ok
}

// Txn is one "one-shot" transaction: read set, write set, and a stored
// procedure reference, known ahead of execution (the Calvin model the
// paper adopts for ALOHA-DB too, §IV-A).
type Txn struct {
	ReadSet  []kv.Key
	WriteSet []kv.Key
	Proc     string
	Args     []byte
}

// wireTxn is a transaction in flight, tagged with identity and timing.
type wireTxn struct {
	ID       uint64
	Origin   transport.NodeID
	ReadSet  []kv.Key
	WriteSet []kv.Key
	Proc     string
	Args     []byte
	IssuedAt time.Time
}

// Stats aggregates one partition's counters, including the Figure-10 stage
// breakdown: sequencing (issue → scheduler pickup), locking and read
// (pickup → all read values collected), processing (stored procedure run).
type Stats struct {
	TxnsExecuted uint64
	LocksGranted uint64
	LockWaits    uint64

	SequencingTime time.Duration
	SequencingN    uint64
	LockReadTime   time.Duration
	LockReadN      uint64
	ProcessingTime time.Duration
	ProcessingN    uint64
}

// Add accumulates another snapshot.
func (s *Stats) Add(o Stats) {
	s.TxnsExecuted += o.TxnsExecuted
	s.LocksGranted += o.LocksGranted
	s.LockWaits += o.LockWaits
	s.SequencingTime += o.SequencingTime
	s.SequencingN += o.SequencingN
	s.LockReadTime += o.LockReadTime
	s.LockReadN += o.LockReadN
	s.ProcessingTime += o.ProcessingTime
	s.ProcessingN += o.ProcessingN
}
