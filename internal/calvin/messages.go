package calvin

import (
	"alohadb/internal/kv"
	"alohadb/internal/transport"
)

// MsgSubmit carries one client transaction from its origin node to the
// sequencer.
type MsgSubmit struct {
	Txn wireTxn
}

// MsgBatch is one sequencer epoch: the deterministic global order every
// scheduler follows. Broadcast to all partitions; each filters the
// transactions it participates in.
type MsgBatch struct {
	Epoch uint64
	Txns  []wireTxn
}

// MsgReads broadcasts one participant's local slice of a transaction's
// read set to the other participants.
type MsgReads struct {
	TxnID uint64
	From  transport.NodeID
	Reads []ReadValue
}

// ReadValue is one key's value (or absence) in a read broadcast.
type ReadValue struct {
	Key   kv.Key
	Value kv.Value
	Found bool
}

// MsgDone tells the origin node that one participant finished applying a
// transaction's writes.
type MsgDone struct {
	TxnID uint64
}
