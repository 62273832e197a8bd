// Package tstamp implements the decentralized timestamp scheme used by
// ALOHA-DB's epoch-based concurrency control.
//
// A Timestamp packs three fields into a uint64:
//
//	bits 63..40  epoch number (24 bits)
//	bits 39..12  per-server sequence number within the epoch (28 bits)
//	bits 11..0   server ID (12 bits)
//
// Natural uint64 ordering therefore orders timestamps first by epoch, then
// by sequence, then by server — a valid serialization order in which every
// timestamp is globally unique without any cross-server coordination, and
// every timestamp is contained in its epoch's validity interval
// [Start(e), Start(e+1)). This realizes the properties the paper obtains
// from NTP-synchronized clocks (global uniqueness, epoch containment,
// decentralized assignment) structurally rather than probabilistically.
package tstamp

import "fmt"

// Timestamp is a packed epoch/sequence/server transaction version number.
// It doubles as the version number of every write the transaction installs.
type Timestamp uint64

// Epoch identifies one write epoch. Epoch 0 is reserved for pre-loaded data
// (it is visible from the first client-serving epoch onward).
type Epoch uint32

const (
	epochBits  = 24
	seqBits    = 28
	serverBits = 12

	epochShift = seqBits + serverBits // 40
	seqShift   = serverBits           // 12

	// MaxEpoch is the largest representable epoch number.
	MaxEpoch Epoch = 1<<epochBits - 1
	// MaxSeq is the largest per-server sequence number within one epoch.
	MaxSeq uint32 = 1<<seqBits - 1
	// MaxServer is the largest representable server ID.
	MaxServer uint16 = 1<<serverBits - 1

	seqMask    = uint64(MaxSeq)
	serverMask = uint64(MaxServer)
)

// Zero is the smallest timestamp. No transaction ever receives it; it is
// useful as a lower bound for scans.
const Zero Timestamp = 0

// Max is the largest representable timestamp, useful as an upper bound for
// "latest version" reads.
const Max Timestamp = ^Timestamp(0)

// Make assembles a timestamp from its fields. It panics if any field is out
// of range; callers derive fields from bounded counters, so a violation is a
// programming error rather than a runtime condition.
func Make(epoch Epoch, seq uint32, server uint16) Timestamp {
	if epoch > MaxEpoch {
		panic(fmt.Sprintf("tstamp: epoch %d out of range", epoch))
	}
	if seq > MaxSeq {
		panic(fmt.Sprintf("tstamp: seq %d out of range", seq))
	}
	if server > MaxServer {
		panic(fmt.Sprintf("tstamp: server %d out of range", server))
	}
	return Timestamp(uint64(epoch)<<epochShift | uint64(seq)<<seqShift | uint64(server))
}

// Epoch extracts the epoch number.
func (t Timestamp) Epoch() Epoch { return Epoch(uint64(t) >> epochShift) }

// Seq extracts the per-server sequence number.
func (t Timestamp) Seq() uint32 { return uint32(uint64(t) >> seqShift & seqMask) }

// Server extracts the server ID.
func (t Timestamp) Server() uint16 { return uint16(uint64(t) & serverMask) }

// Prev returns the largest timestamp strictly smaller than t. Functor
// computation reads "the latest version not exceeding v-1" (Algorithm 1,
// line 13); Prev supplies that bound. Prev of Zero is Zero.
func (t Timestamp) Prev() Timestamp {
	if t == Zero {
		return Zero
	}
	return t - 1
}

// String renders the timestamp as epoch.seq@server for logs and tests.
func (t Timestamp) String() string {
	return fmt.Sprintf("%d.%d@%d", t.Epoch(), t.Seq(), t.Server())
}

// Start returns the first timestamp of epoch e. All transactions of epochs
// < e have timestamps strictly below Start(e), so Start(e) is the snapshot
// bound for reads issued while epoch e is the active write epoch.
func Start(e Epoch) Timestamp { return Timestamp(uint64(e) << epochShift) }

// End returns the exclusive upper bound of epoch e's timestamps, i.e.
// Start(e+1). End of the maximum epoch saturates at Max.
func End(e Epoch) Timestamp {
	if e >= MaxEpoch {
		return Max
	}
	return Start(e + 1)
}
