package replica

import (
	"encoding/binary"

	"alohadb/internal/tstamp"
	"alohadb/internal/wal"
	"alohadb/internal/wire"
)

// wireKindShipEpoch is the first kind of replica's range 80–95 (see
// package wire). Wire format: never renumber, only append.
const wireKindShipEpoch wire.Kind = 80

// RegisterMessages registers the wire codec of the replication message.
// Call once at startup when using the TCP transport (idempotent).
func RegisterMessages() {
	wire.Register(wireKindShipEpoch, MsgShipEpoch{}, appendMsgShipEpoch, decodeMsgShipEpoch)
}

// appendMsgShipEpoch lays the shipment out as
//
//	epoch | count | { kind(1) payload(bytes) }*
//
// where payload is the entry's WAL record payload (wal.AppendEntry): the
// backup link carries what the log holds, in the log's own format.
func appendMsgShipEpoch(dst []byte, msg any) []byte {
	m := msg.(MsgShipEpoch)
	dst = binary.AppendUvarint(dst, uint64(m.E))
	dst = binary.AppendUvarint(dst, uint64(len(m.Entries)))
	var payload []byte
	for _, e := range m.Entries {
		payload = wal.AppendEntry(payload[:0], e)
		dst = append(dst, byte(e.Kind))
		dst = wire.AppendBytes(dst, payload)
	}
	return dst
}

func decodeMsgShipEpoch(b []byte) (any, error) {
	r := wire.NewReader(b)
	m := MsgShipEpoch{E: tstamp.Epoch(r.Uvarint())}
	if n := r.Count(2); n > 0 {
		m.Entries = make([]wal.Entry, n)
	}
	for i := range m.Entries {
		var err error
		if m.Entries[i], err = wal.DecodeEntry(wal.EntryKind(r.Byte()), r.Bytes()); err != nil {
			r.Fail(err) // after a truncation, the reader's own error stands
		}
	}
	return m, r.Finish()
}
