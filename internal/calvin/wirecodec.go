package calvin

import (
	"encoding/binary"
	"time"

	"alohadb/internal/kv"
	"alohadb/internal/transport"
	"alohadb/internal/wire"
)

// Wire kinds of Calvin's messages, in calvin's range 64–79 (see package
// wire). The byte values are wire format: never renumber, only append.
const (
	wireKindSubmit wire.Kind = 64 + iota
	wireKindBatch
	wireKindReads
	wireKindDone
)

// RegisterMessages registers the wire codec of Calvin's message types.
// Call once at startup when using the TCP transport (idempotent).
func RegisterMessages() {
	wire.Register(wireKindSubmit, MsgSubmit{},
		func(dst []byte, msg any) []byte { m := msg.(MsgSubmit); return appendWireTxn(dst, &m.Txn) },
		func(b []byte) (any, error) {
			var m MsgSubmit
			r := wire.NewReader(b)
			decodeWireTxnInto(&m.Txn, &r)
			return m, r.Finish()
		})
	wire.Register(wireKindBatch, MsgBatch{},
		func(dst []byte, msg any) []byte {
			m := msg.(MsgBatch)
			dst = binary.AppendUvarint(dst, m.Epoch)
			dst = binary.AppendUvarint(dst, uint64(len(m.Txns)))
			for i := range m.Txns {
				dst = appendWireTxn(dst, &m.Txns[i])
			}
			return dst
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := MsgBatch{Epoch: r.Uvarint()}
			if n := r.Count(14); n > 0 {
				m.Txns = make([]wireTxn, n)
				for i := range m.Txns {
					decodeWireTxnInto(&m.Txns[i], &r)
				}
			}
			return m, r.Finish()
		})
	wire.Register(wireKindReads, MsgReads{},
		func(dst []byte, msg any) []byte {
			m := msg.(MsgReads)
			dst = binary.AppendUvarint(dst, m.TxnID)
			dst = binary.AppendUvarint(dst, uint64(m.From))
			dst = binary.AppendUvarint(dst, uint64(len(m.Reads)))
			for _, rv := range m.Reads {
				dst = wire.AppendString(dst, string(rv.Key))
				dst = wire.AppendBytes(dst, rv.Value)
				dst = wire.AppendBool(dst, rv.Found)
			}
			return dst
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := MsgReads{TxnID: r.Uvarint(), From: transport.NodeID(r.Uvarint())}
			if n := r.Count(3); n > 0 {
				m.Reads = make([]ReadValue, n)
				for i := range m.Reads {
					m.Reads[i] = ReadValue{Key: kv.Key(r.String()), Value: r.Bytes(), Found: r.Bool()}
				}
			}
			return m, r.Finish()
		})
	wire.Register(wireKindDone, MsgDone{},
		func(dst []byte, msg any) []byte { return binary.AppendUvarint(dst, msg.(MsgDone).TxnID) },
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := MsgDone{TxnID: r.Uvarint()}
			return m, r.Finish()
		})
}

// A transaction travels as id | origin | readSet | writeSet | proc | args |
// issuedAt(8). IssuedAt is wall-clock UnixNano, zero for the zero time; the
// monotonic reading is dropped, as gob dropped it: it means nothing on
// another process's clock.
func appendWireTxn(dst []byte, t *wireTxn) []byte {
	dst = binary.AppendUvarint(dst, t.ID)
	dst = binary.AppendUvarint(dst, uint64(t.Origin))
	dst = wire.AppendStrings(dst, t.ReadSet)
	dst = wire.AppendStrings(dst, t.WriteSet)
	dst = wire.AppendString(dst, t.Proc)
	dst = wire.AppendBytes(dst, t.Args)
	var nanos int64
	if !t.IssuedAt.IsZero() {
		nanos = t.IssuedAt.UnixNano()
	}
	return wire.AppendU64(dst, uint64(nanos))
}

func decodeWireTxnInto(t *wireTxn, r *wire.Reader) {
	t.ID = r.Uvarint()
	t.Origin = transport.NodeID(r.Uvarint())
	t.ReadSet = wire.ReadStrings(r, t.ReadSet)
	t.WriteSet = wire.ReadStrings(r, t.WriteSet)
	t.Proc = r.String()
	t.Args = r.Bytes()
	if nanos := int64(r.U64()); nanos != 0 {
		t.IssuedAt = time.Unix(0, nanos)
	}
}
